"""Node manager: per-node statistics used by placement decisions.

Mirrors the "Node Manager" of the paper's Master (Fig 3): it knows the
topology and maintains per-node load statistics (bytes read/written per
tier, in-flight transfers) that the multi-objective placement policy's
load-balancing term consumes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cluster.hardware import TierSpec
from repro.cluster.topology import ClusterTopology


@dataclass
class NodeStats:
    """Running I/O counters for one node."""

    # Lazily keyed by TierSpec so one NodeStats works for any hierarchy.
    bytes_read: Dict[TierSpec, int] = field(default_factory=lambda: defaultdict(int))
    bytes_written: Dict[TierSpec, int] = field(default_factory=lambda: defaultdict(int))
    active_transfers: int = 0
    total_transfers: int = 0


class NodeManager:
    """Tracks per-node I/O load across the topology."""

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology
        self._stats: Dict[str, NodeStats] = {
            node.node_id: NodeStats() for node in topology.nodes
        }
        self._load_watchers: List[Callable[[str], None]] = []

    @property
    def topology(self) -> ClusterTopology:
        """The cluster whose nodes are tracked."""
        return self._topology

    def stats(self, node_id: str) -> NodeStats:
        """The live counters of ``node_id``."""
        return self._stats[node_id]

    def watch_load(self, watcher: Callable[[str], None]) -> None:
        """Call ``watcher(node_id)`` whenever :meth:`load_score` of a node changes."""
        self._load_watchers.append(watcher)

    # -- recording --------------------------------------------------------
    def record_read(self, node_id: str, tier: TierSpec, num_bytes: int) -> None:
        """Count ``num_bytes`` read from the replica on ``node_id``'s ``tier``
        (a map task's block, or one of :meth:`~repro.dfs.master.Master.plan_read`)."""
        self._stats[node_id].bytes_read[tier] += num_bytes

    def record_write(self, node_id: str, tier: TierSpec, num_bytes: int) -> None:
        """Count ``num_bytes`` written to a replica on ``node_id``'s ``tier``."""
        self._stats[node_id].bytes_written[tier] += num_bytes

    def transfer_started(self, node_id: str) -> None:
        """Count one more in-flight transfer touching ``node_id``."""
        stats = self._stats[node_id]
        stats.active_transfers += 1
        stats.total_transfers += 1
        for watcher in self._load_watchers:
            watcher(node_id)

    def transfer_finished(self, node_id: str) -> None:
        """Count one in-flight transfer on ``node_id`` as done."""
        stats = self._stats[node_id]
        if stats.active_transfers <= 0:
            raise ValueError(f"transfer count underflow on {node_id}")
        stats.active_transfers -= 1
        for watcher in self._load_watchers:
            watcher(node_id)

    # -- load scoring -------------------------------------------------------
    def load_score(self, node_id: str) -> float:
        """Relative load in [0, 1]: 0 = idle, approaching 1 = busy.

        Uses in-flight transfer count; placement's load-balancing term
        prefers nodes with fewer concurrent transfers.
        """
        active = self._stats[node_id].active_transfers
        return active / (active + 1.0)
