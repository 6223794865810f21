"""Network topology: racks of nodes with HDFS-style distance semantics.

Distances follow HDFS conventions: 0 for the same node, 2 within a rack,
4 across racks.  The placement policies use these to trade locality
against fault tolerance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.hardware import DEFAULT_HIERARCHY, TierHierarchy, TierSpec
from repro.cluster.node import Node


class Rack:
    """A named group of nodes sharing a top-of-rack switch.

    ``uplink_bandwidth`` optionally caps the rack's aggregate traffic to
    the rest of the cluster (bytes/second); ``None`` leaves the uplink
    unconstrained.  Only the fair-share I/O model enforces it — cross-
    rack flows then traverse a shared uplink resource per rack.
    """

    def __init__(self, name: str, uplink_bandwidth: Optional[float] = None) -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.uplink_bandwidth = uplink_bandwidth

    def add(self, node: Node) -> None:
        """Put ``node`` in this rack."""
        self.nodes.append(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rack({self.name}, nodes={len(self.nodes)})"


class ClusterTopology:
    """The set of worker nodes organized into racks."""

    SAME_NODE = 0
    SAME_RACK = 2
    OFF_RACK = 4

    def __init__(self, hierarchy: Optional[TierHierarchy] = None) -> None:
        self._racks: Dict[str, Rack] = {}
        self._nodes: Dict[str, Node] = {}
        #: Node id -> rack name, kept by :meth:`add_node` for lookups on
        #: the per-task path (replica choice).
        self.rack_names: Dict[str, str] = {}
        self._hierarchy = hierarchy
        # Aggregate per-tier byte accounting, maintained incrementally
        # via each device's usage_listener (capacity is static once a
        # node joins).  Exact integer bookkeeping: always equal to the
        # sum over all nodes the queries below used to compute.
        self._tier_capacity: Dict[TierSpec, int] = {}
        self._tier_used: Dict[TierSpec, int] = {}
        # Callbacks told of every device allocate/release (see watch_usage).
        self._usage_watchers: List[Callable] = []

    @property
    def hierarchy(self) -> TierHierarchy:
        """The tier hierarchy shared by every node in the cluster."""
        return self._hierarchy if self._hierarchy is not None else DEFAULT_HIERARCHY

    # -- construction --------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Join ``node`` to its rack and to the per-tier aggregates.

        The first node fixes the hierarchy when none was given; a node
        of another hierarchy, or a duplicate id, raises ``ValueError``.
        """
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        if self._hierarchy is None:
            self._hierarchy = node.hierarchy
        elif node.hierarchy is not self._hierarchy:
            raise ValueError(
                f"node {node.node_id} uses hierarchy {node.hierarchy.name!r}, "
                f"cluster uses {self._hierarchy.name!r}"
            )
        self._nodes[node.node_id] = node
        self.rack_names[node.node_id] = node.rack
        rack = self._racks.setdefault(node.rack, Rack(node.rack))
        rack.add(node)
        for device in node.devices():
            tier = device.tier
            self._tier_capacity[tier] = (
                self._tier_capacity.get(tier, 0) + device.capacity
            )
            self._tier_used[tier] = self._tier_used.get(tier, 0) + device.used
            device.usage_listener = self._on_device_usage

    def _on_device_usage(self, device, delta: int) -> None:
        """Fold one device's allocate/release into the tier aggregate."""
        self._tier_used[device.tier] += delta
        for watcher in self._usage_watchers:
            watcher(device)

    def watch_usage(self, watcher: Callable) -> None:
        """Call ``watcher(device)`` after every allocate/release on any device.

        Each device's single ``usage_listener`` slot stays the
        topology's; this fans its events out.
        """
        self._usage_watchers.append(watcher)

    # -- lookups ---------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """Every node in join order, dead ones included."""
        return list(self._nodes.values())

    @property
    def racks(self) -> List[Rack]:
        """Every rack in order of its first node."""
        return list(self._racks.values())

    def node(self, node_id: str) -> Node:
        """The node named ``node_id`` (``KeyError`` if unknown)."""
        return self._nodes[node_id]

    def rack_of(self, node_id: str) -> Rack:
        """The rack holding ``node_id``."""
        return self._racks[self._nodes[node_id].rack]

    def set_rack_uplinks(self, bandwidth: Optional[float]) -> None:
        """Set every rack's uplink cap (None removes the constraint)."""
        for rack in self._racks.values():
            rack.uplink_bandwidth = bandwidth

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def distance(self, a: Node, b: Node) -> int:
        """HDFS-style network distance between two nodes."""
        if a.node_id == b.node_id:
            return self.SAME_NODE
        if a.rack == b.rack:
            return self.SAME_RACK
        return self.OFF_RACK

    # -- aggregate capacity ------------------------------------------------------
    # O(1) reads of the incrementally maintained per-tier aggregates;
    # dead nodes stay counted, exactly like the per-node sums these
    # replaced (``nodes`` never filtered on ``alive``).
    def tier_capacity(self, tier: TierSpec) -> int:
        """Bytes the cluster's ``tier`` devices hold in total."""
        return self._tier_capacity.get(tier, 0)

    def tier_used(self, tier: TierSpec) -> int:
        """Replica bytes stored on ``tier`` across the cluster."""
        return self._tier_used.get(tier, 0)

    def tier_free(self, tier: TierSpec) -> int:
        """Bytes still free on ``tier`` across the cluster."""
        return self._tier_capacity.get(tier, 0) - self._tier_used.get(tier, 0)

    def tier_utilization(self, tier: TierSpec) -> float:
        """Used fraction of ``tier``; 1.0 when the cluster has none of it."""
        capacity = self._tier_capacity.get(tier, 0)
        if capacity == 0:
            return 1.0
        return self._tier_used.get(tier, 0) / capacity

    def nodes_with_tier(self, tier: TierSpec) -> List[Node]:
        """Alive nodes exposing ``tier`` (placement candidates)."""
        return [n for n in self.nodes if n.alive and n.has_tier(tier)]

    def total_task_slots(self) -> int:
        """Map/reduce task slots over all nodes."""
        return sum(n.task_slots for n in self.nodes)
