"""Block placement policies.

Four policies reproduce the four systems compared in the paper's Fig 2:

* :class:`HdfsPlacementPolicy` — original HDFS: all replicas on HDDs,
  distinct nodes, rack-aware.
* :class:`HdfsCachePlacementPolicy` — HDFS with the centralized cache: one
  *extra* replica in memory co-located with an HDD replica, only while
  memory has room (no eviction — exactly why Fig 2 flatlines).
* :class:`OctopusPlacementPolicy` — OctopusFS's multi-objective policy:
  scores (node, tier, device) candidates on throughput, data balance,
  load balance, and fault tolerance, preferring tier diversity so a
  3-replica block lands on memory + SSD + HDD while space lasts.
* :class:`SingleTierPlacementPolicy` — pins all replicas to one tier;
  used by the upgrade-policy isolation experiment (Sec 7.4).

The Octopus policy also provides :meth:`select_transfer_target`, the
"how to downgrade/upgrade" decision (Secs 5.3 and 6.3), which reuses the
same multi-objective scoring restricted to the requested tiers.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.hardware import StorageDevice, TierSpec
from repro.cluster.node import Node
from repro.cluster.topology import ClusterTopology
from repro.common.config import Configuration
from repro.dfs.block import BlockInfo, ReplicaInfo
from repro.dfs.node_manager import NodeManager


@dataclass(frozen=True)
class PlacementTarget:
    """A concrete location for one replica."""

    node_id: str
    tier: TierSpec
    device_id: str


class PlacementPolicy:
    """Base class: decides where replicas go."""

    #: Optional decision tracer (:class:`repro.obs.trace.Tracer`),
    #: installed by the runner when ``obs.trace`` is set.  Policies that
    #: support per-candidate score auditing consult it in their
    #: placement loop; ``None`` (the default) keeps the hot path free of
    #: any tracing work.
    tracer = None

    def __init__(
        self,
        topology: ClusterTopology,
        node_manager: NodeManager,
        conf: Optional[Configuration] = None,
    ) -> None:
        self.topology = topology
        self.node_manager = node_manager
        self.conf = conf if conf is not None else Configuration()
        #: The cluster's tier hierarchy; all tier-ordered decisions
        #: (downgrade targets, diversity preferences) derive from it.
        self.hierarchy = topology.hierarchy

    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        """Choose locations for the ``replication`` replicas of a new block.

        May return fewer targets than requested when the cluster is out
        of space; the caller decides whether that is an error.
        """
        raise NotImplementedError

    def select_transfer_target(
        self,
        block: BlockInfo,
        from_replica: ReplicaInfo,
        candidate_tiers: Sequence[TierSpec],
    ) -> Optional[PlacementTarget]:
        """Choose where to move ``from_replica`` (downgrade/upgrade step).

        Default implementation: first tier in ``candidate_tiers`` with
        space, preferring the replica's own node.  Subclasses refine.
        """
        for tier in candidate_tiers:
            target = self._fit_on_tier(block, from_replica, tier)
            if target is not None:
                return target
        return None

    def select_copy_target(
        self,
        block: BlockInfo,
        candidate_tiers: Sequence[TierSpec],
    ) -> Optional[PlacementTarget]:
        """Choose where to place an *additional* replica (re-replication).

        Unlike a move, every node already holding a replica is excluded.
        Default: first tier in ``candidate_tiers`` with space on the
        least-utilized eligible node.
        """
        excluded = set(block.nodes())
        for tier in candidate_tiers:
            nodes = sorted(
                (
                    n
                    for n in self.topology.nodes_with_tier(tier)
                    if n.node_id not in excluded
                ),
                key=lambda n: (n.tier_utilization(tier), n.node_id),
            )
            for node in nodes:
                device = node.best_device_for(tier, block.size)
                if device is not None:
                    return PlacementTarget(node.node_id, tier, device.device_id)
        return None

    def select_cache_target(
        self,
        block: BlockInfo,
        tier: TierSpec,
    ) -> Optional[PlacementTarget]:
        """Choose where to place a *cached* copy of ``block`` on ``tier``.

        Cache copies follow HDFS centralized-cache semantics: prefer a
        node that already holds a replica (the cache lives next to the
        data it shadows), but never duplicate a replica on the same
        (node, tier).  Falls back to any node with room.
        """
        holders = set(block.nodes())
        on_tier = {r.node_id for r in block.replicas.values() if r.tier == tier}
        nodes = sorted(
            (
                n
                for n in self.topology.nodes_with_tier(tier)
                if n.node_id not in on_tier
            ),
            key=lambda n: (
                n.node_id not in holders,
                n.tier_utilization(tier),
                n.node_id,
            ),
        )
        for node in nodes:
            device = node.best_device_for(tier, block.size)
            if device is not None:
                return PlacementTarget(node.node_id, tier, device.device_id)
        return None

    # -- shared helpers ------------------------------------------------------
    def _nodes_excluded_for(
        self, block: BlockInfo, from_replica: Optional[ReplicaInfo]
    ) -> Set[str]:
        """Nodes that may not receive a new replica of ``block``.

        A node already holding any replica of the block is excluded,
        except the source node of a move (its replica disappears when the
        move commits).
        """
        excluded = set(block.nodes())
        if from_replica is not None:
            others = [
                r
                for r in block.replicas.values()
                if r.node_id == from_replica.node_id
                and r.replica_id != from_replica.replica_id
            ]
            if not others:
                excluded.discard(from_replica.node_id)
        return excluded

    def _fit_on_tier(
        self,
        block: BlockInfo,
        from_replica: ReplicaInfo,
        tier: TierSpec,
    ) -> Optional[PlacementTarget]:
        excluded = self._nodes_excluded_for(block, from_replica)
        # Prefer the same node (no network hop), then least-utilized.
        nodes = sorted(
            (
                n
                for n in self.topology.nodes_with_tier(tier)
                if n.node_id not in excluded
            ),
            key=lambda n: (n.node_id != from_replica.node_id, n.tier_utilization(tier)),
        )
        for node in nodes:
            device = node.best_device_for(tier, block.size)
            if device is not None:
                return PlacementTarget(node.node_id, tier, device.device_id)
        return None


class HdfsPlacementPolicy(PlacementPolicy):
    """Original HDFS: every replica on the base tier, rack-aware spread.

    The base tier is the hierarchy's lowest node-local tier (HDD in the
    paper's testbed).  First replica goes to the writer node when
    possible, the second to a different rack, the third to the second's
    rack — the classic HDFS default, simplified to node-distinctness
    plus rack diversity.
    """

    @property
    def base_tier(self) -> TierSpec:
        """The tier every replica goes to: the lowest node-local one."""
        return self.hierarchy.lowest_local

    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        """Base-tier replicas on distinct nodes: writer first, then rack-aware."""
        targets: List[PlacementTarget] = []
        used_nodes: Set[str] = set()
        used_racks: List[str] = []
        base = self.base_tier
        for i in range(replication):
            node = self._pick_node(size, used_nodes, used_racks, writer_node, i)
            if node is None:
                break
            device = node.best_device_for(base, size)
            assert device is not None  # _pick_node guarantees space
            targets.append(PlacementTarget(node.node_id, base, device.device_id))
            used_nodes.add(node.node_id)
            used_racks.append(node.rack)
        return targets

    def _pick_node(
        self,
        size: int,
        used_nodes: Set[str],
        used_racks: List[str],
        writer_node: Optional[str],
        replica_index: int,
    ) -> Optional[Node]:
        base = self.base_tier
        candidates = [
            n
            for n in self.topology.nodes_with_tier(base)
            if n.node_id not in used_nodes
            and n.best_device_for(base, size) is not None
        ]
        if not candidates:
            return None
        if replica_index == 0 and writer_node is not None:
            local = [n for n in candidates if n.node_id == writer_node]
            if local:
                return local[0]
        if replica_index == 1 and used_racks:
            off_rack = [n for n in candidates if n.rack != used_racks[0]]
            if off_rack:
                candidates = off_rack
        if replica_index == 2 and len(used_racks) >= 2:
            same_rack = [n for n in candidates if n.rack == used_racks[1]]
            if same_rack:
                candidates = same_rack
        return min(
            candidates,
            key=lambda n: (n.tier_utilization(base), n.node_id),
        )


class HdfsCachePlacementPolicy(HdfsPlacementPolicy):
    """HDFS with the centralized cache enabled.

    Adds one extra memory replica on a node that already received an HDD
    replica — but only while that node's memory tier has room.  There is
    no eviction: once memory fills, caching silently stops (paper Sec 1,
    Fig 2).
    """

    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        """The HDFS replicas plus one copy on the highest tier of a target."""
        targets = super().place_block(size, replication, writer_node)
        cache_tier = self.hierarchy.highest
        for target in targets:
            node = self.topology.node(target.node_id)
            device = node.best_device_for(cache_tier, size)
            if device is not None:
                targets.append(
                    PlacementTarget(node.node_id, cache_tier, device.device_id)
                )
                break
        return targets


class SingleTierPlacementPolicy(PlacementPolicy):
    """All replicas pinned to one tier (default: lowest local), distinct nodes.

    Used to isolate upgrade policies (Sec 7.4: "initially place all file
    replicas on the HDD tier and let the upgrade policies decide").
    """

    def __init__(
        self,
        topology: ClusterTopology,
        node_manager: NodeManager,
        conf: Optional[Configuration] = None,
        tier: Optional[TierSpec] = None,
    ) -> None:
        super().__init__(topology, node_manager, conf)
        self.tier = tier if tier is not None else self.hierarchy.lowest_local

    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        """Each replica on the least-utilized distinct node with room on the tier."""
        targets: List[PlacementTarget] = []
        used_nodes: Set[str] = set()
        for _ in range(replication):
            candidates = [
                n
                for n in self.topology.nodes_with_tier(self.tier)
                if n.node_id not in used_nodes
                and n.best_device_for(self.tier, size) is not None
            ]
            if not candidates:
                break
            node = min(
                candidates,
                key=lambda n: (n.tier_utilization(self.tier), n.node_id),
            )
            device = node.best_device_for(self.tier, size)
            assert device is not None
            targets.append(PlacementTarget(node.node_id, self.tier, device.device_id))
            used_nodes.add(node.node_id)
        return targets


class OctopusPlacementPolicy(PlacementPolicy):
    """OctopusFS's multi-objective data placement (Sec 5.3, [29]).

    Each candidate (node, tier, device) is scored as a weighted sum of
    four objectives and replicas are chosen greedily (a scalarized Pareto
    search):

    * **throughput** — faster tiers score higher;
    * **data balance** — emptier devices score higher;
    * **load balance** — nodes with fewer in-flight transfers score higher;
    * **fault tolerance** — distinct nodes are a hard constraint, new
      racks earn a bonus, and *tier diversity* earns a bonus so the
      replicas of one block spread across tiers (memory + SSD + HDD while
      memory lasts — the behaviour Fig 2 shows).

    Configuration keys (all optional): ``placement.weight.throughput``,
    ``placement.weight.data_balance``, ``placement.weight.load_balance``,
    ``placement.weight.fault_tolerance``, ``placement.weight.locality``.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        node_manager: NodeManager,
        conf: Optional[Configuration] = None,
        tier_scores: Optional[Dict[TierSpec, float]] = None,
    ) -> None:
        super().__init__(topology, node_manager, conf)
        # Throughput attractiveness comes from each tier's spec (the
        # default3 scores reproduce the paper's calibration exactly).
        self.tier_scores = dict(
            tier_scores
            if tier_scores is not None
            else {t: t.score for t in self.hierarchy}
        )
        conf = self.conf
        self.w_throughput = conf.get_float("placement.weight.throughput", 1.0)
        self.w_data_balance = conf.get_float("placement.weight.data_balance", 0.4)
        self.w_load_balance = conf.get_float("placement.weight.load_balance", 0.3)
        self.w_fault_tolerance = conf.get_float("placement.weight.fault_tolerance", 0.6)
        self.w_locality = conf.get_float("placement.weight.locality", 0.2)
        self._index = _CandidateIndex(self)

    # -- scoring ----------------------------------------------------------
    def _score(
        self,
        node: Node,
        tier: TierSpec,
        size: int,
        used_racks: Set[str],
        used_tiers: Set[TierSpec],
        prefer_node: Optional[str],
    ) -> Optional[float]:
        """Score one candidate: the reference arithmetic.

        Placement itself scores through :class:`_CandidateIndex`, which
        splits this sum into a cached per-cell prefix (throughput, data
        balance, load balance) and a per-replica tail (fault tolerance,
        locality); trace records and tests use this form.
        """
        device = node.best_device_for(tier, size)
        if device is None:
            return None
        throughput = self.tier_scores.get(tier, 0.0)
        data_balance = 1.0 - device.utilization
        load_balance = 1.0 - self.node_manager.load_score(node.node_id)
        fault = 0.0
        if node.rack not in used_racks:
            fault += 0.5
        if tier not in used_tiers:
            fault += 0.5
        locality = (
            1.0 if prefer_node is not None and node.node_id == prefer_node else 0.0
        )
        return (
            self.w_throughput * throughput
            + self.w_data_balance * data_balance
            + self.w_load_balance * load_balance
            + self.w_fault_tolerance * fault
            + self.w_locality * locality
        )

    # -- PlacementPolicy API --------------------------------------------------
    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        """Greedy per replica: the best score on a tier the block lacks, else any."""
        targets: List[PlacementTarget] = []
        used_nodes: Set[str] = set()
        used_racks: Set[str] = set()
        used_tiers: Set[TierSpec] = set()
        tiers = self.hierarchy.tiers
        index = self._index
        index.refresh()
        for i in range(replication):
            prefer = writer_node if i == 0 else None
            # Strict tier-diversity preference: OctopusFS puts the replicas
            # of one block on *different* tiers while space lasts (Sec 3.1),
            # falling back to reusing tiers only when the fresh ones are full.
            fresh = True
            fresh_tiers = [t for t in tiers if t not in used_tiers]
            target = index.best(
                size, fresh_tiers, used_nodes, used_racks, used_tiers, prefer
            )
            if target is None:
                fresh = False
                target = index.best(
                    size, tiers, used_nodes, used_racks, used_tiers, prefer
                )
            if target is None:
                break
            if self.tracer is not None:
                pool = [t for t in self.hierarchy if not fresh or t not in used_tiers]
                self._trace_choice(
                    size, i, target, pool, used_nodes, used_racks, used_tiers, prefer
                )
            targets.append(target)
            used_nodes.add(target.node_id)
            used_racks.add(self.topology.node(target.node_id).rack)
            used_tiers.add(target.tier)
        return targets

    def _trace_choice(
        self,
        size: int,
        replica_index: int,
        chosen: PlacementTarget,
        pool: Sequence[TierSpec],
        used_nodes: Set[str],
        used_racks: Set[str],
        used_tiers: Set[TierSpec],
        prefer: Optional[str],
    ) -> None:
        """Emit one ``placement`` audit record for a chosen replica target.

        Re-scores every live candidate in ``pool`` with :meth:`_score`
        (the reference arithmetic) so the record shows *why* the winner
        won.  Only called when a tracer is installed; the candidate index
        :meth:`place_block` scores from is not touched.
        """
        candidates = []
        for node in self.topology.nodes:
            if not node.alive or node.node_id in used_nodes:
                continue
            for tier in pool:
                if not node.has_tier(tier):
                    continue
                score = self._score(node, tier, size, used_racks, used_tiers, prefer)
                if score is None:
                    continue
                candidates.append(
                    {"node": node.node_id, "tier": tier.name, "score": round(score, 6)}
                )
        candidates.sort(key=lambda c: (-c["score"], c["node"], c["tier"]))
        self.tracer.emit(
            "placement",
            path=self.tracer.file_context,
            bytes=size,
            replica=replica_index,
            chosen={"node": chosen.node_id, "tier": chosen.tier.name},
            candidates=candidates[:8],
        )

    def select_transfer_target(
        self,
        block: BlockInfo,
        from_replica: ReplicaInfo,
        candidate_tiers: Sequence[TierSpec],
    ) -> Optional[PlacementTarget]:
        """Multi-objective choice of where a moved replica should land.

        Same scoring as initial placement, restricted to
        ``candidate_tiers``; the source node gets the locality bonus
        because a same-node move avoids a network transfer.
        """
        excluded = self._nodes_excluded_for(block, from_replica)
        used_racks = {
            self.topology.node(r.node_id).rack
            for r in block.replicas.values()
            if r.replica_id != from_replica.replica_id
        }
        used_tiers = {
            r.tier
            for r in block.replicas.values()
            if r.replica_id != from_replica.replica_id
        }
        self._index.refresh()
        return self._index.best(
            block.size,
            candidate_tiers,
            excluded,
            used_racks,
            used_tiers,
            from_replica.node_id,
        )


class _Cell:
    """One (node, tier) of a :class:`_CandidateIndex`.

    ``device`` is the tier's emptiest device (the first one on ties) and
    ``prefix`` the head of :meth:`OctopusPlacementPolicy._score`'s sum
    for it; ``entry`` is the cell's key in its tier's sorted list.
    """

    def __init__(self, node: Node, tier: TierSpec, throughput_term: float) -> None:
        self.node = node
        self.tier = tier
        self.throughput_term = throughput_term


class _CandidateIndex:
    """The (node, tier) cells of one Octopus policy, sorted by score prefix.

    A cell's prefix is ``(throughput + data balance) + load balance`` of
    :meth:`OctopusPlacementPolicy._score`, with the same products in the
    same order.  Only device allocate/release and a node's transfer
    start/finish move a prefix; they mark cells dirty, and
    :meth:`refresh` recomputes just those.  Each tier keeps its cells in
    one list sorted by ``(-prefix, node_id)``, so :meth:`best` can stop
    a tier's walk at the first cell no later cell could beat.  Weights,
    tier scores and the node set are read once, at construction.
    """

    def __init__(self, policy: "OctopusPlacementPolicy") -> None:
        topology = self._topology = policy.topology
        self._load_score = policy.node_manager.load_score
        self._w_data = policy.w_data_balance
        self._w_load = policy.w_load_balance
        self._w_fault = policy.w_fault_tolerance
        self._local_term = policy.w_locality * 1.0
        self._remote_term = policy.w_locality * 0.0
        # A fallback device is never emptier than the cached one, so its
        # prefix stays under the sort key only if data balance pays.
        self._bounded = self._w_data >= 0.0
        self._racks = {node.rack for node in topology.nodes}
        self._order: Dict[TierSpec, List[tuple]] = {t: [] for t in policy.hierarchy}
        self._node_cells: Dict[str, Dict[TierSpec, _Cell]] = {}
        self._device_cells: Dict[StorageDevice, _Cell] = {}
        for node in topology.nodes:
            cells = self._node_cells[node.node_id] = {}
            for tier, devices in node.tier_devices.items():
                if not devices:
                    continue
                throughput = policy.w_throughput * policy.tier_scores.get(tier, 0.0)
                cell = cells[tier] = _Cell(node, tier, throughput)
                for device in devices:
                    self._device_cells[device] = cell
                self._compute(cell)
                self._order[tier].append(cell.entry)
        for order in self._order.values():
            order.sort()
        self._dirty: Set[_Cell] = set()
        topology.watch_usage(self.device_changed)
        policy.node_manager.watch_load(self.load_changed)

    def device_changed(self, device: StorageDevice) -> None:
        """Mark the cell of ``device`` dirty (an allocate or release)."""
        self._dirty.add(self._device_cells[device])

    def load_changed(self, node_id: str) -> None:
        """Mark every cell of ``node_id`` dirty (a transfer start or finish)."""
        self._dirty.update(self._node_cells[node_id].values())

    def _compute(self, cell: _Cell) -> None:
        """Re-read ``cell``'s emptiest device and load, and rebuild its
        prefix and sort entry (the caller re-files the entry)."""
        node = cell.node
        device = cell.device = node.best_device_for(cell.tier, 0)
        load_term = self._w_load * (1.0 - self._load_score(node.node_id))
        cell.load_term = load_term
        cell.prefix = prefix = (
            cell.throughput_term
            + self._w_data * (1.0 - device.used / device.capacity)
            + load_term
        )
        cell.entry = (-prefix, node.node_id, cell)

    def refresh(self) -> None:
        """Recompute the dirty cells and move them to their sorted places."""
        for cell in self._dirty:
            order = self._order[cell.tier]
            order.remove(cell.entry)
            self._compute(cell)
            insort(order, cell.entry)
        self._dirty.clear()

    def _fit(self, cell: _Cell, size: int) -> tuple:
        """``(device, prefix)`` for ``size`` bytes on ``cell``: the cached
        device and prefix when it fits, else :meth:`Node.best_device_for`'s
        device with its own prefix; ``(None, 0.0)`` if none fits."""
        device = cell.device
        if device.capacity - device.used >= size:
            return device, cell.prefix
        device = cell.node.best_device_for(cell.tier, size)
        if device is None:
            return None, 0.0
        utilization = device.used / device.capacity
        return device, (
            cell.throughput_term + self._w_data * (1.0 - utilization) + cell.load_term
        )

    def best(
        self,
        size: int,
        tiers: Sequence[TierSpec],
        excluded: Set[str],
        used_racks: Set[str],
        used_tiers: Set[TierSpec],
        prefer: Optional[str],
    ) -> Optional[PlacementTarget]:
        """The highest-scoring live, non-excluded cell of ``tiers`` for
        ``size`` bytes, the smallest ``(node_id, tier)`` on ties.

        Equals the argmax of :meth:`OctopusPlacementPolicy._score` over
        the same candidates, given a :meth:`refresh` since the last
        event.  The ``prefer`` node's cells are scored first, with the
        locality bonus.  Then each tier's list is walked in prefix order
        and left once ``(prefix + f_max) + remote`` falls strictly below
        the best score: rounding is monotone, so no later cell can reach
        it, and cells that tie are still visited.  ``f_max`` is the
        largest fault term a node of the tier can earn given which racks
        are used.  A cell whose cached device is too small scores
        :meth:`Node.best_device_for`'s device instead.
        """
        w_fault = self._w_fault
        remote_term = self._remote_term
        bounded = self._bounded
        best_node: Optional[str] = None
        best_tier: Optional[TierSpec] = None
        best_device = None
        best_score = float("-inf")
        prefer_cells = self._node_cells.get(prefer)
        node = self._topology.node(prefer) if prefer_cells else None
        if node is not None and node.alive and prefer not in excluded:
            rack_bonus = 0.0 if node.rack in used_racks else 0.5
            for tier in tiers:
                cell = prefer_cells.get(tier)
                if cell is None:
                    continue
                device, prefix = self._fit(cell, size)
                if device is None:
                    continue
                tier_bonus = 0.0 if tier in used_tiers else 0.5
                fault_term = w_fault * (rack_bonus + tier_bonus)
                score = (prefix + fault_term) + self._local_term
                if score > best_score or (
                    score == best_score
                    and best_node is not None
                    and (prefer, tier) < (best_node, best_tier)
                ):
                    best_node, best_tier, best_device = prefer, tier, device
                    best_score = score

        no_rack_used = used_racks.isdisjoint(self._racks)
        every_rack_used = not no_rack_used and self._racks <= used_racks
        for tier in tiers:
            tier_bonus = 0.0 if tier in used_tiers else 0.5
            new_rack_term = w_fault * (0.5 + tier_bonus)
            used_rack_term = w_fault * (0.0 + tier_bonus)
            if every_rack_used:
                f_max = used_rack_term
            elif no_rack_used:
                f_max = new_rack_term
            else:
                f_max = max(new_rack_term, used_rack_term)
            for _key, node_id, cell in self._order[tier]:
                if bounded and (cell.prefix + f_max) + remote_term < best_score:
                    break
                if node_id in excluded or node_id == prefer:
                    continue
                node = cell.node
                if not node.alive:
                    continue
                device, prefix = self._fit(cell, size)
                if device is None:
                    continue
                if node.rack in used_racks:
                    score = (prefix + used_rack_term) + remote_term
                else:
                    score = (prefix + new_rack_term) + remote_term
                if score > best_score or (
                    score == best_score
                    and best_node is not None
                    and (node_id, tier) < (best_node, best_tier)
                ):
                    best_node, best_tier, best_device = node_id, tier, device
                    best_score = score
        if best_node is None:
            return None
        return PlacementTarget(best_node, best_tier, best_device.device_id)
