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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.hardware import TierSpec
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
        return self.hierarchy.lowest_local

    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
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
            targets.append(
                PlacementTarget(node.node_id, base, device.device_id)
            )
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
        self.w_fault_tolerance = conf.get_float(
            "placement.weight.fault_tolerance", 0.6
        )
        self.w_locality = conf.get_float("placement.weight.locality", 0.2)

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

        Placement itself scores through :meth:`_candidate_rows` and
        :meth:`_pick`, which split this sum into a per-block prefix and
        a per-replica tail; trace records and tests use this form.
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

    def _candidate_rows(
        self,
        size: int,
        tiers: Sequence[TierSpec],
        excluded_nodes: Set[str],
    ) -> List[tuple]:
        """The (node, tier) candidates for one block of ``size`` bytes.

        One ``(node_id, rack, cells)`` row per live, non-excluded node
        with a fitting device, where ``cells`` holds a ``(tier, device,
        prefix)`` entry per tier in ``tiers`` that has one.  ``device``
        is :meth:`Node.best_device_for`'s choice (the emptiest fitting
        device, the first one on ties), made inline with its ``used /
        capacity`` kept for the data-balance term.  ``prefix`` is the
        replica-independent head of :meth:`_score`'s left-to-right sum,
        ``(throughput + data balance) + load balance``, with the same
        products.  Nothing a row depends on changes while one block's
        replicas are chosen, so :meth:`place_block` builds the rows once
        per block.
        """
        rows = []
        w_data = self.w_data_balance
        w_load = self.w_load_balance
        load_scores = self.node_manager.load_score
        tier_terms = [
            (tier, self.w_throughput * self.tier_scores.get(tier, 0.0))
            for tier in tiers
        ]
        for node in self.topology.nodes:
            node_id = node.node_id
            if not node.alive or node_id in excluded_nodes:
                continue
            load_term = w_load * (1.0 - load_scores(node_id))
            tier_devices = node.tier_devices
            cells = []
            for tier, throughput_term in tier_terms:
                device = None
                utilization = 0.0
                for candidate in tier_devices[tier]:
                    used = candidate.used
                    capacity = candidate.capacity
                    if capacity - used >= size:
                        fraction = used / capacity
                        if device is None or fraction < utilization:
                            device = candidate
                            utilization = fraction
                if device is not None:
                    prefix = throughput_term + w_data * (1.0 - utilization) + load_term
                    cells.append((tier, device, prefix))
            if cells:
                rows.append((node_id, node.rack, cells))
        return rows

    def _pick(
        self,
        rows: List[tuple],
        used_nodes: Set[str],
        used_racks: Set[str],
        used_tiers: Set[TierSpec],
        prefer_node: Optional[str],
        fresh_only: bool,
    ) -> Optional[PlacementTarget]:
        """The best candidate for one replica, or None.

        Adds the fault-tolerance and locality terms to each cell's
        prefix in :meth:`_score`'s order and keeps the highest score,
        the smallest ``(node_id, tier)`` on ties.  Nodes in
        ``used_nodes`` are skipped, and with ``fresh_only`` so are tiers
        in ``used_tiers``.
        """
        w_fault = self.w_fault_tolerance
        local_term = self.w_locality * 1.0
        remote_term = self.w_locality * 0.0
        best_node: Optional[str] = None
        best_tier: Optional[TierSpec] = None
        best_device = None
        best_score = float("-inf")
        for node_id, rack, cells in rows:
            if node_id in used_nodes:
                continue
            rack_bonus = 0.0 if rack in used_racks else 0.5
            fresh_term = w_fault * (rack_bonus + 0.5)
            reused_term = w_fault * (rack_bonus + 0.0)
            locality_term = local_term if node_id == prefer_node else remote_term
            for tier, device, prefix in cells:
                if tier in used_tiers:
                    if fresh_only:
                        continue
                    score = prefix + reused_term + locality_term
                else:
                    score = prefix + fresh_term + locality_term
                if score > best_score or (
                    score == best_score
                    and best_node is not None
                    and (node_id, tier) < (best_node, best_tier)
                ):
                    best_node = node_id
                    best_tier = tier
                    best_device = device
                    best_score = score
        if best_node is None:
            return None
        return PlacementTarget(best_node, best_tier, best_device.device_id)

    # -- PlacementPolicy API --------------------------------------------------
    def place_block(
        self,
        size: int,
        replication: int,
        writer_node: Optional[str] = None,
    ) -> List[PlacementTarget]:
        targets: List[PlacementTarget] = []
        used_nodes: Set[str] = set()
        used_racks: Set[str] = set()
        used_tiers: Set[TierSpec] = set()
        rows = self._candidate_rows(size, self.hierarchy.tiers, set())
        for i in range(replication):
            prefer = writer_node if i == 0 else None
            # Strict tier-diversity preference: OctopusFS puts the replicas
            # of one block on *different* tiers while space lasts (Sec 3.1),
            # falling back to reusing tiers only when the fresh ones are full.
            fresh = True
            target = self._pick(rows, used_nodes, used_racks, used_tiers, prefer, True)
            if target is None:
                fresh = False
                target = self._pick(
                    rows, used_nodes, used_racks, used_tiers, prefer, False
                )
            if target is None:
                break
            if self.tracer is not None:
                pool = [
                    t for t in self.hierarchy if not fresh or t not in used_tiers
                ]
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
        won.  Only called when a tracer is installed; the candidate rows
        :meth:`place_block` scores from are not touched.
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
        rows = self._candidate_rows(block.size, candidate_tiers, excluded)
        return self._pick(
            rows, set(), used_racks, used_tiers, from_replica.node_id, False
        )
