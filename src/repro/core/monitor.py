"""The Replication Monitor: executes tier transfers asynchronously.

Responsibilities (paper Sec 3.3, Fig 3):

* serve downgrade/upgrade requests from the Replication Manager by
  timing block transfers through the run's I/O model (reads from the
  source medium, writes to the destination, capped by the network for
  cross-node moves);
* keep *pending* accounting so proactive policies see effective tier
  utilization (bytes scheduled to leave a tier no longer count against
  it) and never select a file whose movement is already in flight;
* periodically scan for under-/over-replicated blocks and repair them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cluster.hardware import TierSpec, transfer_seconds
from repro.common.config import Configuration
from repro.dfs.block import BlockInfo, ReplicaInfo
from repro.dfs.master import Master
from repro.dfs.namespace import INodeFile
from repro.dfs.placement import PlacementPolicy
from repro.core.policy import DowngradeAction
from repro.sim.simulator import PeriodicTimer, Simulator

if TYPE_CHECKING:  # imported lazily to avoid a core <-> engine cycle
    from repro.engine.iomodel import IoModel


class ReplicationMonitor:
    """Executes and accounts replica movement.

    Every kind of transfer (downgrade, upgrade, cache copy, repair) runs
    one begin/land pair, :meth:`_transfer`, whose one completion closure
    commits or aborts: every ``migration_start`` ends in exactly one
    ``migration_commit`` or ``migration_abort``.
    """

    #: Optional decision tracer (:class:`repro.obs.trace.Tracer`),
    #: installed by the runner when ``obs.trace`` is set; ``None`` keeps
    #: transfer scheduling free of any tracing work.
    tracer = None

    def __init__(
        self,
        master: Master,
        sim: Simulator,
        placement: PlacementPolicy,
        conf: Optional[Configuration] = None,
        iomodel: Optional["IoModel"] = None,
    ) -> None:
        self.master = master
        self.sim = sim
        self.placement = placement
        self.conf = conf if conf is not None else Configuration()
        if iomodel is None:
            # Imported here: a module-level import of the engine would
            # close the core <-> engine import cycle.
            from repro.engine.iomodel import IoModel

            iomodel = IoModel(master.topology, sim, conf=self.conf)
        #: Times every transfer (see IoModel.transfer).
        self.iomodel = iomodel
        # Cache semantics (the AutoCache mode, Sec 3.3): memory replicas
        # are cache copies *on top of* the persistent replication factor,
        # so replication-health accounting must not count them.
        self.cache_mode = self.conf.get_bool("manager.cache_mode", False)
        self.hierarchy = master.hierarchy
        # Pending byte counts per tier (scheduled but uncommitted).
        self.pending_out: Dict[TierSpec, int] = {t: 0 for t in self.hierarchy}
        self.pending_in: Dict[TierSpec, int] = {t: 0 for t in self.hierarchy}
        # inode id -> number of outstanding transfers for that file.
        self._in_flight: Dict[int, int] = {}
        self._in_flight_blocks: Set[int] = set()
        # Cumulative counters (consumed by experiment metrics).
        self.bytes_downgraded: Dict[TierSpec, int] = {t: 0 for t in self.hierarchy}
        self.bytes_upgraded: Dict[TierSpec, int] = {t: 0 for t in self.hierarchy}
        self.bytes_deleted: Dict[TierSpec, int] = {t: 0 for t in self.hierarchy}
        self.transfers_committed = 0
        self.transfers_aborted = 0
        self.replicas_repaired = 0
        #: Transfer-delay accounting: ideal = standalone transfer time,
        #: realized = simulated time actually taken (they differ only
        #: under the fair-share model).
        self.transfer_ideal_seconds = 0.0
        self.transfer_realized_seconds = 0.0
        self._health_timer: Optional[PeriodicTimer] = None
        if self.conf.get_bool("monitor.health_checks_enabled", False):
            interval = self.conf.get_duration("monitor.health_interval", 30.0)
            self._health_timer = PeriodicTimer(
                sim, interval, self.health_scan, name="health-scan"
            )

    # -- views used by policies ---------------------------------------------
    def in_flight_files(self) -> Set[int]:
        """Inode ids of files with a downgrade, upgrade or cache copy in
        flight (policies skip them; repairs do not mark their file)."""
        return set(self._in_flight)

    @property
    def pending_transfers(self) -> int:
        """Number of block transfers currently in flight."""
        return len(self._in_flight_blocks)

    def assert_idle(self) -> None:
        """Raise unless all transfer accounting has drained to zero.

        Complements ``Simulator.pending == 0``: a quiescent simulator
        with transfers still marked in flight means a completion
        callback was lost and pending-byte accounting is permanently
        skewed.
        """
        if self._in_flight or self._in_flight_blocks:
            raise RuntimeError(
                f"transfers leaked: files={sorted(self._in_flight)[:5]} "
                f"blocks={sorted(self._in_flight_blocks)[:5]}"
            )
        skewed = {
            t.name: n
            for counts in (self.pending_in, self.pending_out)
            for t, n in counts.items()
            if n != 0
        }
        if skewed:
            raise RuntimeError(f"pending byte accounting skewed: {skewed}")

    def effective_utilization(self, tier: TierSpec) -> float:
        """Tier utilization net of bytes already scheduled to leave it."""
        capacity = self.master.tier_capacity(tier)
        if capacity == 0:
            return 1.0
        used = self.master.tier_used(tier) - self.pending_out[tier]
        return max(used, 0) / capacity

    # -- downgrade execution ------------------------------------------------------
    def submit_downgrade(
        self,
        file: INodeFile,
        from_tier: TierSpec,
        action: DowngradeAction,
    ) -> int:
        """Schedule moving (or deleting) ``file``'s replicas off ``from_tier``.

        Returns the number of bytes scheduled/freed; 0 means the file
        could not be downgraded (caller should pick another file).
        """
        scheduled = 0
        for block in self.master.blocks.blocks_of(file):
            replicas = block.replicas_on_tier(from_tier)
            if not replicas:
                continue
            replica = replicas[0]
            if action is DowngradeAction.DELETE:
                scheduled += self._delete_replica_if_safe(replica, from_tier)
                continue
            target = self.placement.select_transfer_target(
                block, replica, from_tier.lower_tiers()
            )
            if target is None:
                # No room anywhere below: fall back to deletion
                # (Definition 1 allows it) when the block stays available.
                scheduled += self._delete_replica_if_safe(replica, from_tier)
                continue
            scheduled += self._transfer("downgrade", file, block, replica, target)
        return scheduled

    def _delete_replica_if_safe(self, replica: ReplicaInfo, tier: TierSpec) -> int:
        if replica.block.replica_count <= 1:
            return 0
        size = replica.size
        if self.tracer is not None:
            # Capture identity before deletion invalidates the replica.
            self.tracer.emit(
                "eviction",
                block=replica.block.block_id,
                tier=tier.name,
                node=replica.node_id,
                bytes=size,
            )
        self.master.delete_replica(replica)
        self.bytes_deleted[tier] += size
        return size

    # -- upgrade execution ------------------------------------------------------------
    def submit_upgrade(
        self,
        file: INodeFile,
        candidate_tiers: List[TierSpec],
        copy: bool = False,
    ) -> int:
        """Schedule one replica of each block up to a faster tier.

        For each block, the first candidate tier that is strictly faster
        than the block's current best *and* has room is used.  With
        ``copy=False`` (tiering, Definition 2(i)) the source replica is
        moved; with ``copy=True`` (caching, Definition 2(ii)) a *new*
        replica is created and the source stays.  Returns scheduled
        bytes (0 = nothing to do / no space).
        """
        scheduled = 0
        for block in self.master.blocks.blocks_of(file):
            if block.block_id in self._in_flight_blocks:
                continue
            best = block.best_tier()
            if best is None:
                continue
            sources = block.replicas_on_tier(max(block.tiers()))
            source = sources[0]
            for tier in candidate_tiers:
                if tier >= best:
                    continue  # not an upgrade for this block
                if copy:
                    target = self.placement.select_cache_target(block, tier)
                    if target is None:
                        continue
                    scheduled += self._transfer("cache", file, block, source, target)
                else:
                    target = self.placement.select_transfer_target(
                        block, source, [tier]
                    )
                    if target is None:
                        continue
                    scheduled += self._transfer("upgrade", file, block, source, target)
                break
        return scheduled

    # -- the one transfer lifecycle ----------------------------------------------------
    def _transfer(
        self,
        kind: str,
        file: INodeFile,
        block: BlockInfo,
        source: ReplicaInfo,
        target,
    ) -> int:
        """Begin copying ``block`` from ``source`` to ``target``; land it later.

        ``kind`` is ``downgrade`` or ``upgrade`` (a move: the source
        replica is dropped at commit), ``cache`` or ``repair`` (a copy:
        it stays).  Until the transfer lands its bytes are pending: a
        downgrade's leave the source tier (``pending_out``), an
        upgrade's and a cache copy's enter the target tier
        (``pending_in``), and the file is in flight.  A repair books no
        pending bytes and leaves its file selectable.  The I/O model
        times the copy (see
        :meth:`repro.engine.iomodel.IoModel.transfer`); the ideal is its
        standalone duration at the I/O model's network bandwidth, so
        realized >= ideal holds under both pricing models.  Returns the
        bytes scheduled.
        """
        moves = kind == "downgrade" or kind == "upgrade"
        ticket = self.master.begin_transfer(block, source if moves else None, target)
        size = block.size
        block_id = block.block_id
        inode_id = file.inode_id
        pending = tier = moved = None
        if kind == "downgrade":
            pending, tier, moved = self.pending_out, source.tier, self.bytes_downgraded
        elif kind != "repair":
            pending, tier, moved = self.pending_in, target.tier, self.bytes_upgraded
        if pending is not None:
            pending[tier] += size
            self._in_flight[inode_id] = self._in_flight.get(inode_id, 0) + 1
        self._in_flight_blocks.add(block_id)
        if self.tracer is not None:
            self.tracer.emit(
                "migration_start",
                kind=kind,
                block=block_id,
                path=file.path,
                bytes=size,
                src={"node": source.node_id, "tier": source.tier.name},
                dst={"node": target.node_id, "tier": target.tier.name},
            )
        ideal = transfer_seconds(
            size,
            source.tier,
            target.tier,
            source.node_id != target.node_id,
            self.iomodel.network_bandwidth,
        )
        started = self.sim.now()

        def land() -> None:
            # Both sides accrue together at completion, so transfers
            # still in flight when a run ends skew neither and the
            # realized-minus-ideal delay never goes negative.
            self.transfer_ideal_seconds += ideal
            self.transfer_realized_seconds += self.sim.now() - started
            # Undo the bookkeeping before committing: commit_transfer
            # fires on_data_added, which re-enters the downgrade loop and
            # reads pending bytes and in-flight files.
            if pending is not None:
                pending[tier] -= size
                remaining = self._in_flight[inode_id] - 1
                if remaining:
                    self._in_flight[inode_id] = remaining
                else:
                    del self._in_flight[inode_id]
            self._in_flight_blocks.discard(block_id)
            # The file may have been deleted while the transfer was in flight.
            if not self.master.blocks.has_block(block_id):
                self.master.abort_transfer(ticket)
                self.transfers_aborted += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "migration_abort", kind=kind, block=block_id, bytes=size
                    )
                return
            self.master.commit_transfer(ticket)
            self.transfers_committed += 1
            if moved is None:
                self.replicas_repaired += 1
            else:
                moved[tier] += size
            if self.tracer is not None:
                self.tracer.emit(
                    "migration_commit",
                    kind=kind,
                    block=block_id,
                    path=file.path,
                    bytes=size,
                    tier=target.tier.name,
                )

        self.iomodel.transfer(
            size,
            source.device_id,
            source.node_id,
            target.device_id,
            target.node_id,
            on_complete=land,
            name=f"{'move' if moves else kind}-b{block_id}",
        )
        return size

    # -- replication health (under/over-replicated blocks) ------------------------------
    def _persistent_count(self, block: BlockInfo) -> int:
        """Replicas that count against the replication factor.

        In cache mode, memory replicas are cache copies and are exempt.
        """
        count = block.replica_count
        if self.cache_mode:
            count -= len(block.replicas_on_tier(self.hierarchy.highest))
        return count

    def health_scan(self) -> None:
        """Repair replica counts drifted away from the replication factor."""
        for file in self.master.files():
            for block in self.master.blocks.blocks_of(file):
                if block.block_id in self._in_flight_blocks:
                    continue
                if block.replica_count == 0:
                    continue  # data lost; nothing to copy from
                persistent = self._persistent_count(block)
                if persistent < file.replication:
                    self._repair_under_replicated(file, block)
                elif persistent > file.replication:
                    self._trim_over_replicated(block)

    def _repair_under_replicated(self, file: INodeFile, block: BlockInfo) -> None:
        # Read from the fastest replica; place the copy anywhere suitable
        # (fast tiers first, though usually only HDD has room).  In cache
        # mode only persistent tiers restore the replication factor.
        source = block.replicas_on_tier(block.best_tier())[0]
        tiers = [t for t in self.hierarchy if not (self.cache_mode and t.is_highest)]
        target = self.placement.select_copy_target(block, tiers)
        if target is None:
            return
        self._transfer("repair", file, block, source, target)

    def _trim_over_replicated(self, block: BlockInfo) -> None:
        # Drop the slowest extra replica; ties broken by replica id.  In
        # cache mode only persistent replicas are candidates for trimming.
        candidates = block.replica_list()
        if self.cache_mode:
            candidates = [r for r in candidates if not r.tier.is_highest]
        extras = sorted(candidates, key=lambda r: (-r.tier.level, r.replica_id))
        replication = self.master.get_file_by_id(block.file_id).replication
        excess = self._persistent_count(block) - replication
        for replica in extras[:excess]:
            self.master.delete_replica(replica)

    def stop(self) -> None:
        """Cancel periodic activity (end of experiment)."""
        if self._health_timer is not None:
            self._health_timer.stop()
