"""The DFS Master: namespace + block manager + node manager + placement.

The Master performs all metadata operations, drives block placement on
file creation, records file accesses, selects replicas for reads, and
exposes the two-phase transfer API the Replication Monitor uses to move
or copy replicas between tiers (paper Fig 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Set

from repro.cluster.hardware import TierHierarchy, TierSpec
from repro.cluster.topology import ClusterTopology
from repro.common.config import Configuration
from repro.common.errors import InsufficientSpaceError, InvalidPathError
from repro.common.units import MB
from repro.dfs.block import BlockInfo, ReplicaInfo, split_into_block_sizes
from repro.dfs.block_manager import BlockManager
from repro.dfs.listeners import FileSystemListener
from repro.dfs.namespace import FSDirectory, INodeFile
from repro.dfs.placement import PlacementPolicy, PlacementTarget
from repro.sim.clock import Clock


class FileAccess(NamedTuple):
    """One recorded file access: the file and whether the *whole file*
    had a memory replica at access time (the "based on memory
    locations" metric of Fig 9)."""

    file: INodeFile
    memory_location: bool


class BlockRead(NamedTuple):
    """The replica chosen to serve one block of a read."""

    block: BlockInfo
    replica: ReplicaInfo
    distance: int
    local: bool


@dataclass
class ReadPlan:
    """Which replica serves each block of a file read.

    ``memory_location`` records whether the *whole file* had a memory
    replica at access time (the "based on memory locations" metric of
    Fig 9); the per-block ``BlockRead`` tiers give the "based on memory
    accesses" metric.
    """

    file: INodeFile
    reads: List[BlockRead] = field(default_factory=list)
    memory_location: bool = False

    @property
    def total_bytes(self) -> int:
        """Bytes over all planned blocks."""
        return sum(r.block.size for r in self.reads)

    def bytes_by_tier(self) -> Dict[TierSpec, int]:
        """Planned bytes per tier of the serving replica."""
        if not self.reads:
            return {}
        hierarchy = self.reads[0].replica.tier.hierarchy
        result = {tier: 0 for tier in hierarchy}
        for read in self.reads:
            result[read.replica.tier] += read.block.size
        return result


@dataclass
class TransferTicket:
    """An in-flight replica move/copy with space reserved at the target."""

    token: int
    block: BlockInfo
    source: Optional[ReplicaInfo]
    target: PlacementTarget
    committed: bool = False
    aborted: bool = False


class Master:
    """Coordinates namespace, blocks, placement, and tier transfers."""

    #: Optional decision tracer (:class:`repro.obs.trace.Tracer`),
    #: installed by the runner when ``obs.trace`` is set; ``None`` keeps
    #: namespace operations untraced and bit-identical.
    tracer = None

    def __init__(
        self,
        topology: ClusterTopology,
        placement: PlacementPolicy,
        clock: Clock,
        conf: Optional[Configuration] = None,
    ) -> None:
        self.topology = topology
        self.clock = clock
        self.conf = conf if conf is not None else Configuration()
        #: The cluster's tier hierarchy (shared with topology/placement).
        self.hierarchy: TierHierarchy = topology.hierarchy
        self.fs = FSDirectory()
        self.node_manager = placement.node_manager
        self.blocks = BlockManager(topology)
        self.placement = placement
        self.block_size = self.conf.get_bytes("dfs.block_size", 128 * MB)
        self.default_replication = self.conf.get_int("dfs.replication", 3)
        self._listeners: List[FileSystemListener] = []
        self._ticket_tokens = itertools.count(start=1)
        self._open_tickets: Dict[int, TransferTicket] = {}
        self._files_by_id: Dict[int, INodeFile] = {}

    # -- listeners ---------------------------------------------------------
    def add_listener(self, listener: FileSystemListener) -> None:
        """Register ``listener`` for namespace and data callbacks."""
        self._listeners.append(listener)

    def _notify(self, method: str, *args) -> None:
        for listener in self._listeners:
            getattr(listener, method)(*args)

    # -- namespace passthroughs -----------------------------------------------
    def exists(self, path: str) -> bool:
        """True if a file or directory is at ``path``."""
        return self.fs.exists(path)

    def get_file(self, path: str) -> INodeFile:
        """The file at ``path``; raises if missing or a directory."""
        return self.fs.get_file(path)

    def get_file_by_id(self, inode_id: int) -> INodeFile:
        """The live file with inode id ``inode_id``."""
        return self._files_by_id[inode_id]

    def files_by_id(self) -> Mapping[int, INodeFile]:
        """inode id -> file for every file in the namespace (live; read-only)."""
        return self._files_by_id

    def mkdirs(self, path: str) -> None:
        """Create a directory and any missing ancestors."""
        self.fs.mkdirs(path, creation_time=self.clock.now())

    # -- file creation ------------------------------------------------------------
    def create_file(
        self,
        path: str,
        size: int,
        replication: Optional[int] = None,
        writer_node: Optional[str] = None,
    ) -> INodeFile:
        """Create a file of ``size`` bytes and place all its replicas.

        Placement degrades gracefully under space pressure (fewer
        replicas), but raises :class:`InsufficientSpaceError` if even a
        single replica of some block cannot be placed.
        """
        replication = replication or self.default_replication
        file = self.fs.create_file(
            path, creation_time=self.clock.now(), size=size, replication=replication
        )
        tiers_touched: Set[TierSpec] = set()
        tracer = self.tracer
        if tracer is not None:
            # Placement policies never see paths; the context lets their
            # per-candidate score records carry the file being placed.
            tracer.file_context = path
        try:
            for index, block_size in enumerate(
                split_into_block_sizes(size, self.block_size)
            ):
                block = self.blocks.allocate_block(file, index, block_size)
                targets = self.placement.place_block(
                    block_size, replication, writer_node
                )
                if not targets:
                    raise InsufficientSpaceError(
                        f"no space for block {block.block_id} of {path!r}"
                    )
                for target in targets:
                    self.blocks.add_replica(
                        block, target.node_id, target.tier, target.device_id
                    )
                    self.node_manager.record_write(
                        target.node_id, target.tier, block_size
                    )
                    tiers_touched.add(target.tier)
        except InsufficientSpaceError:
            # Roll back the partial file so namespace and devices agree.
            self.blocks.remove_file_blocks(file)
            self.fs.delete(path)
            if tracer is not None:
                tracer.file_context = None
            raise
        if tracer is not None:
            tracer.file_context = None
            tracer.emit(
                "file_create",
                path=path,
                bytes=size,
                replication=replication,
                tiers=sorted(t.name for t in tiers_touched),
            )
        self._files_by_id[file.inode_id] = file
        self._notify("on_file_created", file)
        for tier in sorted(tiers_touched):
            self._notify("on_data_added", tier)
        return file

    # -- reads ---------------------------------------------------------------------
    def read_file(self, path: str) -> FileAccess:
        """Record an access to ``path`` and return the file-level result.

        Listeners see ``on_file_accessed`` *before* any replica is chosen
        (upgrades are decided before the read, Sec 6), but replica
        selection still sees the pre-upgrade locations because transfers
        are asynchronous.  Callers that read blocks choose each replica
        themselves (the scheduler does so per map task) or ask
        :meth:`plan_read` for the whole plan.
        """
        file = self.fs.get_file(path)
        memory_location = self.blocks.file_has_tier(file, self.hierarchy.highest)
        self._notify("on_file_accessed", file)
        return FileAccess(file, memory_location)

    def plan_read(self, path: str, reader_node: Optional[str] = None) -> ReadPlan:
        """:meth:`read_file` plus the replica that serves each block.

        Each chosen replica's bytes are recorded as read from its node
        and tier (:meth:`~repro.dfs.node_manager.NodeManager.record_read`).
        """
        file, memory_location = self.read_file(path)
        plan = ReadPlan(file=file, memory_location=memory_location)
        record_read = self.node_manager.record_read
        for block in self.blocks.blocks_of(file):
            read = self.choose_replica(block, reader_node)
            plan.reads.append(read)
            record_read(read.replica.node_id, read.replica.tier, block.size)
        return plan

    def choose_replica(self, block: BlockInfo, reader_node: Optional[str]) -> BlockRead:
        """Pick the replica a reader on ``reader_node`` should use.

        HDFS semantics: network distance first (local replicas beat
        remote ones), then tier speed among equals: the smallest
        ``(distance, tier.level, replica_id)``, found in one pass.
        Racks come from the topology's node-to-rack table
        (``ClusterTopology.rack_names``).  Without a known reader,
        the smallest ``(tier.level, load_score, replica_id)`` wins.
        """
        replicas = block.replicas
        if not replicas:
            raise InvalidPathError(f"block {block.block_id} has no replicas")
        rack_names = self.topology.rack_names
        reader_rack = rack_names.get(reader_node)
        if reader_rack is not None:
            chosen = None
            best = None
            for replica in replicas.values():
                node_id = replica.node_id
                if node_id == reader_node:
                    distance = ClusterTopology.SAME_NODE
                elif rack_names[node_id] == reader_rack:
                    distance = ClusterTopology.SAME_RACK
                else:
                    distance = ClusterTopology.OFF_RACK
                key = (distance, replica.tier.level, replica.replica_id)
                if best is None or key < best:
                    chosen = replica
                    best = key
            return BlockRead(
                block, chosen, best[0], best[0] == ClusterTopology.SAME_NODE
            )
        # No reader context: serve from the fastest tier, least-loaded node.
        load_score = self.node_manager.load_score
        chosen = min(
            replicas.values(),
            key=lambda r: (r.tier.level, load_score(r.node_id), r.replica_id),
        )
        return BlockRead(block, chosen, ClusterTopology.OFF_RACK, False)

    # -- appends --------------------------------------------------------------------
    def append_file(
        self,
        path: str,
        additional_bytes: int,
        writer_node: Optional[str] = None,
    ) -> INodeFile:
        """Append data to an existing file (new blocks, placed as usual).

        Simplification vs HDFS: appends always open new blocks rather
        than filling the last partial one; block counts stay exact and
        the tiering callbacks (``on_file_modified`` + ``on_data_added``)
        fire the same way.
        """
        if additional_bytes <= 0:
            raise InvalidPathError("append size must be positive")
        file = self.fs.get_file(path)
        start_index = len(file.block_ids)
        tiers_touched: Set[TierSpec] = set()
        tracer = self.tracer
        if tracer is not None:
            tracer.file_context = path
        for offset, block_size in enumerate(
            split_into_block_sizes(additional_bytes, self.block_size)
        ):
            block = self.blocks.allocate_block(file, start_index + offset, block_size)
            targets = self.placement.place_block(
                block_size, file.replication, writer_node
            )
            if not targets:
                raise InsufficientSpaceError(f"no space appending block to {path!r}")
            for target in targets:
                self.blocks.add_replica(
                    block, target.node_id, target.tier, target.device_id
                )
                self.node_manager.record_write(target.node_id, target.tier, block_size)
                tiers_touched.add(target.tier)
        file.size += additional_bytes
        file.modification_time = self.clock.now()
        if tracer is not None:
            tracer.file_context = None
        self._notify("on_file_modified", file)
        for tier in sorted(tiers_touched):
            self._notify("on_data_added", tier)
        return file

    # -- deletion -------------------------------------------------------------------
    def delete_file(self, path: str) -> None:
        """Remove a file: blocks, replicas, then the namespace entry."""
        file = self.fs.get_file(path)
        if self.tracer is not None:
            self.tracer.emit("file_delete", path=path, bytes=file.size)
        self.blocks.remove_file_blocks(file)
        self._files_by_id.pop(file.inode_id, None)
        # Notify while the inode is still linked so ``file.path`` is
        # meaningful to listeners; replicas are already released.
        self._notify("on_file_deleted", file)
        self.fs.delete(path)

    # -- two-phase replica transfers (used by the Replication Monitor) ----------------
    def begin_transfer(
        self,
        block: BlockInfo,
        source: Optional[ReplicaInfo],
        target: PlacementTarget,
    ) -> TransferTicket:
        """Reserve target space for a replica move (source != None) or copy.

        Raises :class:`InsufficientSpaceError` if the target device is
        full — callers should pick another target or give up.
        """
        device = self.blocks.device(target.node_id, target.tier, target.device_id)
        token = next(self._ticket_tokens)
        # Pending reservations use negative ids so they can never collide
        # with real replica ids.
        device.allocate(-token, block.size)
        ticket = TransferTicket(token=token, block=block, source=source, target=target)
        self._open_tickets[token] = ticket
        self.node_manager.transfer_started(target.node_id)
        if source is not None:
            self.node_manager.transfer_started(source.node_id)
        return ticket

    def commit_transfer(self, ticket: TransferTicket) -> ReplicaInfo:
        """Finish a transfer: materialize the new replica, drop the source."""
        self._close_ticket(ticket)
        ticket.committed = True
        target = ticket.target
        device = self.blocks.device(target.node_id, target.tier, target.device_id)
        device.release(-ticket.token, ticket.block.size)
        replica = self.blocks.add_replica(
            ticket.block,
            ticket.target.node_id,
            ticket.target.tier,
            ticket.target.device_id,
        )
        self.node_manager.record_write(
            ticket.target.node_id, ticket.target.tier, ticket.block.size
        )
        if ticket.source is not None:
            # The source may have been deleted concurrently (file removal).
            if ticket.source.replica_id in ticket.block.replicas:
                self.blocks.remove_replica(ticket.source)
        self._notify("on_data_added", ticket.target.tier)
        return replica

    def abort_transfer(self, ticket: TransferTicket) -> None:
        """Cancel a transfer, releasing the target-space reservation."""
        self._close_ticket(ticket)
        ticket.aborted = True
        target = ticket.target
        device = self.blocks.device(target.node_id, target.tier, target.device_id)
        device.release(-ticket.token, ticket.block.size)

    def _close_ticket(self, ticket: TransferTicket) -> None:
        if ticket.committed or ticket.aborted:
            raise InvalidPathError("ticket already closed")
        self._open_tickets.pop(ticket.token, None)
        self.node_manager.transfer_finished(ticket.target.node_id)
        if ticket.source is not None:
            self.node_manager.transfer_finished(ticket.source.node_id)

    def delete_replica(self, replica: ReplicaInfo) -> None:
        """Drop a single replica (downgrade-by-deletion, Definition 1)."""
        self.blocks.remove_replica(replica)

    # -- failure handling ---------------------------------------------------------------
    def decommission_node(self, node_id: str) -> int:
        """Drop every replica stored on ``node_id`` (simulated node loss).

        Returns the number of replicas lost; the Replication Monitor's
        health scan re-replicates the affected blocks.
        """
        lost = 0
        for tier in self.hierarchy:
            for replica in list(self.blocks.replicas_on(node_id, tier)):
                self.blocks.remove_replica(replica)
                lost += 1
        return lost

    # -- capacity ------------------------------------------------------------------------
    def tier_utilization(self, tier: TierSpec) -> float:
        """Used fraction of ``tier``'s capacity."""
        return self.topology.tier_utilization(tier)

    def tier_used(self, tier: TierSpec) -> int:
        """Bytes stored on ``tier``."""
        return self.topology.tier_used(tier)

    def tier_capacity(self, tier: TierSpec) -> int:
        """Total capacity of ``tier``."""
        return self.topology.tier_capacity(tier)

    def files(self) -> List[INodeFile]:
        """All files in namespace-walk order (cached; treat as read-only)."""
        return self.fs.all_files()

    def open_ticket_count(self) -> int:
        """Transfers begun and not yet committed or aborted."""
        return len(self._open_tickets)
