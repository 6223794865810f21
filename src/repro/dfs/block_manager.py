"""Block manager: block → replica → (node, tier, device) bookkeeping.

Mirrors the "Block Manager" component of the Master (paper Fig 3).  All
replica creation/removal flows through here so that device capacity
accounting and the metadata maps can never diverge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.hardware import StorageDevice, TierSpec
from repro.cluster.topology import ClusterTopology
from repro.common.errors import ReplicaNotFoundError
from repro.dfs.block import BlockInfo, ReplicaInfo
from repro.dfs.namespace import INodeFile


class BlockManager:
    """Authoritative map of blocks and replicas, with tier/node indexes."""

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology
        self._next_block_id = 0
        self._next_replica_id = 0
        self._blocks: Dict[int, BlockInfo] = {}
        self._file_blocks: Dict[int, List[int]] = {}
        # replica_id -> ReplicaInfo, for O(1) removal
        self._replicas: Dict[int, ReplicaInfo] = {}
        # (node_id, tier) -> replica ids, used by downgrade scans
        self._by_node_tier: Dict[tuple, Set[int]] = {}
        # -- incremental file/tier indexes (hot-path queries in O(1)) --------
        # tier -> inode_id -> replica bytes of that file on that tier
        self._tier_file_bytes: Dict[TierSpec, Dict[int, int]] = {}
        # inode_id -> tier -> number of the file's blocks with >=1 replica
        # on that tier ("covered" blocks; == block count means whole file)
        self._file_tier_blocks: Dict[int, Dict[TierSpec, int]] = {}
        # block_id -> tier -> replica count (drives the coverage index)
        self._block_tier_replicas: Dict[int, Dict[TierSpec, int]] = {}
        # (node_id, tier, device_id) -> device, for O(1) lookups; filled
        # from the topology on first use and again for nodes added later.
        self._devices: Dict[Tuple[str, TierSpec, str], StorageDevice] = {}

    # -- block lifecycle -----------------------------------------------------
    def allocate_block(self, file: INodeFile, index: int, size: int) -> BlockInfo:
        """Create a new (replica-less) block for ``file``."""
        block = BlockInfo(self._next_block_id, file.inode_id, index, size)
        self._next_block_id += 1
        self._blocks[block.block_id] = block
        self._file_blocks.setdefault(file.inode_id, []).append(block.block_id)
        file.block_ids.append(block.block_id)
        return block

    def remove_file_blocks(self, file: INodeFile) -> List[ReplicaInfo]:
        """Drop all blocks of ``file``, releasing replica storage.

        Returns the replicas that were removed (already released).
        """
        removed: List[ReplicaInfo] = []
        for block_id in self._file_blocks.pop(file.inode_id, []):
            block = self._blocks.pop(block_id)
            for replica in list(block.replicas.values()):
                self._release_replica(replica)
                removed.append(replica)
        file.block_ids.clear()
        return removed

    # -- replica lifecycle -------------------------------------------------------
    def add_replica(
        self, block: BlockInfo, node_id: str, tier: TierSpec, device_id: str
    ) -> ReplicaInfo:
        """Record a new replica and charge its space to the device.

        The caller must have picked ``device_id`` via a placement policy;
        this method performs the actual allocation.
        """
        device = self.device(node_id, tier, device_id)
        replica = ReplicaInfo(
            self._next_replica_id, block, node_id, tier, device_id
        )
        self._next_replica_id += 1
        device.allocate(replica.replica_id, block.size)
        block.replicas[replica.replica_id] = replica
        self._replicas[replica.replica_id] = replica
        self._by_node_tier.setdefault((node_id, tier), set()).add(replica.replica_id)
        self._index_add(replica)
        return replica

    def remove_replica(self, replica: ReplicaInfo) -> None:
        """Delete a replica, releasing its device space."""
        if replica.replica_id not in self._replicas:
            raise ReplicaNotFoundError(f"unknown replica {replica.replica_id}")
        self._release_replica(replica)
        replica.block.replicas.pop(replica.replica_id, None)

    def _release_replica(self, replica: ReplicaInfo) -> None:
        device = self.device(replica.node_id, replica.tier, replica.device_id)
        device.release(replica.replica_id, replica.block.size)
        self._replicas.pop(replica.replica_id, None)
        key = (replica.node_id, replica.tier)
        bucket = self._by_node_tier.get(key)
        if bucket is not None:
            bucket.discard(replica.replica_id)
        self._index_remove(replica)

    # -- incremental index maintenance -----------------------------------------
    def _index_add(self, replica: ReplicaInfo) -> None:
        """Charge ``replica`` to the byte and block-coverage indexes."""
        block = replica.block
        tier = replica.tier
        per_tier = self._block_tier_replicas.setdefault(block.block_id, {})
        count = per_tier.get(tier, 0)
        per_tier[tier] = count + 1
        if count == 0:  # block newly covered on this tier
            covered = self._file_tier_blocks.setdefault(block.file_id, {})
            covered[tier] = covered.get(tier, 0) + 1
        bytes_by_file = self._tier_file_bytes.setdefault(tier, {})
        bytes_by_file[block.file_id] = bytes_by_file.get(block.file_id, 0) + block.size

    def _index_remove(self, replica: ReplicaInfo) -> None:
        """Release ``replica`` from the byte and block-coverage indexes."""
        block = replica.block
        tier = replica.tier
        per_tier = self._block_tier_replicas[block.block_id]
        per_tier[tier] -= 1
        if per_tier[tier] == 0:  # block no longer covered on this tier
            del per_tier[tier]
            if not per_tier:
                del self._block_tier_replicas[block.block_id]
            covered = self._file_tier_blocks[block.file_id]
            covered[tier] -= 1
            if covered[tier] == 0:
                del covered[tier]
                if not covered:
                    del self._file_tier_blocks[block.file_id]
        bytes_by_file = self._tier_file_bytes[tier]
        remaining = bytes_by_file[block.file_id] - block.size
        if remaining:
            bytes_by_file[block.file_id] = remaining
        else:
            del bytes_by_file[block.file_id]

    # -- queries ---------------------------------------------------------------
    def device(self, node_id: str, tier: TierSpec, device_id: str) -> StorageDevice:
        """The device ``device_id`` of ``node_id``'s ``tier``, in O(1).

        Raises :class:`ReplicaNotFoundError` when ``(node_id, tier)`` has
        no such device.
        """
        key = (node_id, tier, device_id)
        device = self._devices.get(key)
        if device is None:
            for node in self._topology.nodes:
                for candidate in node.devices():
                    self._devices[
                        (node.node_id, candidate.tier, candidate.device_id)
                    ] = candidate
            device = self._devices.get(key)
            if device is None:
                raise ReplicaNotFoundError(
                    f"no device {device_id!r} on node {node_id!r} tier {tier.name}"
                )
        return device

    def block(self, block_id: int) -> BlockInfo:
        """The block ``block_id`` (``KeyError`` if unknown)."""
        return self._blocks[block_id]

    def has_block(self, block_id: int) -> bool:
        """True while ``block_id`` belongs to a live file."""
        return block_id in self._blocks

    def blocks_of(self, file: INodeFile) -> List[BlockInfo]:
        """The blocks of ``file`` in file order."""
        return [self._blocks[bid] for bid in self._file_blocks.get(file.inode_id, [])]

    def replica(self, replica_id: int) -> ReplicaInfo:
        """The replica ``replica_id``; raises :class:`ReplicaNotFoundError`."""
        if replica_id not in self._replicas:
            raise ReplicaNotFoundError(f"unknown replica {replica_id}")
        return self._replicas[replica_id]

    def replicas_on(self, node_id: str, tier: TierSpec) -> List[ReplicaInfo]:
        """The replicas ``node_id`` stores on ``tier`` (its block report)."""
        ids = self._by_node_tier.get((node_id, tier), set())
        return [self._replicas[rid] for rid in ids]

    def block_count(self) -> int:
        """Blocks of all live files."""
        return len(self._blocks)

    def replica_count(self) -> int:
        """Replicas over all blocks."""
        return len(self._replicas)

    # -- file-level tier queries (all-or-nothing semantics, Sec 3.2) --------------
    def file_tiers(self, file: INodeFile) -> Set[TierSpec]:
        """Tiers on which *every* block of the file has a replica.

        The paper's policies act at file granularity because performance
        gains require the whole file in a higher tier ("all-or-nothing",
        PACMan).  A zero-block file reports no tiers.
        """
        nblocks = len(self._file_blocks.get(file.inode_id, ()))
        if nblocks == 0:
            return set()
        covered = self._file_tier_blocks.get(file.inode_id)
        if not covered:
            return set()
        return {tier for tier, count in covered.items() if count == nblocks}

    def file_best_tier(self, file: INodeFile) -> Optional[TierSpec]:
        """Fastest tier holding the complete file, or None."""
        nblocks = len(self._file_blocks.get(file.inode_id, ()))
        if nblocks == 0:
            return None
        covered = self._file_tier_blocks.get(file.inode_id)
        if not covered:
            return None
        best: Optional[TierSpec] = None
        for tier, count in covered.items():
            if count == nblocks and (best is None or tier < best):
                best = tier
        return best

    def file_has_tier(self, file: INodeFile, tier: TierSpec) -> bool:
        """True when every block of ``file`` has a replica on ``tier``."""
        nblocks = len(self._file_blocks.get(file.inode_id, ()))
        if nblocks == 0:
            return False
        covered = self._file_tier_blocks.get(file.inode_id)
        return covered is not None and covered.get(tier, 0) == nblocks

    def file_has_tier_or_better(self, file: INodeFile, tier: TierSpec) -> bool:
        """True when ``file`` is complete on ``tier`` or a faster tier."""
        best = self.file_best_tier(file)
        return best is not None and best <= tier

    def file_bytes_on_tier(self, file: INodeFile, tier: TierSpec) -> int:
        """Total replica bytes of ``file`` stored on ``tier`` (O(1))."""
        bytes_by_file = self._tier_file_bytes.get(tier)
        if not bytes_by_file:
            return 0
        return bytes_by_file.get(file.inode_id, 0)

    def tier_file_bytes(self, tier: TierSpec) -> Dict[int, int]:
        """inode_id -> replica bytes on ``tier`` (live index; read-only)."""
        return self._tier_file_bytes.get(tier, {})
