"""File blocks and their replicas.

A file is split into fixed-size blocks (128MB by default, HDFS
convention); each block has one or more replicas, each living on a
specific (node, tier, device).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.hardware import TierSpec


class ReplicaInfo:
    """One physical copy of a block on a specific device."""

    __slots__ = ("replica_id", "block", "node_id", "tier", "device_id")

    def __init__(
        self,
        replica_id: int,
        block: "BlockInfo",
        node_id: str,
        tier: TierSpec,
        device_id: str,
    ) -> None:
        self.replica_id = replica_id
        self.block = block
        self.node_id = node_id
        self.tier = tier
        self.device_id = device_id

    @property
    def size(self) -> int:
        """Bytes of the block this replica copies."""
        return self.block.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica({self.replica_id}, block={self.block.block_id}, "
            f"{self.node_id}/{self.tier.name})"
        )


class BlockInfo:
    """Metadata for one block of a file."""

    __slots__ = ("block_id", "file_id", "index", "size", "replicas")

    def __init__(self, block_id: int, file_id: int, index: int, size: int) -> None:
        if size <= 0:
            raise ValueError("block size must be positive")
        self.block_id = block_id
        self.file_id = file_id
        self.index = index
        self.size = size
        self.replicas: Dict[int, ReplicaInfo] = {}

    # -- replica queries -----------------------------------------------------
    @property
    def replica_count(self) -> int:
        """Number of live replicas of this block."""
        return len(self.replicas)

    def replica_list(self) -> List[ReplicaInfo]:
        """The replicas in the order they were added."""
        return list(self.replicas.values())

    def tiers(self) -> List[TierSpec]:
        """Distinct tiers holding a replica, fastest first."""
        return sorted({r.tier for r in self.replicas.values()})

    def best_tier(self) -> Optional[TierSpec]:
        """The fastest tier holding a replica, or None if no replicas."""
        tiers = self.tiers()
        return tiers[0] if tiers else None

    def nodes(self) -> List[str]:
        """Distinct node ids holding a replica."""
        return sorted({r.node_id for r in self.replicas.values()})

    def replicas_on_tier(self, tier: TierSpec) -> List[ReplicaInfo]:
        """The replicas stored on ``tier``, on any node."""
        return [r for r in self.replicas.values() if r.tier == tier]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block({self.block_id}, file={self.file_id}, idx={self.index}, "
            f"size={self.size}, replicas={len(self.replicas)})"
        )


def split_into_block_sizes(file_size: int, block_size: int) -> List[int]:
    """Sizes of the blocks a file of ``file_size`` bytes splits into.

    The last block may be partial; a zero-byte file has no blocks.
    """
    if file_size < 0:
        raise ValueError("file size cannot be negative")
    if block_size <= 0:
        raise ValueError("block size must be positive")
    sizes = []
    remaining = file_size
    while remaining > 0:
        sizes.append(min(block_size, remaining))
        remaining -= sizes[-1]
    return sizes
