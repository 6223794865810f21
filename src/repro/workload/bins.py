"""Job size bins A-F (paper Table 3).

Jobs are binned by their total input data size; the same bins organize
every per-bin figure (6, 7, 8, 10, 12, 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.units import GB, MB


@dataclass(frozen=True)
class SizeBin:
    """One input-size bin."""

    name: str
    low: int  # inclusive, bytes
    high: int  # exclusive, bytes

    def contains(self, size: int) -> bool:
        return self.low <= size < self.high

    @property
    def label(self) -> str:
        return self.name


#: The six bins of Table 3.
BINS: List[SizeBin] = [
    SizeBin("A", 0, 128 * MB),
    SizeBin("B", 128 * MB, 512 * MB),
    SizeBin("C", 512 * MB, 1 * GB),
    SizeBin("D", 1 * GB, 2 * GB),
    SizeBin("E", 2 * GB, 5 * GB),
    SizeBin("F", 5 * GB, 10 * GB),
]

BIN_NAMES = [b.name for b in BINS]


def bin_for_size(size: int) -> SizeBin:
    """The bin containing ``size`` (sizes above the last bin clamp to it)."""
    for size_bin in BINS:
        if size_bin.contains(size):
            return size_bin
    return BINS[-1]
