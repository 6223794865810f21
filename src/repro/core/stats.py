"""Per-file access statistics (paper Sec 4.1 and 7.7).

For every file the system keeps its size, creation time, and the last
``k`` access timestamps (default 12) — at most ~956 bytes per file in the
paper's accounting.  These statistics feed both the rule-based policies
(recency/frequency) and the ML feature pipeline.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Container, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dfs.namespace import INodeFile


class FileStatistics:
    """Recency/frequency/size statistics for one file."""

    __slots__ = (
        "file",
        "size",
        "creation_time",
        "access_times",
        "tier_levels",
        "total_accesses",
    )

    def __init__(self, file: INodeFile, k: int = 12) -> None:
        self.file = file
        self.size = file.size
        self.creation_time = file.creation_time
        self.access_times: Deque[float] = deque(maxlen=k)
        #: Tier level of the file at each tracked access (recorded before
        #: the policies react to that access), aligned with
        #: ``access_times``.  None when the level was not captured.  Lets
        #: the ML feature pipeline use a *historically consistent* tier
        #: feature instead of leaking the current tier into training
        #: points whose reference time lies in the past.
        self.tier_levels: Deque[Optional[int]] = deque(maxlen=k)
        self.total_accesses = 0

    @property
    def inode_id(self) -> int:
        return self.file.inode_id

    @property
    def last_access_time(self) -> Optional[float]:
        return self.access_times[-1] if self.access_times else None

    @property
    def last_access_or_creation(self) -> float:
        """Recency anchor: last access, or creation for never-read files."""
        return self.access_times[-1] if self.access_times else self.creation_time

    def record_access(
        self, timestamp: float, tier_level: Optional[int] = None
    ) -> None:
        self.access_times.append(timestamp)
        self.tier_levels.append(tier_level)
        self.total_accesses += 1

    def tier_level_at(self, reference: float) -> Optional[int]:
        """Tier level recorded at the last access at or before ``reference``.

        Temporally safe for training-point generation: levels are
        captured before the policies react to the access, so a level at
        ``t <= reference`` carries no information from the label window
        after ``reference``.
        """
        result: Optional[int] = None
        for t, level in zip(self.access_times, self.tier_levels):
            if t > reference:
                break
            if level is not None:
                result = level
        return result

    def idle_time(self, now: float) -> float:
        """Seconds since the last access (or creation)."""
        return now - self.last_access_or_creation

    def age(self, now: float) -> float:
        return now - self.creation_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FileStatistics({self.file.path}, n={self.total_accesses}, "
            f"last={self.last_access_time})"
        )


class StatisticsRegistry:
    """All per-file statistics, keyed by inode id.

    Besides the statistics themselves the registry keeps the *recency
    index*: the ``(last_access_or_creation, inode_id)`` key of every
    tracked file in one sorted list.  The key only changes on create,
    access and delete, so it is updated exactly there, and the LRU
    victim is the first indexed file that passes the caller's filters
    (:meth:`least_recent`) instead of the minimum of a namespace scan.
    """

    def __init__(self, k: int = 12) -> None:
        self.k = k
        self._stats: Dict[int, FileStatistics] = {}
        self._recency: List[Tuple[float, int]] = []

    def _index(self, stats: FileStatistics) -> None:
        insort(self._recency, (stats.last_access_or_creation, stats.file.inode_id))

    def _unindex(self, stats: FileStatistics) -> None:
        key = (stats.last_access_or_creation, stats.file.inode_id)
        del self._recency[bisect_left(self._recency, key)]

    def on_create(self, file: INodeFile) -> FileStatistics:
        """Start fresh statistics for ``file`` (creation is its recency)."""
        old = self._stats.get(file.inode_id)
        if old is not None:
            self._unindex(old)
        stats = FileStatistics(file, k=self.k)
        self._stats[file.inode_id] = stats
        self._index(stats)
        return stats

    def on_access(
        self,
        file: INodeFile,
        timestamp: float,
        tier_level: Optional[int] = None,
    ) -> FileStatistics:
        """Record one access at ``timestamp``; it becomes the file's recency."""
        stats = self._stats.get(file.inode_id)
        if stats is None:
            # Files created before the registry attached still get tracked.
            stats = self.on_create(file)
        self._unindex(stats)
        stats.record_access(timestamp, tier_level)
        self._index(stats)
        return stats

    def on_delete(self, file: INodeFile) -> None:
        """Forget ``file``: its statistics and its recency-index entry."""
        stats = self._stats.pop(file.inode_id, None)
        if stats is not None:
            self._unindex(stats)

    def get(self, file: INodeFile) -> Optional[FileStatistics]:
        return self._stats.get(file.inode_id)

    def get_or_create(self, file: INodeFile) -> FileStatistics:
        """The statistics of ``file``, registering it if it has none."""
        stats = self._stats.get(file.inode_id)
        return stats if stats is not None else self.on_create(file)

    def track(self, files_by_id: Mapping[int, INodeFile]) -> None:
        """Register every file of ``files_by_id`` that has no statistics.

        Files created before the registry was fed (or with no listener
        feeding it) get the entry :meth:`get_or_create` would give them,
        in inode-id (creation) order.  The membership test runs in C, so
        a call that finds nothing missing is cheap.
        """
        missing = files_by_id.keys() - self._stats.keys()
        for inode_id in sorted(missing):
            self.on_create(files_by_id[inode_id])

    def all(self) -> List[FileStatistics]:
        return list(self._stats.values())

    def __len__(self) -> int:
        return len(self._stats)

    def __contains__(self, file: INodeFile) -> bool:
        return file.inode_id in self._stats

    # -- ordering helpers used by the policies -------------------------------
    def lru_order(self, files: Iterable[INodeFile]) -> List[INodeFile]:
        """Sort files least-recently-used first."""
        return sorted(
            files,
            key=lambda f: (
                self.get_or_create(f).last_access_or_creation,
                f.inode_id,
            ),
        )

    def least_recent(
        self, eligible: Container[int], excluded: Container[int]
    ) -> Optional[INodeFile]:
        """The least-recently-used tracked file whose inode id is in
        ``eligible`` and not in ``excluded``, or None.

        Equal to ``min`` over those files of ``(last_access_or_creation,
        inode_id)``: the walk visits keys in ascending order.
        """
        for _, inode_id in self._recency:
            if inode_id in eligible and inode_id not in excluded:
                return self._stats[inode_id].file
        return None

    def mru_order(self, files: Iterable[INodeFile]) -> List[INodeFile]:
        """Sort files most-recently-used first."""
        return list(reversed(self.lru_order(files)))

    def estimated_bytes_per_file(self) -> int:
        """Metadata footprint estimate mirroring Sec 7.7's 956 bytes."""
        # k access times (8 bytes each) + size/creation/counters and the
        # dict/deque overhead approximated at 64 bytes.
        return self.k * 8 + 64
