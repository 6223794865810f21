"""Workload metrics: everything the evaluation figures report.

One :class:`MetricsCollector` instance accumulates, per job-size bin:

* job completion times (Figs 6, 10, 12, 13);
* aggregate task execution time = cluster efficiency numerator (Fig 7);
* bytes read per storage tier (Fig 8);
* hit ratio / byte hit ratio, both *access*-based (which tier actually
  served each task) and *location*-based (was the file fully in memory
  right before the access) — Figs 9 and 11;
* bytes read from memory and total (Table 4's byte accuracy/coverage,
  combined with the monitor's upgraded-bytes counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cluster.hardware import DEFAULT_HIERARCHY, TierHierarchy, TierSpec
from repro.common.floats import fold_sum
from repro.workload.bins import BIN_NAMES


@dataclass
class BinMetrics:
    """Accumulators for one job-size bin."""

    jobs_completed: int = 0
    completion_time_sum: float = 0.0
    task_seconds: float = 0.0
    # Lazily keyed by TierSpec so the same accumulator works for any
    # hierarchy depth; readers zero-fill from the collector's hierarchy.
    bytes_by_tier: Dict[TierSpec, int] = field(default_factory=dict)

    @property
    def mean_completion_time(self) -> float:
        """Mean job completion time of the bin (0.0 before any job)."""
        if self.jobs_completed == 0:
            return 0.0
        return self.completion_time_sum / self.jobs_completed


@dataclass
class MetricsCollector:
    """Aggregates run metrics, mostly keyed by bin."""

    bins: Dict[str, BinMetrics] = field(
        default_factory=lambda: {name: BinMetrics() for name in BIN_NAMES}
    )
    #: The tier hierarchy of the run (controls per-tier breakdowns and
    #: which tier counts as the "memory" hit target: the highest).
    hierarchy: TierHierarchy = field(default_factory=lambda: DEFAULT_HIERARCHY)
    # Access-based hits: which tier served each task read.
    task_reads: int = 0
    task_reads_memory: int = 0
    bytes_read: int = 0
    bytes_read_memory: int = 0
    # Location-based hits: was the whole file memory-resident at access.
    file_accesses: int = 0
    file_accesses_memory_located: int = 0
    location_bytes: int = 0
    location_bytes_memory: int = 0
    # Output side.
    bytes_written: int = 0
    jobs_completed: int = 0

    # -- recording ----------------------------------------------------------
    def record_task_read(
        self, bin_name: str, tier: TierSpec, num_bytes: int, seconds: float
    ) -> None:
        """Record one finished map task: ``num_bytes`` served from
        ``tier`` and ``seconds`` of task time, both charged to
        ``bin_name``.  A read from the fastest tier (``level`` 0) is a
        memory hit."""
        self.task_reads += 1
        self.bytes_read += num_bytes
        bin_metrics = self.bins[bin_name]
        by_tier = bin_metrics.bytes_by_tier
        by_tier[tier] = by_tier.get(tier, 0) + num_bytes
        bin_metrics.task_seconds += seconds
        if tier.level == 0:
            self.task_reads_memory += 1
            self.bytes_read_memory += num_bytes

    def record_file_access(self, memory_located: bool, num_bytes: int) -> None:
        """Record one input-file access for the location-based ratios."""
        self.file_accesses += 1
        self.location_bytes += num_bytes
        if memory_located:
            self.file_accesses_memory_located += 1
            self.location_bytes_memory += num_bytes

    def record_task_time(self, bin_name: str, seconds: float) -> None:
        """Add ``seconds`` of output-task time to ``bin_name``."""
        self.bins[bin_name].task_seconds += seconds

    def record_job_completion(self, bin_name: str, seconds: float) -> None:
        """Record one finished job of ``bin_name`` taking ``seconds``."""
        self.jobs_completed += 1
        bin_metrics = self.bins[bin_name]
        bin_metrics.jobs_completed += 1
        bin_metrics.completion_time_sum += seconds

    def record_write(self, num_bytes: int) -> None:
        """Count ``num_bytes`` of job output written."""
        self.bytes_written += num_bytes

    # -- derived metrics ---------------------------------------------------------
    def hit_ratio(self) -> float:
        """Access-based HR: fraction of task reads served from memory."""
        if self.task_reads == 0:
            return 0.0
        return self.task_reads_memory / self.task_reads

    def byte_hit_ratio(self) -> float:
        """Access-based BHR: fraction of bytes served from memory."""
        if self.bytes_read == 0:
            return 0.0
        return self.bytes_read_memory / self.bytes_read

    def location_hit_ratio(self) -> float:
        """Location-based HR: file fully memory-resident at access time."""
        if self.file_accesses == 0:
            return 0.0
        return self.file_accesses_memory_located / self.file_accesses

    def location_byte_hit_ratio(self) -> float:
        """Location-based BHR: bytes of files fully memory-resident at access."""
        if self.location_bytes == 0:
            return 0.0
        return self.location_bytes_memory / self.location_bytes

    def total_task_seconds(self) -> float:
        """Task execution time summed over every bin (Fig 7's numerator)."""
        return fold_sum(b.task_seconds for b in self.bins.values())

    def mean_completion_times(self) -> Dict[str, float]:
        """Mean job completion time per bin."""
        return {name: b.mean_completion_time for name, b in self.bins.items()}

    def tier_access_distribution(self) -> Dict[str, Dict[TierSpec, float]]:
        """Per-bin fraction of bytes served from each tier (Fig 8)."""
        result: Dict[str, Dict[TierSpec, float]] = {}
        for name, bin_metrics in self.bins.items():
            total = fold_sum(bin_metrics.bytes_by_tier.values())
            result[name] = {
                t: (bin_metrics.bytes_by_tier.get(t, 0) / total if total else 0.0)
                for t in self.hierarchy
            }
        return result


def completion_reduction(
    baseline: MetricsCollector, candidate: MetricsCollector
) -> Dict[str, float]:
    """Per-bin % reduction in mean completion time vs a baseline (Fig 6)."""
    result = {}
    for name in BIN_NAMES:
        base = baseline.bins[name].mean_completion_time
        cand = candidate.bins[name].mean_completion_time
        result[name] = 0.0 if base <= 0 else (base - cand) / base * 100.0
    return result


def efficiency_improvement(
    baseline: MetricsCollector, candidate: MetricsCollector
) -> Dict[str, float]:
    """Per-bin % reduction in aggregate task time vs a baseline (Fig 7)."""
    result = {}
    for name in BIN_NAMES:
        base = baseline.bins[name].task_seconds
        cand = candidate.bins[name].task_seconds
        result[name] = 0.0 if base <= 0 else (base - cand) / base * 100.0
    return result
