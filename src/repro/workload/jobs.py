"""Trace data model: file creations and MapReduce-style jobs.

A :class:`Trace` is an ordered sequence of two event kinds — create a
file, submit a job — plus static summary statistics.  Traces are either
synthesized (:mod:`repro.workload.synthesis`) or built by hand in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.workload.bins import BINS, SizeBin, bin_for_size


@dataclass(frozen=True)
class FileCreation:
    """Create ``path`` of ``size`` bytes at ``time`` (data-load event)."""

    path: str
    size: int
    time: float


@dataclass(frozen=True)
class FileDeletion:
    """Delete ``path`` at ``time`` (dataset retirement).

    Deletions only occur in streamed scenarios (e.g. the ``pipeline``
    dataset lifecycle); a materialized :class:`Trace` has no deletion
    list, so streams containing deletions cannot be materialized.
    """

    path: str
    time: float


@dataclass(frozen=True)
class OutputSpec:
    """One output file a job writes on completion."""

    path: str
    size: int


@dataclass
class TraceJob:
    """One job: reads its inputs, computes, writes its outputs."""

    job_id: int
    submit_time: float
    input_paths: List[str]
    input_size: int
    outputs: List[OutputSpec] = field(default_factory=list)
    #: CPU seconds consumed per input byte (models per-job compute skew).
    cpu_seconds_per_byte: float = 0.0

    @property
    def size_bin(self) -> SizeBin:
        return bin_for_size(self.input_size)

    @property
    def output_size(self) -> int:
        return sum(o.size for o in self.outputs)


TraceEvent = Union[FileCreation, TraceJob]

#: Everything a workload stream may yield; a superset of TraceEvent.
StreamEvent = Union[FileCreation, TraceJob, FileDeletion]

#: Same-timestamp ordering of stream events: files come into existence
#: before the jobs that read them, and retire only after the reads.
_EVENT_ORDER = {FileCreation: 0, TraceJob: 1, FileDeletion: 2}


def event_time(event: StreamEvent) -> float:
    """The simulation time at which ``event`` takes effect."""
    if isinstance(event, TraceJob):
        return event.submit_time
    return event.time


def event_sort_key(event: StreamEvent) -> Tuple[float, int]:
    """Total order for merging streams: (time, kind) with creations
    before jobs before deletions on ties — the same tie rule as
    :meth:`Trace.events`."""
    return (event_time(event), _EVENT_ORDER[type(event)])


@dataclass
class Trace:
    """A complete workload: file creations plus jobs, time-ordered."""

    name: str
    duration: float
    creations: List[FileCreation] = field(default_factory=list)
    jobs: List[TraceJob] = field(default_factory=list)

    def events(self) -> Iterator[TraceEvent]:
        """All events merged in time order (creations before jobs on ties)."""
        creations = sorted(self.creations, key=lambda c: c.time)
        jobs = sorted(self.jobs, key=lambda j: j.submit_time)
        ci = ji = 0
        while ci < len(creations) or ji < len(jobs):
            if ji >= len(jobs) or (
                ci < len(creations) and creations[ci].time <= jobs[ji].submit_time
            ):
                yield creations[ci]
                ci += 1
            else:
                yield jobs[ji]
                ji += 1

    # -- static statistics (Sec 7.1 / Fig 5) --------------------------------
    @property
    def file_count(self) -> int:
        return len(self.creations) + sum(len(j.outputs) for j in self.jobs)

    @property
    def total_bytes(self) -> int:
        created = sum(c.size for c in self.creations)
        written = sum(j.output_size for j in self.jobs)
        return created + written

    def access_counts(self) -> Dict[str, int]:
        """Number of job reads per file path (0 for never-read files)."""
        counts: Dict[str, int] = {c.path: 0 for c in self.creations}
        for job in self.jobs:
            for output in job.outputs:
                counts.setdefault(output.path, 0)
        for job in self.jobs:
            for path in job.input_paths:
                counts[path] = counts.get(path, 0) + 1
        return counts

    def jobs_per_bin(self) -> Dict[str, int]:
        result = {b.name: 0 for b in BINS}
        for job in self.jobs:
            result[job.size_bin.name] += 1
        return result

    def io_per_bin(self) -> Dict[str, int]:
        """Input + output bytes generated by the jobs of each bin."""
        result = {b.name: 0 for b in BINS}
        for job in self.jobs:
            result[job.size_bin.name] += job.input_size + job.output_size
        return result

    def file_sizes(self) -> List[int]:
        sizes = [c.size for c in self.creations]
        sizes.extend(o.size for j in self.jobs for o in j.outputs)
        return sizes

    def job_sizes(self) -> List[int]:
        return [j.input_size for j in self.jobs]

    # -- CDFs for Fig 5 ---------------------------------------------------------
    @staticmethod
    def cdf(values: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF: (sorted values, cumulative probability)."""
        if not values:
            return np.array([]), np.array([])
        data = np.sort(np.asarray(values, dtype=float))
        prob = np.arange(1, len(data) + 1) / len(data)
        return data, prob
