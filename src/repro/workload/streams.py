"""Lazy workload streams: seeded, time-ordered event generators.

A :class:`WorkloadStream` is the streaming counterpart of a materialized
:class:`~repro.workload.jobs.Trace`: instead of holding every event in
memory, it *generates* a time-ordered sequence of
:data:`~repro.workload.jobs.StreamEvent` (file creations, job
submissions, file deletions) on demand.  Streams are

* **lazy** — events come from an iterator, so a 100x-length workload
  replays in O(active-state) memory instead of O(events);
* **seeded** — iterating the same stream twice yields the identical
  event sequence (every random draw goes through one seeded generator);
* **time-ordered** — event times are non-decreasing, with the
  :func:`~repro.workload.jobs.event_sort_key` tie rule (creations before
  jobs before deletions at equal timestamps).

The scenario library (:mod:`repro.workload.scenarios`) builds named
streams; the external adapter (:mod:`repro.workload.external`) ingests
CSV/JSONL traces into the same protocol; and
:class:`~repro.engine.runner.WorkloadRunner` drives either a stream or a
materialized trace through the simulated storage system.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.workload.bins import BINS, bin_for_size
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    StreamEvent,
    Trace,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.profiles import WorkloadProfile, scaled_profile


class StreamOrderError(ValueError):
    """A stream yielded events with decreasing timestamps."""


# -- protocol ----------------------------------------------------------------
class WorkloadStream:
    """Base class of the stream protocol.

    Subclasses implement :meth:`events`; everything else (iteration,
    materialization, statistics) is generic.  ``name`` identifies the
    workload in results; ``duration`` is the nominal end of the
    submission window (the runner drains past it, exactly as for
    materialized traces).
    """

    name: str = "stream"
    duration: float = 0.0

    def events(self) -> Iterator[StreamEvent]:
        """Yield the workload's events in time order.

        Each call restarts the stream from the beginning; two iterations
        of the same stream object yield identical event sequences.
        """
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()

    def materialize(self) -> Trace:
        """Consume the stream into a :class:`Trace`.

        Raises :class:`ValueError` for streams containing file deletions
        — the materialized trace model has no deletion list, and
        silently dropping lifecycle events would change the workload.
        """
        trace = Trace(name=self.name, duration=self.duration)
        for event in self.events():
            if isinstance(event, FileCreation):
                trace.creations.append(event)
            elif isinstance(event, TraceJob):
                trace.jobs.append(event)
            else:
                raise ValueError(
                    f"stream {self.name!r} contains file deletions and "
                    "cannot be materialized into a Trace"
                )
        return trace

    def stats(self, max_events: Optional[int] = None) -> "StreamStats":
        """Single-pass summary statistics (bounded by ``max_events``)."""
        stats = StreamStats(name=self.name, duration=self.duration)
        for event in itertools.islice(self.events(), max_events):
            stats.add(event)
        return stats


@dataclass
class StreamStats:
    """Aggregates computed in one bounded pass over a stream."""

    name: str
    duration: float
    events: int = 0
    jobs: int = 0
    creations: int = 0
    deletions: int = 0
    bytes_created: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    first_time: float = 0.0
    last_time: float = 0.0
    jobs_per_bin: Dict[str, int] = field(
        default_factory=lambda: {b.name: 0 for b in BINS}
    )

    def add(self, event: StreamEvent) -> None:
        """Fold one event into the aggregates."""
        t = event_time(event)
        if self.events == 0:
            self.first_time = t
        self.events += 1
        self.last_time = max(self.last_time, t)
        if isinstance(event, FileCreation):
            self.creations += 1
            self.bytes_created += event.size
        elif isinstance(event, TraceJob):
            self.jobs += 1
            self.bytes_read += event.input_size
            self.bytes_written += event.output_size
            self.jobs_per_bin[bin_for_size(event.input_size).name] += 1
        else:
            self.deletions += 1


# -- adapters ----------------------------------------------------------------
class TraceStream(WorkloadStream):
    """Stream view of an already-materialized :class:`Trace`."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.name = trace.name
        self.duration = trace.duration

    def events(self) -> Iterator[StreamEvent]:
        """The trace's events, merged in time order."""
        return self.trace.events()


class SynthesizedStream(WorkloadStream):
    """Compat wrapper: the FB/CMU synthesizer behind the stream protocol.

    The synthesizer's global passes (cold-file top-up, drift rotation)
    need the whole trace, so this stream materializes internally on
    first iteration and caches it — it exists so the classic workloads
    plug into the scenario registry and the streaming drive path, where
    replay is verified bit-identical to the pre-stream behaviour.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 42,
        drift: bool = True,
        scale: float = 1.0,
    ) -> None:
        if scale != 1.0:
            profile = scaled_profile(profile, scale)
        self.profile = profile
        self.seed = seed
        self.drift = drift
        self.name = profile.name
        self.duration = profile.duration
        self._trace: Optional[Trace] = None

    def materialize(self) -> Trace:
        """Synthesize the trace once; later calls return the cached one."""
        if self._trace is None:
            from repro.workload.synthesis import synthesize_trace

            self._trace = synthesize_trace(
                self.profile, seed=self.seed, drift=self.drift
            )
        return self._trace

    def events(self) -> Iterator[StreamEvent]:
        """The cached synthesized trace's events, in time order."""
        return self.materialize().events()


class GeneratedStream(WorkloadStream):
    """A fully lazy stream built from a generator factory.

    ``factory()`` returns a fresh event iterator (scenario closures
    capture their own parameters); the stream renumbers jobs
    sequentially in merged time order and enforces non-decreasing
    timestamps, so every scenario generator gets well-formed output for
    free.
    """

    def __init__(self, name: str, duration: float, factory) -> None:
        self.name = name
        self.duration = duration
        self._factory = factory

    def events(self) -> Iterator[StreamEvent]:
        """A fresh run of the factory, order-checked and job-numbered."""
        return number_jobs(ordered(self._factory(), name=self.name))


# -- stream utilities --------------------------------------------------------
def ordered(
    events: Iterable[StreamEvent],
    name: str = "stream",
    line: Optional[Callable[[], int]] = None,
) -> Iterator[StreamEvent]:
    """Pass-through that enforces non-decreasing event times.

    ``line``, when given, returns the input line of the event just
    pulled, and the error ends ``at line N`` as wire-format errors do.
    """
    last = -float("inf")
    for event in events:
        t = event_time(event)
        if t < last:
            where = "" if line is None else f" at line {line()}"
            raise StreamOrderError(
                f"{name}: event at t={t} after t={last} "
                f"({type(event).__name__}){where}"
            )
        last = t
        yield event


def number_jobs(events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
    """Assign sequential job ids in stream order (generators yield -1)."""
    next_id = 0
    for event in events:
        if isinstance(event, TraceJob):
            if event.job_id < 0:
                event.job_id = next_id
            next_id += 1
        yield event


def fill_input_sizes(events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
    """Infer omitted or zero job input sizes from the files created so
    far (by creations and job outputs; O(files) state)."""
    sizes: Dict[str, int] = {}
    for event in events:
        if isinstance(event, FileCreation):
            sizes[event.path] = event.size
        elif isinstance(event, TraceJob):
            for output in event.outputs:
                sizes[output.path] = output.size
            if event.input_size <= 0:
                event.input_size = sum(
                    sizes.get(path, 0) for path in event.input_paths
                )
        yield event


def merge_events(*sources: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
    """Merge time-ordered event iterators into one time-ordered stream.

    Stable: ties (equal :func:`event_sort_key`) resolve in source order,
    so the merge is deterministic.  Memory is O(len(sources)).
    """
    return heapq.merge(*sources, key=event_sort_key)


def merge_timed_sources(
    sources: Iterable[Tuple[float, Iterable[StreamEvent]]],
) -> Iterator[StreamEvent]:
    """Merge an *unbounded* sequence of event sources lazily.

    ``sources`` yields ``(start_time, events)`` pairs in non-decreasing
    ``start_time`` order, where every event of a source is at or after
    its start time.  Unlike :func:`merge_events`, sources are admitted
    into the merge only once the output clock reaches their start time,
    so workloads with unboundedly many short-lived sources (e.g. the
    ``pipeline`` dataset lifecycle) run with memory proportional to the
    number of *concurrently active* sources, not the total.
    """
    source_iter = iter(sources)
    # Heap of (sort_key, tiebreak, event, source) for the head event of
    # each admitted source; ``tiebreak`` preserves admission order.
    heap: List[tuple] = []
    counter = itertools.count()

    def admit(start: float, events: Iterable[StreamEvent]) -> None:
        it = iter(events)
        for event in it:
            if event_time(event) < start:
                raise StreamOrderError(
                    f"source starting at t={start} yielded an event at "
                    f"t={event_time(event)}"
                )
            heapq.heappush(heap, (event_sort_key(event), next(counter), event, it))
            return

    next_source = next(source_iter, None)
    if next_source is not None:
        admit(*next_source)
        next_source = next(source_iter, None)
    while heap or next_source is not None:
        # Admit every source that starts no later than the next event.
        while next_source is not None and (
            not heap or next_source[0] <= heap[0][0][0]
        ):
            admit(*next_source)
            next_source = next(source_iter, None)
        if not heap:
            continue
        _, _, event, it = heapq.heappop(heap)
        yield event
        follow = next(it, None)
        if follow is not None:
            heapq.heappush(heap, (event_sort_key(follow), next(counter), follow, it))


def clip(
    events: Iterable[StreamEvent], duration: float
) -> Iterator[StreamEvent]:
    """Drop events past ``duration`` (open-ended generators stop there)."""
    for event in events:
        if event_time(event) > duration:
            break
        yield event
