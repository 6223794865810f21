"""The discrete-event simulator.

Events are ``(time, priority, sequence, event)`` tuples in a binary
heap; the sequence number breaks ties so same-timestamp, same-priority
events run in scheduling order (FIFO), which makes runs fully
deterministic.  Sequence numbers are unique, so tuple comparison — done
in C by :mod:`heapq` — never reaches the :class:`Event` element and
gives exactly the order of :meth:`Event.__lt__`.

Cancellation is lazy: :meth:`Event.cancel` marks the entry and the run
loop skips it when popped.  Under workloads that cancel heavily (the
fair-share I/O engine reschedules in-flight completions on every flow
start/finish) tombstones would otherwise dominate the heap and tax every
push/pop with extra ``log n`` depth, so the simulator counts live
tombstones and amortizes an O(n) compaction — filter out cancelled
entries and re-heapify — whenever they outnumber the live events.
Compaction preserves the (time, priority, seq) order exactly, so execution is
bit-identical with or without it.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.clock import Clock

#: Never compact below this many tombstones: tiny heaps gain nothing
#: and re-heapifying them on every cancel would be pure overhead.
_COMPACT_MIN_TOMBSTONES = 64


class Event:
    """A scheduled callback, ordered by (time, priority, seq).

    The heap orders the ``(time, priority, seq, event)`` tuple the
    simulator pushes; :meth:`__lt__` states the same order for code that
    sorts events directly.

    ``priority`` defaults to 0 everywhere, in which case ordering
    reduces to the classic (time, seq) FIFO.  The workload pump
    schedules every workload event at priority -1, so workload events
    win every same-timestamp tie against system events (timers, task
    and transfer completions), however early those were scheduled.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "priority", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        name: str = "",
        sim: Optional["Simulator"] = None,
        priority: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.priority = priority
        # Back-reference used for tombstone accounting; cleared when the
        # event leaves the heap so late cancels don't skew the counter.
        self._sim = sim

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}, {self.name!r}{state})"


class Simulator(Clock):
    """Event loop with a simulated clock.

    The simulator is also a :class:`Clock`, so components can hold a
    reference to it purely for ``now()``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: ``(time, priority, seq, event)`` entries.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: Cancelled events still sitting in the heap.
        self._tombstones = 0
        #: Cumulative counters (diagnostics / benchmarks).
        self.events_cancelled = 0
        self.heap_compactions = 0
        #: Peak raw heap length ever reached (tombstones included) —
        #: the event-queue-depth half of the back-pressure picture.
        self.max_heap_size = 0

    # -- Clock ------------------------------------------------------------
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for tests/diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* events still queued.

        Cancelled events awaiting garbage collection in the heap are not
        counted: ``pending == 0`` means nothing will ever run again.
        """
        return len(self._heap) - self._tombstones

    @property
    def heap_size(self) -> int:
        """Raw heap length, tombstones included (diagnostics only)."""
        return len(self._heap)

    def stats(self) -> dict:
        """Point-in-time engine introspection (JSON-safe scalars).

        The shared core-counter view consumed by the service control
        plane and the telemetry exporters; engine subclasses extend it
        with representation-specific gauges (see
        :meth:`repro.sim.fastsim.FastSimulator.stats`).
        """
        return {
            "now": self._now,
            "events_processed": self._events_processed,
            "events_cancelled": self.events_cancelled,
            "pending": self.pending,
            "heap_size": len(self._heap),
            "heap_peak": self.max_heap_size,
            "heap_compactions": self.heap_compactions,
        }

    # -- scheduling --------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[[], Any],
        name: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        Lower ``priority`` runs first among same-time events; the
        default 0 preserves FIFO scheduling order.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, name, self, priority)
        heappush(self._heap, (time, priority, seq, event))
        if len(self._heap) > self.max_heap_size:
            self.max_heap_size = len(self._heap)
        return event

    def after(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self._now + delay, callback, name)

    # -- tombstone accounting ----------------------------------------------
    def _note_cancel(self) -> None:
        self.events_cancelled += 1
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order-preserving).

        Mutates the heap list in place so that callers holding a local
        binding to it (the :meth:`run` drain loop) stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._tombstones = 0
        self.heap_compactions += 1

    def _pop(self) -> Event:
        event = heappop(self._heap)[3]
        if event.cancelled:
            self._tombstones -= 1
        event._sim = None
        return event

    # -- running ------------------------------------------------------------
    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._heap:
            event = self._pop()
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Drain the event queue.  Returns the number of callbacks executed.

        ``until`` stops the loop once the next event would be later than the
        given time (the clock is then advanced exactly to ``until``).
        ``max_events`` guards against runaway loops in tests.  The guard
        counts *executed callbacks* only: cancelled events — whether
        skipped by this loop or popped inside :meth:`step` — never
        consume budget, so ``run(max_events=n)`` always permits ``n``
        real callbacks regardless of how many tombstones the heap holds.
        """
        executed = 0
        # The drain loop is the single hottest frame of every run;
        # binding the heap and heappop locally and inlining step()'s pop
        # saves an attribute lookup and a method call per event.  The
        # heap list itself is stable: _compact() mutates it in place.
        heap = self._heap
        pop = heappop
        while heap:
            head = heap[0][3]
            if head.cancelled:
                pop(heap)
                self._tombstones -= 1
                head._sim = None
                continue
            if until is not None and head.time > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            pop(heap)
            head._sim = None
            self._now = head.time
            self._events_processed += 1
            head.callback()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return executed


class PeriodicTimer:
    """Re-schedules a callback every ``interval`` seconds until stopped.

    Mirrors daemon threads in the real system (e.g. the Replication
    Monitor's periodic scan).  The callback runs first at
    ``start_delay`` (default: one full interval) after creation.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        name: str = "timer",
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self._sim = sim
        self._interval = float(interval)
        self._callback = callback
        self._name = name
        self._stopped = False
        self._event: Optional[Event] = None
        delay = interval if start_delay is None else start_delay
        self._schedule(delay)

    def _schedule(self, delay: float) -> None:
        self._event = self._sim.after(delay, self._fire, name=self._name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._schedule(self._interval)

    def stop(self) -> None:
        """Cancel the timer; the callback will not run again."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
