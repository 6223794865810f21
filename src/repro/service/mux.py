"""The live-admission merge: many tenant streams, one shared cluster.

:class:`TenantMux` is the online counterpart of
:func:`~repro.workload.streams.merge_timed_sources`.  The offline merge
admits each source at a fixed start time known up front and eagerly
pulls one event per admitted source to seed its heap — which would
block a live service the moment a connected producer pauses between
events.  The mux keeps the same two invariants —

* events are emitted in non-decreasing :func:`~repro.workload.jobs.event_sort_key`
  order (arrival breaks ties, so the merge is deterministic for any
  fixed interleaving), and
* each tenant's events are shifted by its admission offset: a tenant's
  ``t=0`` is the shared cluster's simulation time at admission —

but feeds from per-session buffers filled by producer threads, so a
source that has nothing to say never holds a lock over the merge
*unless correctness requires it*: the merge only emits an event once no
open session with an empty buffer could still deliver an earlier one
(each session's bound is its admission offset plus the newest timestamp
it has delivered).  The flip side is the classic deterministic-merge
price: a connected tenant that goes quiet *without closing* holds the
merged clock at its bound until it sends or disconnects.  Pacing
(``--pace``) keeps producers flowing; drain force-closes stragglers.

The mux exposes a ``live_stats`` attribute, so the runner treats it
exactly like a :class:`~repro.workload.live.LiveStream`: the pump's
``next()`` blocks on tenant arrival and transport counters appear in
:class:`~repro.engine.runner.RunResult`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Iterator, List, Optional

from repro.workload.jobs import StreamEvent, TraceJob, event_sort_key, event_time
from repro.workload.live import LiveStats
from repro.workload.streams import WorkloadStream
from repro.service.tenants import SERVICE_TENANT_ATTR, Tenant

#: Per-session buffer high-water mark: a producer running this many
#: events ahead of the merge blocks in :meth:`TenantMux.feed` until the
#: consumer catches up (back-pressure, not data loss).
DEFAULT_BUFFER_LIMIT = 8192

_DONE = object()


class ServiceClosed(RuntimeError):
    """Raised when attaching a tenant after admissions closed (drain)."""


class _Session:
    """Mux-side state for one attached tenant (internal)."""

    __slots__ = ("tenant", "buffer", "open", "frontier", "seq", "closer")

    def __init__(
        self, tenant: Tenant, seq: int, closer: Optional[Callable[[], None]]
    ) -> None:
        self.tenant = tenant
        self.buffer: Deque[StreamEvent] = deque()
        self.open = True
        #: Newest tenant-relative timestamp delivered so far: future
        #: events are >= this (per-tenant streams are ordered), so
        #: ``offset + frontier`` bounds what this session can still emit.
        self.frontier = 0.0
        self.seq = seq
        self.closer = closer


class TenantMux(WorkloadStream):
    """A :class:`~repro.workload.streams.WorkloadStream` merging tenant
    sessions admitted while the simulation runs."""

    def __init__(
        self,
        registry=None,
        clock: Optional[Callable[[], float]] = None,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
    ) -> None:
        self.name = "service"
        #: Open-ended: the submission window closes when the last
        #: session drains after admissions close (the runner rewrites
        #: the duration to that time; see RunResult.duration).
        self.duration = float("inf")
        #: Optional callback fired (outside the lock) with each tenant
        #: that reaches a terminal state — finished, failed, or closed.
        #: The service engine wires the results log here.
        self.on_tenant_done: Optional[Callable[[Tenant], None]] = None
        self.registry = registry
        #: Shared-cluster clock (wired to ``sim.now`` by the engine);
        #: read at admission to fix each tenant's offset.
        self.clock = clock
        self.buffer_limit = int(buffer_limit)
        #: Transport counters in the LiveStream shape, so the runner
        #: reports them in RunResult unchanged.
        self.live_stats = LiveStats()
        self._cond = threading.Condition()
        self._sessions: List[_Session] = []
        self._seq = 0
        self._admissions_closed = False
        self._consumed = False

    # -- producer side -------------------------------------------------------
    def attach(
        self, tenant: Tenant, closer: Optional[Callable[[], None]] = None
    ) -> _Session:
        """Admit ``tenant``: fix its offset at the current cluster time
        and return the session its feeder thread writes into.

        ``closer`` (optional) force-closes the tenant's transport; drain
        calls it for sessions that outlive the grace period.  Raises
        :class:`ServiceClosed` once admissions are closed.
        """
        with self._cond:
            if self._admissions_closed:
                raise ServiceClosed("service is draining; no new tenants")
            offset = float(self.clock()) if self.clock is not None else 0.0
            session = _Session(tenant, self._seq, closer)
            self._seq += 1
            tenant.offset = offset
            tenant.state = "streaming"
            self._sessions.append(session)
            self._cond.notify_all()
            return session

    def feed(self, session: _Session, event: StreamEvent) -> bool:
        """Deliver one tenant-relative event into ``session``'s buffer.

        Blocks when the buffer is at its high-water mark (back-pressure
        on the producer thread).  Returns False — dropping the event —
        when the session was closed under the producer (drain).
        """
        with self._cond:
            while session.open and len(session.buffer) >= self.buffer_limit:
                self._cond.wait()
            if not session.open:
                self.live_stats.events_dropped += 1
                return False
            session.buffer.append(event)
            t = event_time(event)
            if t > session.frontier:
                session.frontier = t
            self.live_stats.events_received += 1
            self._cond.notify_all()
            return True

    def end(self, session: _Session) -> None:
        """Producer finished cleanly (end sentinel or EOF)."""
        done = None
        with self._cond:
            if session.open:
                session.open = False
                if session.tenant.state == "streaming":
                    session.tenant.state = "finished"
                    done = session.tenant
            self._cond.notify_all()
        if done is not None:
            self._notify_done(done)

    def fail(self, session: _Session, exc: BaseException) -> None:
        """Producer died (transport/decode error): stop this tenant only.

        The shared cluster keeps running — one tenant's corrupt stream
        must not take down everyone else's.
        """
        done = None
        with self._cond:
            if session.open:
                session.open = False
                session.tenant.state = "failed"
                session.tenant.error = str(exc)
                done = session.tenant
            elif session.tenant.error is None:
                # Force-closed transports surface as read errors on the
                # feeder; keep the drain state but record the cause.
                session.tenant.error = str(exc)
            self._cond.notify_all()
        if done is not None:
            self._notify_done(done)

    def _notify_done(self, tenant: Tenant) -> None:
        """Fire ``on_tenant_done`` outside the condition lock.

        A logging failure must never poison the merge or a producer
        thread, so exceptions are swallowed here.
        """
        callback = self.on_tenant_done
        if callback is None:
            return
        try:
            callback(tenant)
        except Exception:
            pass

    # -- lifecycle -----------------------------------------------------------
    def close_admissions(self) -> None:
        """Refuse new tenants; existing sessions keep streaming."""
        with self._cond:
            self._admissions_closed = True
            self._cond.notify_all()

    def force_close(self) -> None:
        """Close every open session (drain grace expired).

        Already-buffered events still replay — force-close bounds how
        long the merge waits for *new* arrivals, it does not discard
        what was already delivered.  Transports are closed through each
        session's ``closer`` so blocked feeder reads unblock.
        """
        closers = []
        done = []
        with self._cond:
            self._admissions_closed = True
            for session in self._sessions:
                if session.open:
                    session.open = False
                    if session.tenant.state in ("pending", "streaming"):
                        session.tenant.state = "closed"
                        done.append(session.tenant)
                    if session.closer is not None:
                        closers.append(session.closer)
            self._cond.notify_all()
        for closer in closers:
            try:
                closer()
            except OSError:
                pass
        for tenant in done:
            self._notify_done(tenant)

    # -- consumer side (the runner's pump) -----------------------------------
    def events(self) -> Iterator[StreamEvent]:
        if self._consumed:
            raise ValueError("TenantMux is single-shot: one merge per service")
        self._consumed = True
        return self._merged()

    def _merged(self) -> Iterator[StreamEvent]:
        while True:
            with self._cond:
                while True:
                    item = self._pop_ready()
                    if item is not None:
                        break
                    self._cond.wait()
            if item is _DONE:
                return
            yield item

    def _pop_ready(self):
        """Under the lock: the next emittable event, ``_DONE`` at end of
        service, or None when the merge must wait.

        The head is the minimum ``(offset + time, kind, admission seq)``
        over non-empty session buffers; it is emittable only when no
        *open* session with an empty buffer has a bound (offset +
        frontier) strictly below the head time — such a session could
        still deliver an earlier event.
        """
        best: Optional[_Session] = None
        best_key = None
        draining = True
        for session in self._sessions:
            if not session.buffer:
                draining = draining and not session.open
                continue
            draining = False
            head = session.buffer[0]
            t, kind = event_sort_key(head)
            key = (session.tenant.offset + t, kind, session.seq)
            if best_key is None or key < best_key:
                best, best_key = session, key
        if best is None:
            if draining and self._admissions_closed:
                return _DONE
            return None
        head_time = best_key[0]
        for session in self._sessions:
            if (
                session.open
                and not session.buffer
                and session.tenant.offset + session.frontier < head_time
            ):
                return None
        event = best.buffer.popleft()
        self._cond.notify_all()  # wake feeders blocked on the buffer limit
        return self._emit(best.tenant, event)

    def _emit(self, tenant: Tenant, event: StreamEvent) -> StreamEvent:
        """Shift ``event`` onto the cluster clock, scope its paths under
        the tenant's prefix, and tag its tenant."""
        offset = tenant.offset
        prefix = tenant.prefix
        if isinstance(event, TraceJob):
            # Jobs are per-stream objects (never shared), so mutating the
            # submit time and stamping the tenant tag is safe — and with
            # isolation off, leaving times/ids/paths untouched is what
            # keeps a single-tenant served run identical to the offline
            # replay.
            if offset:
                event.submit_time += offset
            if prefix:
                event.input_paths = [prefix + p for p in event.input_paths]
                if event.outputs:
                    event.outputs = [
                        replace(o, path=prefix + o.path) for o in event.outputs
                    ]
            setattr(event, SERVICE_TENANT_ATTR, tenant)
            tenant.jobs_submitted += 1
        elif offset or prefix:
            event = replace(
                event, time=event.time + offset, path=prefix + event.path
            )
        tenant.events_emitted += 1
        self.live_stats.events_emitted += 1
        return event
