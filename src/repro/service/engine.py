"""One shared simulated cluster fed by many tenants, with live metrics.

:class:`ServiceEngine` owns the pieces the daemon multiplexes tenants
into: a :class:`~repro.service.mux.TenantMux`, a
:class:`~repro.engine.runner.WorkloadRunner` replaying the merged
stream on a dedicated *engine thread*, and the
:class:`~repro.service.tenants.TenantRegistry` whose per-tenant
collectors the scheduler fans metrics out to
(:attr:`~repro.engine.scheduler.TaskScheduler.metrics_for_job`).

Mid-flight observability comes from
:meth:`~repro.engine.runner.WorkloadRunner.snapshot`: the control plane
calls it from HTTP handler threads while the engine thread is still
replaying.  The engine thread spends its idle time blocked inside the
mux's condition wait (the pump's ``next()``), so the simulation state a
snapshot reads is stable whenever no events are flowing; under load the
snapshot is a consistent-enough point-in-time view, which is the
contract monitoring wants.

Everything serialized for HTTP passes through :func:`json_safe`, which
turns non-finite floats into ``null`` — the header-less live stream's
``duration=inf`` must never leak into JSON as a bare ``Infinity`` token
(see ``docs/benchmarks.md``).
"""

from __future__ import annotations

import io
import math
import socket as socket_module
import threading
import time
from typing import Any, Dict, Iterable, Optional

from repro.engine.metrics import MetricsCollector
from repro.engine.runner import RunResult, SystemConfig, WorkloadRunner
from repro.service.mux import ServiceClosed, TenantMux
from repro.service.tenants import Tenant, TenantRegistry, tenant_collector_for_job
from repro.workload.jobs import StreamEvent
from repro.workload.live import DEFAULT_REORDER_DEPTH, LiveStream, paced_events


def json_safe(value: Any) -> Any:
    """``value`` with every non-JSON scalar made representable.

    Non-finite floats (``inf``, ``nan``) become ``None`` — JSON has no
    ``Infinity`` token, and Python's default ``json.dumps`` would emit
    one anyway, producing output standard parsers reject.  Non-string
    dict keys become strings (tier objects key some engine dicts), and
    unknown objects fall back to ``str``.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else str(getattr(k, "name", k))): json_safe(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return str(value)


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """A JSON-safe dict projection of a :class:`RunResult`.

    This is the ``run`` section of ``GET /metrics``: the run's exact
    :meth:`~RunResult.fingerprint` plus label, duration, pump lead and
    live transport counters, with open-ended durations already ``None``
    (see :attr:`RunResult.duration`).
    """
    return json_safe(
        {
            "label": result.label,
            "duration": result.duration,
            **result.fingerprint(),
            "pump": {
                "events": result.pump_events,
                "lead_mean_seconds": result.pump_lead_mean_seconds,
                "lead_max_seconds": result.pump_lead_max_seconds,
                "late_events": result.pump_late_events,
            },
            "live_stats": result.live_stats,
        }
    )


class ServiceEngine:
    """The multi-tenant replay engine behind one service instance."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        drain_limit: float = 4 * 3600.0,
        results_log: Optional[str] = None,
    ) -> None:
        if config is None:
            config = SystemConfig(label="service")
        self.config = config
        self.drain_limit = drain_limit
        self.registry = TenantRegistry()
        self.mux = TenantMux(self.registry)
        self.runner = WorkloadRunner(self.mux, config)
        # The mux stamps each tenant's admission offset off the shared
        # simulation clock, and the scheduler fans per-job metrics out
        # to the tagged tenant's collector.
        self.mux.clock = self.runner.sim.now
        self.runner.scheduler.metrics_for_job = tenant_collector_for_job
        #: Tenant records from previous daemon runs (``--results-log``):
        #: loaded once at startup, served under ``GET /tenants``'s
        #: ``"past"`` key.  Empty without a log.
        self.past_tenants: list = []
        self.results_log = None
        if results_log is not None:
            from repro.service.results import ResultsLog

            self.results_log = ResultsLog(results_log)
            self.past_tenants = self.results_log.load()
            self.mux.on_tenant_done = self.results_log.record_tenant
        self.result: Optional[RunResult] = None
        self.error: Optional[BaseException] = None
        self.started_wall: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._drain_lock = threading.Lock()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def status(self) -> str:
        """``starting`` → ``serving`` → ``draining`` → ``finished`` (or
        ``failed`` when the engine thread died)."""
        if self.error is not None:
            return "failed"
        if self.result is not None:
            return "finished"
        if self._draining:
            return "draining"
        if self._thread is not None:
            return "serving"
        return "starting"

    def start(self) -> None:
        """Start the engine thread (idempotent)."""
        if self._thread is not None:
            return
        self.started_wall = time.time()
        self._thread = threading.Thread(
            target=self._run, name="service-engine", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        try:
            self.result = self.runner.run(self.drain_limit)
            if self.results_log is not None:
                # The replay has fully drained, so every tenant's
                # collector is final — re-log with complete metrics
                # (load() collapses the stream-end/final pair).
                for tenant in self.registry.list():
                    if tenant.state in ("finished", "failed", "closed"):
                        try:
                            self.results_log.record_tenant(tenant, final=True)
                        except Exception:
                            pass
        except BaseException as exc:  # surface, never swallow, engine death
            self.error = exc

    def begin_drain(self, grace: float = 30.0) -> None:
        """Graceful shutdown: stop admissions, give open sessions
        ``grace`` wall seconds to finish, then force-close transports.

        Returns immediately; the engine thread finishes the replay
        (draining in-flight jobs and transfers) and publishes the final
        :class:`RunResult`.  Idempotent.
        """
        with self._drain_lock:
            if self._draining:
                return
            self._draining = True
        self.mux.close_admissions()
        threading.Thread(
            target=self._drain, args=(grace,), name="service-drain", daemon=True
        ).start()

    def _drain(self, grace: float) -> None:
        deadline = time.time() + grace
        while time.time() < deadline:
            if all(
                t.state not in ("pending", "streaming") for t in self.registry.list()
            ):
                break
            time.sleep(0.05)
        self.mux.force_close()

    def alive(self) -> bool:
        """Whether the engine thread is still replaying."""
        return self._thread is not None and self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> Optional[RunResult]:
        """Wait for the engine thread; the final result once finished."""
        if self._thread is not None:
            self._thread.join(timeout)
        if self.error is not None:
            raise RuntimeError("service engine failed") from self.error
        return self.result

    # -- tenant admission ----------------------------------------------------
    def _collector(self) -> MetricsCollector:
        return MetricsCollector(hierarchy=self.runner.hierarchy)

    def attach_events(
        self,
        events: Iterable[StreamEvent],
        name: str,
        source: str,
        pace: Optional[float] = None,
        isolate: bool = True,
    ) -> Tenant:
        """Admit a pre-built event iterator (scenario or inline stream)
        as a tenant; a daemon feeder thread delivers it into the mux.

        ``isolate=False`` skips the per-tenant path prefix (see
        :attr:`~repro.service.tenants.Tenant.prefix`).  Raises
        :class:`~repro.service.mux.ServiceClosed` while draining.
        """
        tenant = self.registry.create(
            name=name,
            source=source,
            pace=pace,
            collector=self._collector(),
            isolate=isolate,
        )
        session = self.mux.attach(tenant)
        threading.Thread(
            target=self._feed,
            args=(session, events, pace),
            name=f"feeder-{tenant.tenant_id}",
            daemon=True,
        ).start()
        return tenant

    def _feed(self, session, events: Iterable[StreamEvent], pace: Optional[float]):
        try:
            if pace is not None:
                events = paced_events(events, pace)
            for event in events:
                if not self.mux.feed(session, event):
                    break
            self.mux.end(session)
        except Exception as exc:
            self.mux.fail(session, exc)

    def attach_jsonl(
        self,
        text: str,
        name: Optional[str] = None,
        pace: Optional[float] = None,
        isolate: bool = True,
    ) -> Tenant:
        """Admit an inline JSONL stream (``POST /tenants`` with a raw
        body): decoded through :class:`~repro.workload.live.LiveStream`
        so it gets the same header/reorder/numbering conveniences as
        every other transport."""
        stream = LiveStream(io.StringIO(text), name=name)
        return self.attach_events(
            stream.events(),
            name=stream.name,
            source="inline",
            pace=pace,
            isolate=isolate,
        )

    def attach_scenario(
        self,
        scenario: str,
        params: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
        pace: Optional[float] = None,
        isolate: bool = True,
    ) -> Tenant:
        """Admit a registered scenario as a tenant (``POST /tenants``
        with ``{"scenario": ...}``)."""
        from repro.workload.scenarios import build_scenario

        stream = build_scenario(scenario, **(params or {}))
        return self.attach_events(
            stream.events(),
            name=name or stream.name,
            source=f"scenario:{scenario}",
            pace=pace,
            isolate=isolate,
        )

    def attach_socket(
        self,
        conn: socket_module.socket,
        peer: str,
        reorder_depth: int = DEFAULT_REORDER_DEPTH,
        late: str = "clamp",
        pace: Optional[float] = None,
        isolate: bool = True,
    ) -> Tenant:
        """Admit a data-plane connection as a tenant.

        The tenant is listed immediately (state ``pending``); the feeder
        thread blocks on the producer's header, attaches to the mux when
        it arrives (fixing the tenant's offset at that moment), then
        streams until end-of-stream, error, or drain force-close.
        """
        tenant = self.registry.create(
            name=peer,
            source=f"socket:{peer}",
            pace=pace,
            collector=self._collector(),
            isolate=isolate,
        )

        def closer() -> None:
            # shutdown() unblocks a feeder parked in readline(); close()
            # releases the fd.  Both are safe to call twice.
            try:
                conn.shutdown(socket_module.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

        def feeder() -> None:
            session = None
            try:
                stream = LiveStream(
                    conn.makefile("rb"), reorder_depth=reorder_depth, late=late
                )
                if stream.name != "live":
                    tenant.name = stream.name
                session = self.mux.attach(tenant, closer=closer)
                self._feed(session, stream.events(), pace)
            except ServiceClosed:
                tenant.state = "closed"
                tenant.error = "admissions closed while connecting"
            except Exception as exc:
                if session is None:
                    tenant.state = "failed"
                    tenant.error = str(exc)
            finally:
                closer()

        threading.Thread(
            target=feeder, name=f"feeder-{tenant.tenant_id}", daemon=True
        ).start()
        return tenant

    # -- observability -------------------------------------------------------
    def snapshot(self) -> RunResult:
        """The shared run as it stands: the final result once finished,
        else a mid-flight :meth:`WorkloadRunner.snapshot`.

        Snapshots race benignly with the engine thread; transient
        failures (a dict resized mid-iteration) are retried.
        """
        if self.result is not None:
            return self.result
        for _ in range(3):
            try:
                return self.runner.snapshot()
            except RuntimeError:
                time.sleep(0.01)
        return self.runner.snapshot()

    def engine_stats(self) -> Dict[str, Any]:
        """The ``engine`` section of ``GET /metrics``: the simulator's
        core counters (:meth:`~repro.sim.simulator.Simulator.stats`)
        plus the service-level throughput gauge."""
        stats = self.runner.sim.stats()
        # The control plane has always called this gauge
        # ``pending_events`` (docs/service.md); keep that name stable.
        stats["pending_events"] = stats.pop("pending")
        wall = time.time() - self.started_wall if self.started_wall else 0.0
        stats["events_per_wall_second"] = (
            stats["events_processed"] / wall if wall > 0 else 0.0
        )
        return stats

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: service, engine, and run counters."""
        wall = time.time() - self.started_wall if self.started_wall else 0.0
        return {
            "status": self.status,
            "uptime_wall_seconds": wall,
            "sim_now": self.runner.sim.now(),
            "tenants": self.registry.counts(),
            "engine": self.engine_stats(),
            "run": result_to_dict(self.snapshot()),
        }

    def prometheus(self) -> str:
        """The ``GET /metrics?format=prometheus`` body (text exposition)."""
        from repro.obs.export import prometheus_text

        tenants = []
        for tenant in self.registry.list():
            tenants.append({**tenant.as_dict(), **tenant.collector.headline()})
        return prometheus_text(
            self.engine_stats(), tenants=tenants, status=self.status
        )

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body: liveness plus tenant counts."""
        return json_safe(
            {
                "status": self.status,
                "ok": self.error is None,
                "sim_now": self.runner.sim.now(),
                "tenants": self.registry.counts(),
            }
        )
