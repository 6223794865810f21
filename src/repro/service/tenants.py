"""Tenant identity, lifecycle, and per-tenant metric projections.

A *tenant* is one workload stream admitted into the shared simulated
cluster: a socket session on the data plane, or an inline/scenario
submission through the control plane.  The registry hands out ids,
tracks lifecycle state, and owns each tenant's private
:class:`~repro.engine.metrics.MetricsCollector` — the per-tenant
projection of the shared run that ``GET /tenants/<id>/metrics`` serves.

Job→tenant routing works by *tagging*: the mux stamps every
:class:`~repro.workload.jobs.TraceJob` it emits with its tenant (jobs
are per-stream objects, never shared, so the attribute is private to
the session), and the scheduler's per-job fanout
(:attr:`~repro.engine.scheduler.TaskScheduler.metrics_for_job`) follows
the tag back to the tenant's collector.  Tenant-local job ids are left
untouched — nothing in the engine keys on them, and preserving them is
what makes a single-tenant served run event-for-event identical to the
offline ``repro live`` replay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.metrics import MetricsCollector

#: Private attribute the mux stamps on emitted jobs to route per-tenant
#: metrics (see :func:`tenant_collector_for_job`).
SERVICE_TENANT_ATTR = "_service_tenant"

#: Tenant lifecycle states, in the order they normally occur.
#: ``pending`` — admitted by the registry, transport not yet attached
#: (socket sessions wait here until the producer's header arrives);
#: ``streaming`` — events flowing into the shared cluster;
#: ``finished`` — stream ended cleanly (end sentinel or EOF);
#: ``failed`` — transport or decode error (the shared cluster keeps
#: running; only this tenant stops);
#: ``closed`` — force-closed by drain before the stream ended.
TENANT_STATES = ("pending", "streaming", "finished", "failed", "closed")


@dataclass
class Tenant:
    """One admitted workload stream and its private accounting."""

    #: Registry-assigned id (``t1``, ``t2``, ...), the control-plane key.
    tenant_id: str
    #: Display name (stream header name, scenario name, or peer address).
    name: str
    #: Where the stream came from: ``socket:<peer>``, ``inline``, or
    #: ``scenario:<name>``.
    source: str
    #: Lifecycle state, one of :data:`TENANT_STATES`.
    state: str = "pending"
    #: Simulation time at admission: every event time in this tenant's
    #: stream is shifted by this offset onto the shared cluster clock.
    offset: float = 0.0
    #: Wall-clock replay pacing applied to this tenant's feeder (None =
    #: as fast as the transport delivers).
    pace: Optional[float] = None
    #: Path-namespace prefix (``/t1``): tenants share one DFS namespace,
    #: so by default the service scopes every path in a tenant's stream
    #: under its id — two tenants replaying the *same* scenario would
    #: otherwise collide on file creation.  Empty = no rewriting
    #: (``isolate=false`` at admission), which is what makes a
    #: single-tenant served run byte-identical to the offline replay.
    prefix: str = ""
    #: Events emitted into the shared cluster on this tenant's behalf.
    events_emitted: int = 0
    #: Jobs among those events (the submission count).
    jobs_submitted: int = 0
    #: First transport/decode error, when ``state == "failed"``.
    error: Optional[str] = None
    #: Wall time of admission (:func:`time.time`), for operator display.
    admitted_wall: float = field(default_factory=time.time)
    #: This tenant's isolated metrics projection: the scheduler records
    #: every task read, write, and completion of the tenant's jobs here
    #: *in addition to* the shared run collector.
    collector: MetricsCollector = field(default_factory=MetricsCollector)

    def as_dict(self) -> Dict[str, Any]:
        """Control-plane projection (``GET /tenants``)."""
        return {
            "id": self.tenant_id,
            "name": self.name,
            "source": self.source,
            "state": self.state,
            "offset": self.offset,
            "pace": self.pace,
            "prefix": self.prefix,
            "events_emitted": self.events_emitted,
            "jobs_submitted": self.jobs_submitted,
            "jobs_finished": self.collector.jobs_completed,
            "error": self.error,
        }

    def metrics_dict(self) -> Dict[str, Any]:
        """Per-tenant :class:`~repro.engine.runner.RunResult`-style
        projection (``GET /tenants/<id>/metrics``)."""
        collector = self.collector
        return {
            "tenant": self.as_dict(),
            "jobs_finished": collector.jobs_completed,
            **collector.headline(),
            "bytes_read_memory": collector.bytes_read_memory,
            "mean_completion_times": collector.mean_completion_times(),
        }


def tenant_collector_for_job(trace_job) -> Optional[MetricsCollector]:
    """The scheduler fanout hook: the tagged tenant's collector, if any.

    Wired as :attr:`~repro.engine.scheduler.TaskScheduler.metrics_for_job`
    by :class:`~repro.service.engine.ServiceEngine`; returns None for
    untagged jobs so non-service paths are unaffected.
    """
    tenant = getattr(trace_job, SERVICE_TENANT_ATTR, None)
    return tenant.collector if tenant is not None else None


class TenantRegistry:
    """Thread-safe tenant directory for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}
        self._next = 1

    def create(
        self,
        name: str,
        source: str,
        pace: Optional[float] = None,
        collector: Optional[MetricsCollector] = None,
        isolate: bool = True,
    ) -> Tenant:
        """Admit a new tenant (state ``pending``) and return it.

        ``isolate`` (the default) scopes the tenant's paths under
        ``/<tenant-id>`` — see :attr:`Tenant.prefix`.
        """
        with self._lock:
            tenant_id = f"t{self._next}"
            self._next += 1
            tenant = Tenant(
                tenant_id=tenant_id,
                name=name,
                source=source,
                pace=pace,
                prefix=f"/{tenant_id}" if isolate else "",
                collector=collector if collector is not None else MetricsCollector(),
            )
            self._tenants[tenant_id] = tenant
            return tenant

    def get(self, tenant_id: str) -> Optional[Tenant]:
        """The tenant with ``tenant_id``, or None."""
        with self._lock:
            return self._tenants.get(tenant_id)

    def list(self) -> List[Tenant]:
        """All tenants in admission order."""
        with self._lock:
            return list(self._tenants.values())

    def counts(self) -> Dict[str, int]:
        """Tenant counts by lifecycle state (plus ``total``)."""
        with self._lock:
            counts = {state: 0 for state in TENANT_STATES}
            for tenant in self._tenants.values():
                counts[tenant.state] += 1
            counts["total"] = len(self._tenants)
            return counts
