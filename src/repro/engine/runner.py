"""End-to-end workload execution: trace in, metrics out.

:class:`WorkloadRunner` assembles the full stack for one experimental
configuration — cluster, DFS with the requested placement policy,
optionally the tiering framework with a downgrade/upgrade policy pair —
replays a :class:`Trace` through it, and returns a :class:`RunResult`
with every metric the paper's figures need.

The four system configurations of Fig 2 / Sec 7.2 map to:

=================  ============================================------
Label              SystemConfig
=================  ==================================================
HDFS               placement="hdfs", no policies
HDFS with Cache    placement="hdfs-cache", no policies
OctopusFS          placement="octopus", no policies
Octopus++          placement="octopus", downgrade/upgrade policies set
=================  ==================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, Optional, Union

from repro.cluster.builder import build_tiered_cluster
from repro.cluster.hardware import get_hierarchy
from repro.common.config import Configuration
from repro.common.units import GB
from repro.core.manager import ReplicationManager
from repro.core.registry import configure_policies
from repro.dfs.client import DFSClient
from repro.dfs.master import Master
from repro.dfs.node_manager import NodeManager
from repro.dfs.placement import (
    HdfsCachePlacementPolicy,
    HdfsPlacementPolicy,
    OctopusPlacementPolicy,
    PlacementPolicy,
    SingleTierPlacementPolicy,
)
from repro.engine.iomodel import IoModel
from repro.engine.metrics import MetricsCollector
from repro.engine.scheduler import TaskScheduler
from repro.sim.simulator import Simulator
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    StreamEvent,
    Trace,
    TraceJob,
    event_time,
)
from repro.workload.streams import TraceStream, WorkloadStream

PLACEMENT_NAMES = ("hdfs", "hdfs-cache", "octopus", "single-hdd")

#: The :meth:`Simulator.stats` counters a :class:`RunResult` keeps.
SIM_COUNTERS = (
    "events_processed",
    "events_cancelled",
    "heap_peak",
    "heap_compactions",
)


@dataclass
class SystemConfig:
    """One experimental configuration of the storage system."""

    label: str = "octopus"
    placement: str = "octopus"
    downgrade: Optional[str] = None
    upgrade: Optional[str] = None
    workers: int = 11
    #: Tier hierarchy preset (see repro.cluster.hardware.hierarchy_names):
    #: "default3" reproduces the paper's memory/SSD/HDD testbed;
    #: "mem-hdd", "nvme4", and "remote5" open other regimes.
    tiers: str = "default3"
    #: I/O pricing model (see repro.engine.iomodel): "snapshot" prices
    #: each operation once at start (the pre-flow behaviour, kept
    #: bit-identical for reproduction); "fairshare" re-solves max-min
    #: fair rates on every flow start/finish and routes Replication
    #: Monitor transfers through the same shared resource graph.
    io_model: str = "snapshot"
    memory_per_node: int = 4 * GB
    task_slots: int = 8
    conf: Dict[str, Any] = field(default_factory=dict)
    seed: int = 7
    #: Tier-aware task placement (see TaskScheduler).  The default False
    #: models the stock tier-unaware Hadoop scheduler the paper's entire
    #: evaluation runs on (Sec 7.2: "current schedulers ... do not
    #: account for the presence of multiple storage tiers"); True is the
    #: future-work mode measured by the scheduler-awareness ablation.
    tier_aware_scheduler: bool = False
    #: AutoCache semantics (Sec 3.3): upgrades create extra cached memory
    #: replicas (instead of moving replicas) and downgrades delete them
    #: (instead of moving them down).  Pair with placement="hdfs".
    cache_mode: bool = False
    #: Named scenario from the registry (repro.workload.scenarios).  When
    #: set and no workload is passed to the runner, the scenario is built
    #: and driven through the streaming path.  ``scenario_params`` may
    #: carry ``seed``/``scale`` plus any scenario-specific parameter.
    scenario: Optional[str] = None
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    #: Policy-preset selection (see repro.core.presets): "auto" picks the
    #: preset registered for ``scenario`` (no-op when none is set, so
    #: every pre-preset configuration reproduces bit-identically), a
    #: preset name forces one, and None/"none" disables presets.  Preset
    #: keys are defaults — anything in ``conf`` wins over them.
    preset: Optional[str] = "auto"
    #: Simulation core selection: "reference" (default) runs the classic
    #: object-per-event loop, kept bit-identical for reproduction;
    #: "fast" swaps in the slab-allocated core (repro.sim.fastsim).  Fast
    #: mode is validated to produce identical simulated metrics — see
    #: docs/benchmarks.md ("Engine modes").
    engine_mode: str = "reference"

    @property
    def uses_manager(self) -> bool:
        """True when a downgrade or upgrade policy is configured."""
        return self.downgrade is not None or self.upgrade is not None

    def build_scenario(self) -> "WorkloadStream":
        """Instantiate the configured scenario stream."""
        if self.scenario is None:
            raise ValueError("SystemConfig.scenario is not set")
        from repro.workload.scenarios import build_scenario

        return build_scenario(self.scenario, **self.scenario_params)

    def resolve_preset(self):
        """The :class:`~repro.core.presets.PolicyPreset` in effect, if any."""
        from repro.core.presets import get_preset, preset_for_scenario

        if self.preset in (None, "none"):
            return None
        if self.preset == "auto":
            return preset_for_scenario(self.scenario)
        return get_preset(self.preset)

    def effective_conf(self) -> Dict[str, Any]:
        """The configuration dict with preset and cache-mode keys folded in."""
        preset = self.resolve_preset()
        conf = dict(preset.conf) if preset is not None else {}
        conf.update(self.conf)
        if self.cache_mode:
            conf.setdefault("manager.cache_mode", True)
            conf.setdefault("downgrade.action", "delete")
        if self.engine_mode not in ("reference", "fast"):
            raise ValueError(
                f"unknown engine_mode {self.engine_mode!r} "
                "(expected 'reference' or 'fast')"
            )
        return conf


@dataclass
class RunResult:
    """Everything measured during one workload run."""

    label: str
    metrics: MetricsCollector
    elapsed: float
    jobs_finished: int
    #: Nominal submission-window end of the workload, in simulation
    #: seconds.  ``None`` means *open-ended*: a header-less live stream
    #: whose end is unknown until exhaustion (the runner rewrites its
    #: duration to the exhaustion time once reached, so completed runs
    #: report a finite value; mid-flight snapshots of a live service may
    #: legitimately carry ``None``).  Never ``inf`` — open-ended
    #: durations serialize as JSON ``null``, not a non-standard
    #: ``Infinity`` token (see docs/benchmarks.md).
    duration: Optional[float] = None
    #: Jobs submitted during replay, counted as the pump applies them.
    jobs_submitted: int = 0
    #: File deletions applied (dataset-lifecycle scenarios only).
    deletions_applied: int = 0
    bytes_upgraded_memory: int = 0
    bytes_downgraded_memory: int = 0
    #: Per-tier movement totals keyed by tier name (JSON-friendly).
    bytes_upgraded_by_tier: Dict[str, int] = field(default_factory=dict)
    bytes_downgraded_by_tier: Dict[str, int] = field(default_factory=dict)
    transfers_committed: int = 0
    #: Contention statistics from the I/O model (see IoModel.io_stats).
    io_stats: Dict[str, Any] = field(default_factory=dict)
    #: Transfer-delay accounting: standalone vs realized transfer time
    #: (they differ only under the fair-share model).
    transfer_ideal_seconds: float = 0.0
    transfer_realized_seconds: float = 0.0
    downgrade_model_accuracy: list = field(default_factory=list)
    upgrade_model_accuracy: list = field(default_factory=list)
    #: Back-pressure observability of the workload pump.  Pump lead is
    #: how far ahead of the simulation clock the next workload event was
    #: when the pump scheduled it (simulation seconds): large leads mean
    #: the generator is comfortably ahead, near-zero leads mean the
    #: simulation is consuming events as fast as they arrive.
    pump_events: int = 0
    pump_lead_mean_seconds: float = 0.0
    pump_lead_max_seconds: float = 0.0
    #: Stream events whose timestamp was already behind the simulation
    #: clock when pumped (clamped to "now"): the live back-pressure case.
    pump_late_events: int = 0
    #: Simulation-time seconds operations spent queued beyond their
    #: ideal device time, keyed by tier name (from IoModel).
    queue_delay_by_tier: Dict[str, float] = field(default_factory=dict)
    #: Live-transport counters (reorder-buffer depth, late/dropped
    #: events) when the workload was a LiveStream; None otherwise.
    live_stats: Optional[Dict[str, Any]] = None
    #: Event-loop counters (:data:`SIM_COUNTERS`) of the simulator.
    sim_counters: Dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> Dict[str, Any]:
        """Every deterministic outcome of the run, JSON-safe and unrounded.

        The one definition of a run's exact outcome: two runs that must
        be bit-identical (an optimisation against its parent, a streamed
        workload against its materialized form) compare equal on it.
        Wall-clock figures, pump back-pressure and live-transport
        counters are left out, because they depend on the host or the
        transport rather than on the simulation.
        """
        metrics = self.metrics
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_finished": self.jobs_finished,
            "deletions_applied": self.deletions_applied,
            "hit_ratio": metrics.hit_ratio(),
            "byte_hit_ratio": metrics.byte_hit_ratio(),
            "task_seconds": metrics.total_task_seconds(),
            "bytes_read": metrics.bytes_read,
            "bytes_written": metrics.bytes_written,
            "elapsed": self.elapsed,
            "transfers_committed": self.transfers_committed,
            "bytes_upgraded_by_tier": self.bytes_upgraded_by_tier,
            "bytes_downgraded_by_tier": self.bytes_downgraded_by_tier,
            "queue_delay_by_tier": self.queue_delay_by_tier,
            "bins": {
                name: [b.jobs_completed, b.mean_completion_time]
                for name, b in metrics.bins.items()
            },
            "io_stats": self.io_stats,
            "sim": self.sim_counters,
        }

    def summary(self) -> Dict[str, Any]:
        """The headline figures, rounded for printing."""
        return {
            "label": self.label,
            "jobs": self.jobs_finished,
            "hit_ratio": round(self.metrics.hit_ratio(), 4),
            "byte_hit_ratio": round(self.metrics.byte_hit_ratio(), 4),
            "task_hours": round(self.metrics.total_task_seconds() / 3600.0, 2),
        }


def make_placement(
    name: str, topology, node_manager: NodeManager, conf: Configuration
) -> PlacementPolicy:
    """Placement policy factory keyed by configuration name."""
    name = name.lower()
    if name == "hdfs":
        return HdfsPlacementPolicy(topology, node_manager, conf)
    if name == "hdfs-cache":
        return HdfsCachePlacementPolicy(topology, node_manager, conf)
    if name == "octopus":
        return OctopusPlacementPolicy(topology, node_manager, conf)
    if name == "single-hdd":
        # Pins to the hierarchy's lowest local tier (HDD in default3).
        return SingleTierPlacementPolicy(topology, node_manager, conf)
    raise ValueError(f"unknown placement {name!r}")


class WorkloadRunner:
    """Builds the system stack and replays a workload through it.

    ``workload`` may be a materialized :class:`Trace`, any
    :class:`WorkloadStream` (scenario, external file, or adapter), or
    ``None`` to build the stream named by ``config.scenario``.

    A :class:`Trace` is wrapped in a :class:`TraceStream`, so every
    workload replays through the same pump: it holds **one** upcoming
    workload event at a time, so memory tracks the live simulation
    state rather than the workload length.
    """

    def __init__(
        self,
        workload: Union[Trace, WorkloadStream, None],
        config: SystemConfig,
    ) -> None:
        if workload is None:
            workload = config.build_scenario()
        elif isinstance(workload, Trace):
            workload = TraceStream(workload)
        elif not isinstance(workload, WorkloadStream):
            raise TypeError(
                f"workload must be a Trace or WorkloadStream, "
                f"not {type(workload).__name__}"
            )
        self.stream: WorkloadStream = workload
        self.duration = workload.duration
        self.jobs_submitted = 0
        self.deletions_applied = 0
        #: Pump instrumentation (see RunResult).
        self.pump_events = 0
        self.pump_lead_total = 0.0
        self.pump_lead_max = 0.0
        self.pump_late_events = 0
        self._stream_exhausted = False
        self.config = config
        self.conf = Configuration(config.effective_conf())
        if config.engine_mode == "fast":
            from repro.sim.fastsim import FastSimulator

            self.sim: Simulator = FastSimulator()
        else:
            self.sim = Simulator()
        self.hierarchy = get_hierarchy(config.tiers)
        overrides = (
            {"MEMORY": config.memory_per_node} if "MEMORY" in self.hierarchy else {}
        )
        self.topology = build_tiered_cluster(
            num_workers=config.workers,
            tiers=self.hierarchy,
            capacity_overrides=overrides,
            task_slots=config.task_slots,
        )
        node_manager = NodeManager(self.topology)
        placement = make_placement(
            config.placement, self.topology, node_manager, self.conf
        )
        self.master = Master(self.topology, placement, self.sim, self.conf)
        self.client = DFSClient(self.master)
        self.iomodel = IoModel(
            self.topology,
            sim=self.sim,
            pricing=config.io_model,
            conf=self.conf,
        )
        self.metrics = MetricsCollector(hierarchy=self.hierarchy)
        self.scheduler = TaskScheduler(
            self.sim,
            self.master,
            self.iomodel,
            self.metrics,
            seed=config.seed,
            tier_aware=config.tier_aware_scheduler,
        )
        self.manager: Optional[ReplicationManager] = None
        if config.uses_manager:
            self.manager = ReplicationManager(
                self.master, self.sim, self.conf, iomodel=self.iomodel
            )
            configure_policies(
                self.manager,
                downgrade=config.downgrade,
                upgrade=config.upgrade,
                seed=config.seed,
            )
        # -- observability (opt-in; absent by default so runs stay
        #    bit-identical).  ``obs.trace`` installs a Tracer on every
        #    decision point; ``obs.sample_interval`` > 0 starts the
        #    simulated-time timeseries sampler.
        self.tracer = None
        self.timeseries = None
        if self.conf.get_bool("obs.trace", False):
            from repro.obs.trace import Tracer

            tracer = self.tracer = Tracer(self.sim.now)
            self.scheduler.tracer = tracer
            self.master.tracer = tracer
            placement.tracer = tracer
            if self.manager is not None:
                self.manager.tracer = tracer
                self.manager.monitor.tracer = tracer
                # configure_policies ran above, so the trainer (if any)
                # already exists.
                if self.manager.trainer is not None:
                    self.manager.trainer.tracer = tracer
        sample = self.conf.get_duration("obs.sample_interval", 0.0)
        if sample > 0:
            from repro.obs.timeseries import TimeseriesRecorder

            self.timeseries = TimeseriesRecorder(self, sample)

    # -- replay --------------------------------------------------------------
    def _pump(self, events: Iterator[StreamEvent]) -> None:
        """Schedule the next stream event; it re-enters the pump when fired.

        The pump holds exactly one upcoming workload event in the heap.
        When it fires, the next one is pulled from the iterator, so the
        workload is consumed in step with simulation time and never
        materialized.  For live sources the ``next()`` call blocks on
        the transport, so simulation progress naturally throttles to
        event arrival.

        Every workload event is scheduled at ``priority=-1``: it wins
        every same-time tie against system events (timers, transfer and
        task completions), whichever was scheduled first.
        """
        event = next(events, None)
        if event is None:
            self._stream_exhausted = True
            return
        now = self.sim.now()
        t = max(event_time(event), 0.0)
        lead = t - now
        self.pump_events += 1
        if lead < 0:
            # The event's timestamp is behind the simulation clock (a
            # live producer falling behind): it fires immediately, at
            # "now".
            self.pump_late_events += 1
            t = now
        else:
            self.pump_lead_total += lead
            if lead > self.pump_lead_max:
                self.pump_lead_max = lead
        self.sim.at(
            t,
            partial(self._fire_and_pump, event, events),
            name="stream-pump",
            priority=-1,
        )

    def _fire_and_pump(self, event: StreamEvent, events: Iterator[StreamEvent]) -> None:
        """Apply one workload event, then schedule the next."""
        self._apply_event(event)
        self._pump(events)

    def _apply_event(self, event: StreamEvent) -> None:
        if isinstance(event, FileCreation):
            self.client.create(event.path, event.size)
        elif isinstance(event, TraceJob):
            self.jobs_submitted += 1
            self.scheduler.submit(event)
        elif isinstance(event, FileDeletion):
            if self.client.exists(event.path):
                self.client.delete(event.path)
                self.deletions_applied += 1
        else:  # pragma: no cover - the stream protocol is closed
            raise TypeError(f"unknown stream event {event!r}")

    def run(self, drain_limit: float = 4 * 3600.0) -> RunResult:
        """Replay the full workload and drain remaining work.

        ``drain_limit`` bounds how long past the trace end the simulation
        may run while jobs and transfers finish.
        """
        self._pump(self.stream.events())
        end = self.duration
        if math.isinf(end):
            # Live stream without a header duration: there is no nominal
            # end time, so the submission window ends when the stream is
            # exhausted.  The pump keeps exactly one upcoming event in
            # the heap while the stream has more, so stepping until
            # exhaustion consumes the whole stream (blocking on the
            # transport as needed) without running periodic timers
            # forever.
            while not self._stream_exhausted and self.sim.step():
                pass
            end = self.duration = self.sim.now()
        else:
            self.sim.run(until=end)
        # Drain: keep running until all jobs finished (or the limit hits).
        deadline = end + drain_limit
        while not self.scheduler.idle and self.sim.now() < deadline:
            if self.sim.pending == 0:
                # No live event will ever fire again (jobs stuck on
                # missing inputs, say): jump straight to the deadline
                # instead of spinning the loop 60 simulated seconds at a
                # time through an empty heap.
                self.sim.run(until=deadline)
                break
            self.sim.run(until=min(self.sim.now() + 60.0, deadline))
        if self.manager is not None:
            self.manager.stop()
        if self.timeseries is not None:
            # Stop sampling (with one final sample) so the quiescence
            # checks below still see an empty heap.
            self.timeseries.stop()
        # Let in-flight transfers conclude so accounting is complete.
        self.sim.run(until=self.sim.now() + 600.0)
        if self.scheduler.idle and self.sim.pending == 0:
            # A fully quiescent end state (no live events at all) must
            # leave no I/O in flight: every stream released, every flow
            # completed, every transfer committed or aborted.  Runs that
            # hit the drain limit with work outstanding are exempt —
            # their streams are legitimately still held.
            self.iomodel.assert_drained()
            if self.manager is not None:
                self.manager.monitor.assert_idle()
        return self.snapshot()

    def snapshot(self) -> RunResult:
        """A :class:`RunResult` view of the run *as it stands now*.

        :meth:`run` returns this at quiescence, but the method is safe to
        call mid-flight — the service mode's control plane reports live
        per-run metrics from it while the engine thread is still
        replaying (see :mod:`repro.service`).  Counters are read
        point-in-time; a concurrent snapshot is a consistent-enough
        observability view, not a transaction.
        """
        sim_stats = self.sim.stats()
        result = RunResult(
            label=self.config.label,
            metrics=self.metrics,
            elapsed=self.sim.now(),
            duration=None if math.isinf(self.duration) else self.duration,
            jobs_finished=self.scheduler.jobs_finished,
            jobs_submitted=self.jobs_submitted,
            deletions_applied=self.deletions_applied,
            io_stats=self.iomodel.io_stats(),
            pump_events=self.pump_events,
            pump_lead_mean_seconds=(
                self.pump_lead_total / self.pump_events if self.pump_events else 0.0
            ),
            pump_lead_max_seconds=self.pump_lead_max,
            pump_late_events=self.pump_late_events,
            queue_delay_by_tier=dict(self.iomodel.queue_delay_by_tier),
            sim_counters={key: sim_stats[key] for key in SIM_COUNTERS},
        )
        live_stats = getattr(self.stream, "live_stats", None)
        if live_stats is not None:
            result.live_stats = live_stats.as_dict()
        if self.manager is not None:
            monitor = self.manager.monitor
            result.transfer_ideal_seconds = monitor.transfer_ideal_seconds
            result.transfer_realized_seconds = monitor.transfer_realized_seconds
            top = self.hierarchy.highest
            result.bytes_upgraded_memory = monitor.bytes_upgraded[top]
            result.bytes_downgraded_memory = monitor.bytes_downgraded[top]
            result.bytes_upgraded_by_tier = {
                t.name: monitor.bytes_upgraded[t] for t in self.hierarchy
            }
            result.bytes_downgraded_by_tier = {
                t.name: monitor.bytes_downgraded[t] for t in self.hierarchy
            }
            result.transfers_committed = monitor.transfers_committed
            trainer = self.manager.trainer
            if trainer is not None:
                result.downgrade_model_accuracy = list(
                    trainer.downgrade_model.accuracy_history
                )
                result.upgrade_model_accuracy = list(
                    trainer.upgrade_model.accuracy_history
                )
        return result


def run_workload(
    workload: Union[Trace, WorkloadStream], config: SystemConfig
) -> RunResult:
    """Convenience wrapper: build a runner and execute it."""
    return WorkloadRunner(workload, config).run()

