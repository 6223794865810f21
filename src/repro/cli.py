"""Command-line interface: run workloads, scenarios, and experiments.

Usage::

    python -m repro simulate --workload FB --downgrade xgb --upgrade xgb
    python -m repro scenario list
    python -m repro scenario stats diurnal --param tenants=5
    python -m repro scenario run flashcrowd --downgrade lru --upgrade osa
    python -m repro scenario run --events mytrace.jsonl.gz
    python -m repro scenario run fb --trace trace.jsonl --timeseries ts.json
    python -m repro scenario run compose --spec composition.json
    python -m repro fuzz --budget 50 --freeze-dir tests/regression_scenarios
    python -m repro trace summarize trace.jsonl
    python -m repro scenario run fb --out - | python -m repro live -
    python -m repro experiment fig06 fig07
    python -m repro experiment scenarios --jobs 4
    python -m repro sweep run --smoke --jobs 2 --out report.json
    python -m repro sweep run myspec.json --store sweeps --resume
    python -m repro synthesize --workload CMU --out cmu.jsonl.gz
    python -m repro list scenarios
    python -m repro list-experiments

The ``experiment`` subcommand maps directly onto the per-figure runners
in :mod:`repro.experiments`, printing the same text tables the benchmark
harness emits; ``scenario`` drives the streaming workload subsystem
(:mod:`repro.workload.scenarios`); ``live`` replays a JSONL event
stream arriving over a pipe, FIFO, or socket through the full system
online (:mod:`repro.workload.live`); ``sweep`` fans experiment matrices
across worker processes with a resumable results store
(:mod:`repro.sweep`); ``fuzz`` adversarially searches composed-scenario
space for policy pathologies and freezes found cases as regression
scenarios (:mod:`repro.workload.fuzz`); ``list`` enumerates every
pluggable dimension from one registry helper
(:mod:`repro.common.catalog`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Callable, Dict, Tuple

from repro.cluster.hardware import get_hierarchy, hierarchy_names
from repro.common.catalog import catalog
from repro.common.units import GB
from repro.engine.iomodel import IO_MODEL_NAMES
from repro.engine.runner import SystemConfig
from repro.workload.profiles import PROFILES, scaled_profile
from repro.workload.synthesis import synthesize_trace


def _experiment_registry(
    jobs: int = 1,
) -> Dict[str, Tuple[Callable[[], object], Callable]]:
    """Lazy imports keep CLI startup fast.

    ``jobs`` is threaded into the experiments that can fan their cells
    across worker processes (``scenarios``, ``tuning-presets`` — see
    :mod:`repro.sweep`); the per-figure reproductions stay serial.
    """
    from repro.experiments import ablations as ab
    from repro.experiments import autocache as ac
    from repro.experiments import downgrade_only as dg
    from repro.experiments import endtoend as ee
    from repro.experiments import extended_policies as ep
    from repro.experiments import fault_tolerance as ft
    from repro.experiments import fig02_dfsio as f2
    from repro.experiments import fig05_cdfs as f5
    from repro.experiments import learning_modes as lm
    from repro.experiments import model_eval as me
    from repro.experiments import overheads as oh
    from repro.experiments import preset_tuning as pt
    from repro.experiments import scalability as sc
    from repro.experiments import scenarios as sn
    from repro.experiments import table03_bins as t3
    from repro.experiments import tuning as tu
    from repro.experiments import upgrade_only as ug

    def endtoend_fb():
        return ee.run_endtoend("FB")

    def endtoend_cmu():
        return ee.run_endtoend("CMU")

    return {
        "fig02": (f2.run_fig02, f2.render_fig02),
        "table03": (t3.run_table03, t3.render_table03),
        "fig05": (f5.run_fig05, f5.render_fig05),
        "fig06": (endtoend_fb, ee.render_fig06),
        "fig06-cmu": (endtoend_cmu, ee.render_fig06),
        "fig07": (endtoend_fb, ee.render_fig07),
        "fig07-cmu": (endtoend_cmu, ee.render_fig07),
        "fig08": (endtoend_fb, ee.render_fig08),
        "fig09": (endtoend_fb, ee.render_fig09),
        "fig10": (dg.run_downgrade_only, dg.render_fig10),
        "fig11": (dg.run_downgrade_only, dg.render_fig11),
        "fig12": (ug.run_upgrade_only, ug.render_fig12),
        "table04": (ug.run_upgrade_only, ug.render_table04),
        "fig13": (sc.run_fig13, sc.render_fig13),
        "fig14": (me.run_fig14, me.render_fig14),
        "fig15": (me.run_fig15, me.render_fig15),
        "fig16": (lm.run_fig16, lm.render_fig16),
        "fig17": (lm.run_fig17, lm.render_fig17),
        "overheads": (oh.run_overheads, oh.render_overheads),
        "ablation-thresholds": (
            ab.run_threshold_sweep,
            lambda r: ab.render_ablation(r, "Downgrade threshold sweep"),
        ),
        "ablation-candidates": (
            ab.run_candidate_sweep,
            lambda r: ab.render_ablation(r, "XGB candidate width sweep"),
        ),
        "tuning": (tu.run_tuning, tu.render_tuning),
        "tuning-presets": (
            lambda: pt.run_preset_tuning(jobs=jobs),
            pt.render_preset_tuning,
        ),
        "autocache": (ac.run_autocache, ac.render_autocache),
        "fault-tolerance": (
            ft.run_fault_tolerance,
            ft.render_fault_tolerance,
        ),
        "extended-policies": (
            ep.run_extended_policies,
            ep.render_extended_policies,
        ),
        "scenarios": (
            lambda: sn.run_scenarios(jobs=jobs),
            sn.render_scenarios,
        ),
    }


def cmd_list_experiments(_args: argparse.Namespace) -> int:
    for name in sorted(_experiment_registry()):
        print(name)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry(jobs=args.jobs)
    cache: Dict[int, object] = {}
    for name in args.names:
        if name not in registry:
            print(f"unknown experiment {name!r}; try list-experiments", file=sys.stderr)
            return 2
        runner, renderer = registry[name]
        key = id(runner)
        if key not in cache:
            cache[key] = runner()
        print(renderer(cache[key]))
        print()
    return 0


def _coerce_param(value: str) -> Any:
    """Best-effort numeric coercion for ``--param key=value`` values."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_params(pairs) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = _coerce_param(value.strip())
    return params


def _system_config(args: argparse.Namespace, conf: Dict[str, Any]) -> SystemConfig:
    """Build a SystemConfig from the shared system flags."""
    return SystemConfig(
        label=f"{args.placement}/{args.downgrade}/{args.upgrade}",
        placement=args.placement,
        downgrade=args.downgrade,
        upgrade=args.upgrade,
        workers=args.workers,
        tiers=args.tiers,
        io_model=args.io_model,
        cache_mode=args.cache_mode,
        tier_aware_scheduler=args.tier_aware,
        preset=args.preset,
        engine_mode=args.engine,
        conf=conf,
    )


def _obs_conf(args: argparse.Namespace) -> Dict[str, Any]:
    """Configuration keys implied by the observability output flags.

    Tracing and sampling stay off (and the run bit-identical) unless an
    output file asks for them.
    """
    conf: Dict[str, Any] = {}
    if getattr(args, "trace", None) or getattr(args, "chrome_trace", None):
        conf["obs.trace"] = True
    if getattr(args, "timeseries", None):
        conf["obs.sample_interval"] = args.sample_interval
    return conf


def _export_obs(runner, args: argparse.Namespace) -> None:
    """Write the trace/timeseries outputs requested on the command line."""
    tracer = getattr(runner, "tracer", None)
    if tracer is not None and getattr(args, "trace", None):
        from repro.obs.export import write_jsonl

        count = write_jsonl(tracer.records, args.trace)
        print(f"wrote {count} trace records to {args.trace}", file=sys.stderr)
    if tracer is not None and getattr(args, "chrome_trace", None):
        from repro.obs.export import write_chrome

        count = write_chrome(tracer.records, args.chrome_trace)
        print(
            f"wrote {count} chrome trace events to {args.chrome_trace}",
            file=sys.stderr,
        )
    timeseries = getattr(runner, "timeseries", None)
    if timeseries is not None and getattr(args, "timeseries", None):
        import json

        payload = timeseries.to_dict()
        with open(args.timeseries, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(
            f"wrote {len(payload['t'])} timeseries samples to {args.timeseries}",
            file=sys.stderr,
        )


def _timed_run(runner, args: argparse.Namespace):
    """Execute ``runner.run()``; returns (result, wall seconds).

    With ``--profile`` the run happens under :mod:`cProfile` and the
    hottest functions (by cumulative time) are printed first, so the
    next optimization round is measured rather than guessed.
    """
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        wall_start = time.perf_counter()
        profiler.enable()
        try:
            result = runner.run()
        finally:
            profiler.disable()
        wall = time.perf_counter() - wall_start
        stats = pstats.Stats(profiler, stream=sys.stdout)
        print("-- profile (top 25 by cumulative time) " + "-" * 13)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        return result, wall
    wall_start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - wall_start


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.engine.runner import WorkloadRunner

    profile = scaled_profile(PROFILES[args.workload], args.scale)
    trace = synthesize_trace(profile, seed=args.seed)
    conf = _obs_conf(args)
    if args.outages:
        conf["monitor.health_checks_enabled"] = True
    config = _system_config(args, conf)
    runner = WorkloadRunner(trace, config)
    if args.outages:
        from repro.dfs.faults import FaultInjector

        injector = FaultInjector(runner.sim, runner.master, runner.scheduler)
        injector.schedule_random_outages(
            count=args.outages,
            start=0.15 * trace.duration,
            end=0.75 * trace.duration,
            downtime=1800.0,
            seed=args.seed,
        )
    result, wall = _timed_run(runner, args)
    if args.outages:
        print(
            f"outages:          {injector.stats.failures} "
            f"(lost {injector.stats.replicas_lost} replicas, "
            "repaired "
            f"{runner.manager.monitor.replicas_repaired if runner.manager else 0})"
        )
    _print_run(result, runner, args, wall)
    _export_obs(runner, args)
    return 0


def _print_run(result, runner, args: argparse.Namespace, wall: float) -> None:
    """The shared result report of ``simulate`` and ``scenario run``."""
    print(f"jobs finished:    {result.jobs_finished}/{result.jobs_submitted}")
    print(f"hit ratio:        {result.metrics.hit_ratio():.3f}")
    print(f"byte hit ratio:   {result.metrics.byte_hit_ratio():.3f}")
    print(f"task hours:       {result.metrics.total_task_seconds() / 3600:.2f}")
    print(f"upgraded to mem:  {result.bytes_upgraded_memory / GB:.2f} GB")
    print(f"downgraded:       {result.bytes_downgraded_memory / GB:.2f} GB")
    if result.deletions_applied:
        print(f"files deleted:    {result.deletions_applied}")
    if args.tiers != "default3" and result.bytes_downgraded_by_tier:
        hierarchy = get_hierarchy(args.tiers)
        for tier in hierarchy:
            up = result.bytes_upgraded_by_tier.get(tier.name, 0)
            down = result.bytes_downgraded_by_tier.get(tier.name, 0)
            print(
                f"  tier {tier.name:<7} upgraded-in {up / GB:6.2f} GB, "
                f"downgraded-out {down / GB:6.2f} GB"
            )
    for name, bin_metrics in result.metrics.bins.items():
        if bin_metrics.jobs_completed:
            print(
                f"  bin {name}: {bin_metrics.jobs_completed:4d} jobs, "
                f"mean completion {bin_metrics.mean_completion_time:.1f}s"
            )
    if args.perf:
        sim = runner.sim
        print("-- engine performance " + "-" * 30)
        print(f"wall clock:       {wall:.3f} s")
        print(f"events processed: {sim.events_processed}")
        print(f"events/second:    {sim.events_processed / wall:,.0f}")
        print(f"events cancelled: {sim.events_cancelled}")
        print(f"heap compactions: {sim.heap_compactions}")
        print(
            f"live pending:     {sim.pending} "
            f"(heap {sim.heap_size}, peak {sim.max_heap_size})"
        )
        io_stats = result.io_stats
        if io_stats.get("model") == "fairshare":
            print(f"flow recomputes:  {io_stats['recomputes']}")
            print(f"peak concurrency: {io_stats['peak_concurrency']}")
            print(f"max component:    {io_stats['max_component']}")
            print(f"vector solves:    {io_stats['vector_solves']}")
            print(f"rescheduled:      {io_stats['events_rescheduled']}")
        _print_backpressure(result)


def _print_backpressure(result) -> None:
    """The back-pressure block of ``--perf`` (pump, queues, transport)."""
    lines = []
    if result.pump_events:
        lines.append(
            f"pump lead:        mean {result.pump_lead_mean_seconds:.2f}s, "
            f"max {result.pump_lead_max_seconds:.2f}s "
            f"({result.pump_events} events, {result.pump_late_events} late)"
        )
    delays = {
        name: delay
        for name, delay in result.queue_delay_by_tier.items()
        if delay > 0.0
    }
    if delays:
        rendered = " ".join(f"{name}={delay:.1f}s" for name, delay in delays.items())
        lines.append(f"queue delay/tier: {rendered}")
    if result.live_stats:
        live = result.live_stats
        lines.append(
            f"live transport:   {live['events_received']} received, "
            f"{live['events_reordered']} reordered "
            f"(max disorder {live['max_disorder_seconds']:.1f}s), "
            f"{live['events_late']} late ({live['events_clamped']} clamped, "
            f"{live['events_dropped']} dropped)"
        )
    if lines:
        print("-- back-pressure " + "-" * 35)
        for line in lines:
            print(line)


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list [KIND]``: every registered pluggable, by dimension."""
    names = catalog()
    kinds = [args.kind] if args.kind else sorted(names)
    for kind in kinds:
        if kind not in names:
            print(
                f"unknown dimension {kind!r}; try one of {sorted(names)}",
                file=sys.stderr,
            )
            return 2
        print(f"{kind}: {' '.join(names[kind])}")
    return 0


def _build_stream(args: argparse.Namespace):
    """The stream named by ``scenario``/``--events``/``--spec`` flags."""
    from repro.workload.scenarios import build_scenario

    if getattr(args, "spec", None) or args.name == "compose":
        from repro.workload.compose import build_compose

        if not getattr(args, "spec", None):
            print(
                "the 'compose' pseudo-scenario needs --spec "
                "(inline JSON or a spec file)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        if args.name not in (None, "compose") or getattr(args, "events", None):
            print(
                "--spec composes registered scenarios; it is mutually "
                "exclusive with --events and scenario names other than "
                "'compose'",
                file=sys.stderr,
            )
            raise SystemExit(2)
        # A composition spec carries its own per-leaf seeds/scales/params;
        # the outer generator knobs would be silently ignored, so reject.
        if args.param or args.scale != 1.0:
            print(
                "--scale/--param do not apply to --spec compositions "
                "(set seed/scale/params per leaf inside the spec)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return build_compose(args.spec)
    if getattr(args, "events", None):
        from repro.workload.external import ExternalTraceStream

        if args.name:
            print(
                "--events and a scenario name are mutually exclusive",
                file=sys.stderr,
            )
            raise SystemExit(2)
        # External traces replay verbatim: generator knobs would be
        # silently ignored, so reject them instead.
        if args.param or args.scale != 1.0:
            print(
                "--scale/--param do not apply to --events replays "
                "(external traces replay verbatim)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return ExternalTraceStream(args.events)
    if not args.name:
        print("need a scenario name or --events FILE", file=sys.stderr)
        raise SystemExit(2)
    params = _parse_params(args.param)
    reserved = sorted(set(params) & {"seed", "scale"})
    if reserved:
        print(
            f"use the dedicated --{reserved[0]} flag instead of "
            f"--param {reserved[0]}=...",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return build_scenario(args.name, seed=args.seed, scale=args.scale, **params)


def cmd_scenario_list(_args: argparse.Namespace) -> int:
    """``repro scenario list``: registered scenarios with descriptions."""
    from repro.workload.scenarios import SCENARIOS, scenario_names

    for name in scenario_names():
        scenario = SCENARIOS[name]
        print(f"{name}: {scenario.description}")
        if scenario.defaults:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(scenario.defaults.items()))
            print(f"  params: {pairs}")
    return 0


def cmd_scenario_stats(args: argparse.Namespace) -> int:
    """``repro scenario stats``: one bounded pass of summary statistics."""
    stream = _build_stream(args)
    wall_start = time.perf_counter()
    stats = stream.stats(max_events=args.max_events)
    wall = time.perf_counter() - wall_start
    print(f"scenario:         {stats.name}")
    print(f"duration:         {stats.duration / 3600:.2f} h")
    print(f"events:           {stats.events}")
    print(f"  jobs:           {stats.jobs}")
    print(f"  creations:      {stats.creations}")
    print(f"  deletions:      {stats.deletions}")
    print(f"bytes created:    {stats.bytes_created / GB:.2f} GB")
    print(f"bytes read:       {stats.bytes_read / GB:.2f} GB")
    print(f"bytes written:    {stats.bytes_written / GB:.2f} GB")
    bins = " ".join(f"{k}={v}" for k, v in stats.jobs_per_bin.items())
    print(f"jobs per bin:     {bins}")
    rate = stats.events / wall if wall > 0 else float("inf")
    print(f"generator rate:   {rate:,.0f} events/s")
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """``repro scenario run``: drive a workload stream through the system."""
    from repro.engine.runner import WorkloadRunner

    stream = _build_stream(args)
    if args.out:
        # Export mode: serialize the event stream instead of running the
        # system.  With --out - this is the producing end of the live
        # pipe demo (`... --out - | repro live -`); the end sentinel lets
        # the consumer finish without relying on EOF.
        from repro.workload.serialize import save_events

        written = save_events(stream, args.out, end_sentinel=True)
        print(
            f"wrote {written} events to "
            f"{'stdout' if args.out == '-' else args.out}",
            file=sys.stderr,
        )
        return 0
    config = _system_config(args, conf=_obs_conf(args))
    config.label = stream.name
    # Name the scenario on the config so preset auto-selection applies
    # (external traces carry no scenario name, hence no auto preset).
    config.scenario = args.name
    runner = WorkloadRunner(stream, config)
    result, wall = _timed_run(runner, args)
    print(f"scenario:         {stream.name}")
    preset = config.resolve_preset()
    if preset is not None:
        print(f"preset:           {preset.name}")
    _print_run(result, runner, args, wall)
    _export_obs(runner, args)
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    from repro.engine.runner import WorkloadRunner
    from repro.workload.live import LiveStream

    stream = LiveStream(
        args.source,
        reorder_depth=args.reorder_depth,
        late=args.late,
        name=args.name,
        duration=args.duration,
        compression="gzip" if args.gzip else None,
        pace=args.pace,
    )
    config = _system_config(args, conf=_obs_conf(args))
    config.label = stream.name
    config.scenario = args.scenario
    runner = WorkloadRunner(stream, config)
    try:
        result, wall = _timed_run(runner, args)
    finally:
        stream.close()
    print(f"live stream:      {stream.name}")
    live = stream.live_stats
    print(
        f"events received:  {live.events_received} "
        f"({live.events_late} late, {live.events_dropped} dropped, "
        f"{live.events_clamped} clamped)"
    )
    print(
        f"reordered:        {live.events_reordered} "
        f"(max disorder {live.max_disorder_seconds:.1f}s, "
        f"buffer peak {live.max_buffer_depth}/{stream.reorder_depth})"
    )
    preset = config.resolve_preset()
    if preset is not None:
        print(f"preset:           {preset.name}")
    _print_run(result, runner, args, wall)
    _export_obs(runner, args)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant tiering daemon until drained.

    Binds the data plane (``--port``) and control plane
    (``--control-port``), prints both bound addresses (machine-parsable
    first line), then serves until a graceful shutdown — SIGTERM,
    SIGINT, or ``POST /shutdown`` — drains all tenants, and prints the
    final run summary as JSON.  See ``docs/service.md``.
    """
    import json

    from repro.service import TieringService, result_to_dict

    config = _system_config(args, conf=_obs_conf(args))
    config.label = "service"
    service = TieringService(
        config,
        host=args.host,
        port=args.port,
        control_port=args.control_port,
        pace=args.pace,
        reorder_depth=args.reorder_depth,
        late=args.late,
        drain_grace=args.drain_grace,
        results_log=args.results_log,
    )
    service.install_signal_handlers()
    service.start()
    print(
        f"serving data=tcp://{args.host}:{service.data_port} "
        f"control=http://{args.host}:{service.control_port}",
        flush=True,
    )
    # Poll rather than block indefinitely so SIGTERM/SIGINT handlers
    # run promptly on every platform.
    while service.engine.alive():
        service.wait(timeout=0.5)
    result = service.stop()
    if result is not None:
        print(json.dumps(result_to_dict(result), indent=2))
    _export_obs(service.engine.runner, args)
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """``repro trace summarize``: per-type counts and byte totals."""
    from repro.obs.export import read_jsonl
    from repro.obs.summary import render_summary, summarize

    print(render_summary(summarize(read_jsonl(args.path))))
    return 0


def cmd_trace_explain(args: argparse.Namespace) -> int:
    """``repro trace explain``: one file's decision history."""
    from repro.obs.export import read_jsonl
    from repro.obs.summary import explain, render_explain

    records = read_jsonl(args.path)
    print(render_explain(args.file, explain(records, args.file)))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: adversarial search for policy pathologies.

    Searches composed-scenario parameter space (one bounded
    ``hypothesis`` search per scoring dimension) for workloads that
    cross a pathology threshold.  ``--freeze-dir`` writes each found
    case as a frozen regression scenario; ``--check`` turns the run
    into a CI gate that fails when a found pathology's dimension is not
    pinned by the frozen corpus.
    """
    from repro.workload.fuzz import (
        DEFAULT_THRESHOLDS,
        DIMENSION_NAMES,
        FuzzSystem,
        compose_name,
        find_pathology,
        freeze_case,
        unfrozen,
    )

    thresholds = dict(DEFAULT_THRESHOLDS)
    for pair in args.threshold or ():
        if "=" not in pair:
            print(f"--threshold expects DIM=VALUE, got {pair!r}", file=sys.stderr)
            return 2
        dim, value = pair.split("=", 1)
        if dim not in DIMENSION_NAMES:
            print(
                f"unknown dimension {dim!r}; expected one of "
                f"{list(DIMENSION_NAMES)}",
                file=sys.stderr,
            )
            return 2
        thresholds[dim] = float(value)
    system = FuzzSystem(
        workers=args.workers,
        memory_mb=args.memory_mb,
        downgrade=args.downgrade,
        upgrade=args.upgrade,
        io_model=args.io_model,
    )
    dimensions = args.dimension or list(DIMENSION_NAMES)
    found = []
    for dimension in dimensions:
        pathology = find_pathology(
            dimension,
            seed=args.seed,
            budget=args.budget,
            threshold=thresholds[dimension],
            system=system,
        )
        if pathology is None:
            print(
                f"{dimension}: no case crossed {thresholds[dimension]:g} "
                f"in {args.budget} examples (seed {args.seed})"
            )
            continue
        found.append(pathology)
        print(
            f"{dimension}: {compose_name(pathology.spec)} scores "
            f"{pathology.score:g} >= {pathology.threshold:g} "
            f"({pathology.metric})"
        )
        if args.freeze_dir:
            path = freeze_case(pathology, args.freeze_dir)
            print(f"  frozen: {path}")
    if args.check:
        holes = unfrozen(found, args.check)
        if holes:
            for pathology in holes:
                print(
                    f"UNFROZEN pathology dimension {pathology.dimension!r}: "
                    f"{compose_name(pathology.spec)} scores "
                    f"{pathology.score:g} but no frozen case under "
                    f"{args.check} pins that dimension — freeze it with "
                    f"`repro fuzz --dimension {pathology.dimension} "
                    f"--freeze-dir {args.check}`",
                    file=sys.stderr,
                )
            return 1
        print(
            f"check: every found pathology dimension is pinned under "
            f"{args.check}"
        )
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.workload.serialize import save_events

    if not args.out.endswith((".jsonl", ".jsonl.gz")):
        print(
            f"--out {args.out!r}: traces are written as JSONL; "
            "use a .jsonl or .jsonl.gz path",
            file=sys.stderr,
        )
        return 2
    profile = scaled_profile(PROFILES[args.workload], args.scale)
    trace = synthesize_trace(profile, seed=args.seed)
    save_events(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace.jobs)} jobs, {trace.file_count} files, "
        f"{trace.total_bytes / GB:.1f} GB"
    )
    return 0


def _resolve_spec(args: argparse.Namespace):
    """The SweepSpec named by ``sweep`` flags: builtin, file, or --smoke."""
    from repro.sweep import SweepSpec, builtin_specs

    if getattr(args, "smoke", False):
        if args.spec:
            print("--smoke and an explicit spec are mutually exclusive",
                  file=sys.stderr)
            raise SystemExit(2)
        return builtin_specs()["smoke"]
    if not args.spec:
        print(
            "need a sweep spec: a JSON file, a builtin name "
            f"({' '.join(sorted(builtin_specs()))}), or --smoke",
            file=sys.stderr,
        )
        raise SystemExit(2)
    builtins = builtin_specs()
    if args.spec in builtins:
        return builtins[args.spec]
    if not os.path.exists(args.spec):
        print(
            f"no such sweep spec {args.spec!r} (not a builtin, not a file)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return SweepSpec.from_file(args.spec)


def cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import render_markdown, run_sweep

    spec = _resolve_spec(args)
    report = run_sweep(
        spec,
        store_root=args.store,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.out:
        import json
        from pathlib import Path

        from repro.sweep.store import atomic_write_json

        if args.out == "-":
            print(json.dumps(report, indent=2))
        else:
            atomic_write_json(Path(args.out), report)
            print(f"wrote {args.out}", file=sys.stderr)
    summary = report["summary"]
    print(
        f"sweep {report['name']}: {summary['completed']}/{summary['cells']} "
        f"cells ok, {summary['failed']} failed "
        f"(jobs={report['jobs']}, "
        f"wall {report.get('sweep_wall_seconds', 0.0):.1f}s, "
        f"cell-wall total {summary['wall_seconds_total']:.1f}s)"
    )
    if args.markdown:
        print(render_markdown(report))
    return 1 if summary["failed"] else 0


def cmd_sweep_cells(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    cells = spec.expand()
    for cell in cells:
        print(f"{cell.cell_id}  {cell.label}")
    print(f"{len(cells)} cell(s) (spec {spec.spec_id})", file=sys.stderr)
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, merge_report, render_markdown
    from repro.sweep.store import SweepStore

    store = SweepStore(args.store, args.name)
    manifest = store.manifest()
    if manifest is None:
        print(f"no sweep manifest under {store.dir}", file=sys.stderr)
        return 2
    spec = SweepSpec.from_dict(manifest["spec"])
    payloads = list(store.iter_cells())
    report = merge_report(spec, payloads)
    store.write_report(report)
    print(render_markdown(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (every subcommand wired)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Octopus++ reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-experiments", help="list experiment names")
    p_list.set_defaults(func=cmd_list_experiments)

    p_exp = sub.add_parser("experiment", help="run experiments by name")
    p_exp.add_argument("names", nargs="+")
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the sweep-capable experiments "
            "(scenarios, tuning-presets); default 1 = in-process serial"
        ),
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_catalog = sub.add_parser(
        "list", help="list registered tiers, io-models, scenarios, ..."
    )
    p_catalog.add_argument(
        "kind",
        nargs="?",
        default=None,
        help="one dimension (e.g. scenarios); default: all of them",
    )
    p_catalog.set_defaults(func=cmd_list)

    p_sim = sub.add_parser("simulate", help="run one workload configuration")
    p_sim.add_argument("--workload", choices=sorted(PROFILES), default="FB")
    _add_system_flags(p_sim)
    _add_obs_flags(p_sim)
    p_sim.add_argument("--scale", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument(
        "--outages",
        type=int,
        default=0,
        help="inject this many random 30-minute worker outages",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_scn = sub.add_parser("scenario", help="streaming scenarios: list, stats, run")
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)

    p_scn_list = scn_sub.add_parser(
        "list", help="registered scenarios with their parameters"
    )
    p_scn_list.set_defaults(func=cmd_scenario_list)

    p_scn_stats = scn_sub.add_parser(
        "stats", help="stream a scenario and print summary statistics"
    )
    _add_stream_flags(p_scn_stats)
    p_scn_stats.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="stop after this many events (bounds unbounded streams)",
    )
    p_scn_stats.set_defaults(func=cmd_scenario_stats)

    p_scn_run = scn_sub.add_parser(
        "run", help="drive a scenario (or external trace) through the system"
    )
    _add_stream_flags(p_scn_run)
    _add_system_flags(p_scn_run)
    _add_obs_flags(p_scn_run)
    p_scn_run.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=(
            "serialize the event stream to FILE (JSONL, .gz aware; '-' = "
            "stdout for piping into `repro live -`) instead of running it"
        ),
    )
    p_scn_run.set_defaults(func=cmd_scenario_run)

    p_live = sub.add_parser(
        "live",
        help="replay a JSONL event stream arriving over a pipe/FIFO/socket",
    )
    p_live.add_argument(
        "source",
        help=(
            "event source: '-' (stdin), a file/FIFO path (.gz aware), "
            "tcp://host:port (dial out), or listen://[host:]port (bind "
            "and wait for one producer)"
        ),
    )
    p_live.add_argument(
        "--reorder-depth",
        type=int,
        default=64,
        help="events held for re-sorting out-of-order arrivals (default 64)",
    )
    p_live.add_argument(
        "--late",
        choices=("clamp", "drop", "error"),
        default="clamp",
        help="events later than the reorder bound: clamp to last emitted "
        "time (default), drop, or error out",
    )
    p_live.add_argument(
        "--gzip",
        action="store_true",
        help="gunzip the source on the fly (implied by a .gz path)",
    )
    p_live.add_argument("--name", default=None, help="workload label override")
    p_live.add_argument(
        "--duration",
        type=float,
        default=None,
        help="nominal submission-window end (default: stream header, else "
        "run until the stream is exhausted)",
    )
    p_live.add_argument(
        "--scenario",
        default=None,
        help="scenario name for preset auto-selection (see --preset)",
    )
    p_live.add_argument(
        "--pace",
        type=float,
        default=None,
        help="wall-clock replay speed in simulated seconds per wall "
        "second (1.0 = real time; default: as fast as the source "
        "delivers)",
    )
    _add_system_flags(p_live)
    _add_obs_flags(p_live)
    p_live.set_defaults(func=cmd_live)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived multi-tenant tiering daemon (see docs/service.md)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="data-plane TCP port: each connection is one tenant JSONL "
        "stream session (0 = ephemeral, reported at startup)",
    )
    p_serve.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="HTTP/JSON control-plane port: /healthz /metrics /tenants "
        "(0 = ephemeral, reported at startup)",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for both planes (default loopback)",
    )
    p_serve.add_argument(
        "--pace",
        type=float,
        default=None,
        help="wall-clock pacing applied to every tenant (simulated "
        "seconds per wall second; default: as fast as streams deliver)",
    )
    p_serve.add_argument(
        "--reorder-depth",
        type=int,
        default=64,
        help="per-session reorder buffer (as for `repro live`)",
    )
    p_serve.add_argument(
        "--late",
        choices=("clamp", "drop", "error"),
        default="clamp",
        help="per-session late-event policy (as for `repro live`)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        help="seconds open sessions get to finish after SIGTERM or "
        "POST /shutdown before their transports are force-closed",
    )
    p_serve.add_argument(
        "--results-log",
        default=None,
        metavar="FILE",
        help="append one JSONL record per finished/failed tenant; a "
        "restarted daemon loads the file and reports past tenants "
        "under GET /tenants ('past')",
    )
    _add_system_flags(p_serve)
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel experiment sweeps: run, cells, report",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sweep_run = sweep_sub.add_parser(
        "run", help="execute a sweep spec across worker processes"
    )
    _add_sweep_spec_flags(p_sweep_run)
    p_sweep_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: every available core; 1 = serial "
        "in-process execution)",
    )
    p_sweep_run.add_argument(
        "--resume",
        action="store_true",
        help="skip cells the store already holds as completed (requires "
        "--store and the identical spec)",
    )
    p_sweep_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock limit in seconds (over-deadline workers "
        "are killed and the cell retried; multi-process runs only)",
    )
    p_sweep_run.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-runs allowed after a cell fails or crashes (default 1)",
    )
    p_sweep_run.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="results-store root (sweeps land in DIR/<name>/); default: an "
        "ephemeral temporary store, which disables --resume",
    )
    p_sweep_run.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the merged report JSON here ('-' = stdout)",
    )
    p_sweep_run.add_argument(
        "--markdown",
        action="store_true",
        help="print the merged report as a markdown table",
    )
    p_sweep_run.set_defaults(func=cmd_sweep_run)

    p_sweep_cells = sweep_sub.add_parser(
        "cells", help="expand a spec and list its content-hashed cells"
    )
    _add_sweep_spec_flags(p_sweep_cells)
    p_sweep_cells.set_defaults(func=cmd_sweep_cells)

    p_sweep_report = sweep_sub.add_parser(
        "report", help="re-merge a stored sweep into its report"
    )
    p_sweep_report.add_argument("name", help="sweep name (store subdirectory)")
    p_sweep_report.add_argument(
        "--store", default="sweeps", metavar="DIR", help="results-store root"
    )
    p_sweep_report.set_defaults(func=cmd_sweep_report)

    p_trace = sub.add_parser(
        "trace",
        help="inspect a decision trace written with --trace (summarize, explain)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_trace_sum = trace_sub.add_parser(
        "summarize", help="record counts, byte totals, and time span"
    )
    p_trace_sum.add_argument("path", help="trace JSONL file (.gz aware)")
    p_trace_sum.set_defaults(func=cmd_trace_summarize)

    p_trace_explain = trace_sub.add_parser(
        "explain",
        help="reconstruct one file's placement→migration history",
    )
    p_trace_explain.add_argument("path", help="trace JSONL file (.gz aware)")
    p_trace_explain.add_argument("file", help="DFS file path to explain")
    p_trace_explain.set_defaults(func=cmd_trace_explain)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="adversarial search for policy pathologies over composed "
        "scenarios (see docs/scenarios.md)",
    )
    p_fuzz.add_argument(
        "--dimension",
        action="append",
        choices=("churn", "starvation", "regret"),
        help="scoring dimension(s) to search (repeatable; default: all)",
    )
    p_fuzz.add_argument(
        "--budget",
        "--max-examples",
        dest="budget",
        type=int,
        default=50,
        help="hypothesis examples per dimension (default 50; each example "
        "is one or more sub-second simulation runs)",
    )
    p_fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="search seed (fixed seed + fixed budget = deterministic "
        "search for a given hypothesis version)",
    )
    p_fuzz.add_argument(
        "--threshold",
        action="append",
        metavar="DIM=VALUE",
        help="override a dimension's pathology threshold (repeatable)",
    )
    p_fuzz.add_argument(
        "--freeze-dir",
        default=None,
        metavar="DIR",
        help="write each found case as a frozen regression scenario "
        "(tests/regression_scenarios for the tier-1 corpus)",
    )
    p_fuzz.add_argument(
        "--check",
        default=None,
        metavar="DIR",
        help="CI gate: exit 1 if a found pathology's dimension is not "
        "pinned by any frozen case under DIR",
    )
    p_fuzz.add_argument(
        "--workers", type=int, default=3, help="cluster size candidates run on"
    )
    p_fuzz.add_argument(
        "--memory-mb",
        type=int,
        default=512,
        help="top-tier capacity per node in MB (deliberately small: "
        "pathologies need tier pressure to manifest)",
    )
    p_fuzz.add_argument("--downgrade", default="lru")
    p_fuzz.add_argument("--upgrade", default="osa")
    p_fuzz.add_argument(
        "--io-model",
        choices=IO_MODEL_NAMES,
        default="snapshot",
        help="I/O pricing model candidates run under (frozen cases pin "
        "observed scores under both models regardless)",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_syn = sub.add_parser("synthesize", help="export a synthesized trace")
    p_syn.add_argument("--workload", choices=sorted(PROFILES), default="FB")
    p_syn.add_argument("--scale", type=float, default=1.0)
    p_syn.add_argument("--seed", type=int, default=42)
    p_syn.add_argument(
        "--out",
        required=True,
        help="output path (.jsonl, or .jsonl.gz for gzip)",
    )
    p_syn.set_defaults(func=cmd_synthesize)
    return parser


def _add_sweep_spec_flags(parser: argparse.ArgumentParser) -> None:
    """Flags naming a sweep spec: builtin name, JSON file, or --smoke."""
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="builtin spec name (see: repro list sweeps) or a JSON spec file",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorthand for the builtin CI-sized 'smoke' spec (~12 cells)",
    )


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    """Flags selecting a workload stream: a named scenario or a file."""
    parser.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered scenario name (see: repro scenario list)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="ingest an external CSV/JSONL(.gz) trace instead of a scenario "
        "(formerly --trace, which now names the decision-trace output)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        help="scenario seed (unused with --events: external traces are fixed)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="length multiplier (duration for generators, jobs for fb/cmu)",
    )
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="SPEC",
        help="composition spec: inline JSON, a spec file, or a frozen "
        "regression case (use with the pseudo-scenario 'compose'; "
        "see docs/scenarios.md, 'Composition algebra')",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability outputs shared by simulate/scenario run/live/serve.

    All default to off; the run is bit-identical without them (tracing
    appends records but schedules nothing, sampling only starts when
    ``--timeseries`` asks for an output).
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the decision trace (placements, migrations, policy "
        "decisions) as JSONL (.gz aware) when the run finishes",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="FILE",
        help="also export the trace as Chrome trace-event JSON "
        "(load in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--timeseries",
        default=None,
        metavar="FILE",
        help="sample per-tier occupancy/queue-delay/hit-ratio at a fixed "
        "simulated-time interval and write the columnar JSON here",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="simulated seconds between timeseries samples (default 300)",
    )


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    """The system-configuration flags shared by simulate/scenario run."""
    parser.add_argument("--placement", default="octopus")
    parser.add_argument("--downgrade", default=None)
    parser.add_argument("--upgrade", default=None)
    parser.add_argument("--workers", type=int, default=11)
    parser.add_argument(
        "--tiers",
        choices=hierarchy_names(),
        default="default3",
        help="tier hierarchy preset (default3 = the paper's memory/SSD/HDD)",
    )
    parser.add_argument(
        "--io-model",
        choices=IO_MODEL_NAMES,
        default="snapshot",
        help=(
            "I/O pricing: snapshot = price once at operation start "
            "(pre-flow behaviour, bit-identical); fairshare = max-min "
            "fair re-pricing with shared remote-endpoint/rack resources"
        ),
    )
    parser.add_argument(
        "--cache-mode",
        action="store_true",
        help="AutoCache semantics: upgrades copy, downgrades delete",
    )
    parser.add_argument(
        "--tier-aware",
        action="store_true",
        help="tier-aware task scheduler (default: stock tier-unaware)",
    )
    parser.add_argument(
        "--preset",
        default="auto",
        help=(
            "policy preset: 'auto' (default) applies the preset registered "
            "for the scenario being run, 'none' disables presets, or name "
            "one explicitly (see: repro list presets)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("reference", "fast"),
        default="reference",
        help=(
            "simulation core: reference = classic object-per-event loop "
            "(default, bit-identical reproduction); fast = slab-allocated "
            "events with batched fast paths (validated metric-identical)"
        ),
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help=(
            "print engine performance counters after the run "
            "(events/sec, heap compactions, flow re-solve statistics)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under cProfile and print the hottest functions by "
            "cumulative time (measure before optimizing)"
        ),
    )


def main(argv=None) -> int:
    """CLI entry point: parse, dispatch, and map errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        # Point stdout at /dev/null so the interpreter's shutdown flush
        # does not hit EPIPE again (which would override this clean exit
        # with status 120 and stderr noise).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
