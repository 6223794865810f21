"""Picklable per-cell entry point: one canonical cell config in, one row out.

:func:`run_cell` is the single place a sweep cell becomes a simulation:
it builds the workload (scenario stream or synthesized profile trace),
assembles the :class:`~repro.engine.runner.SystemConfig`, runs the
system end to end, and returns a flat JSON-ready **row** — identity
fields plus every deterministic simulated metric the benchmark scripts
report, plus the host-dependent wall/throughput/RSS measurements
(which :data:`repro.sweep.spec.HOST_KEYS` excludes from equivalence
fingerprints).

Because the function is module-level and takes only a plain dict, it
pickles under every multiprocessing start method; the orchestrator's
child processes call :func:`child_main`, which additionally writes the
payload into the store so the parent never has to trust a pipe that a
dying worker might sever mid-message.

Test-only crash hooks (all under reserved ``sweep.*`` conf keys, which
are stripped before the system sees the configuration) let the test
suite kill workers mid-sweep deterministically:

``sweep.test_crash``
    ``"raise"`` (ordinary exception), ``"sigkill"`` (the process dies
    without cleanup — the mid-write/mid-cell crash case), or ``"hang"``
    (sleep forever — exercises the per-cell timeout).
``sweep.test_crash_seed``
    Restrict the hook to cells with this workload seed.
``sweep.test_crash_once_dir``
    Fire at most once per cell: a marker file named after the cell is
    created on the first execution, and later attempts run normally —
    the transient-failure / bounded-retry / resume-recovery case.
``sweep.test_touch_dir``
    Record every execution (marker file per attempt), letting tests
    assert exactly which cells re-ran after ``--resume``.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.common.floats import fold_sum
from repro.common.proc import current_rss_mb

#: Reserved configuration namespace: stripped from the cell's ``conf``
#: before it reaches SystemConfig.
SWEEP_CONF_PREFIX = "sweep."


def _maybe_crash(cell: Mapping[str, Any], conf: Mapping[str, Any]) -> None:
    """Fire the test-only crash hooks, if armed for this cell."""
    hook = conf.get("sweep.test_crash")
    touch_dir = conf.get("sweep.test_touch_dir")
    cell_id = cell_id_of(cell)
    if touch_dir:
        stamp = Path(touch_dir) / f"{cell_id}.{os.getpid()}.{time.time_ns()}"
        stamp.touch()
    if not hook:
        return
    seed_selector = conf.get("sweep.test_crash_seed")
    if seed_selector is not None and cell["seed"] != seed_selector:
        return
    once_dir = conf.get("sweep.test_crash_once_dir")
    if once_dir:
        marker = Path(once_dir) / cell_id
        if marker.exists():
            return
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
    if hook == "raise":
        raise RuntimeError(f"sweep.test_crash: injected failure in {cell_id}")
    if hook == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if hook == "hang":
        time.sleep(3600.0)
        raise RuntimeError("sweep.test_crash: hang hook was not killed")
    raise ValueError(f"unknown sweep.test_crash hook {hook!r}")


def cell_id_of(cell: Mapping[str, Any]) -> str:
    """Recompute the content hash of a canonical cell config."""
    from repro.sweep.spec import cell_hash

    return cell_hash(cell)


def _build_workload(cell: Mapping[str, Any]):
    """The cell's workload: scenario stream, composition, or trace."""
    if cell["kind"] == "scenario":
        from repro.workload.scenarios import build_scenario

        return build_scenario(
            cell["workload"],
            seed=cell["seed"],
            scale=cell["scale"],
            **cell["params"],
        )
    if cell["kind"] == "compose":
        from repro.workload.compose import build_compose

        # Per-leaf seeds/scales live inside the (canonical) spec; the
        # cell-level seed/scale are pinned by make_cell.
        return build_compose(cell["params"]["spec"], name=cell["workload"])
    from repro.workload.profiles import PROFILES, scaled_profile
    from repro.workload.synthesis import synthesize_trace

    profile = scaled_profile(PROFILES[cell["workload"]], cell["scale"])
    return synthesize_trace(profile, seed=cell["seed"])


def _system_config(cell: Mapping[str, Any], conf: Dict[str, Any]):
    """Map the canonical cell onto a SystemConfig."""
    from repro.engine.runner import SystemConfig

    preset = cell.get("preset")
    kwargs: Dict[str, Any] = dict(
        label=f"{cell['workload']}/{cell['io_model']}",
        placement=cell["placement"],
        downgrade=cell["downgrade"],
        upgrade=cell["upgrade"],
        workers=cell["workers"],
        tiers=cell["tiers"],
        io_model=cell["io_model"],
        engine_mode=cell["engine"],
        cache_mode=cell["cache_mode"],
        tier_aware_scheduler=cell["tier_aware"],
        preset=preset,
        conf=conf,
    )
    if cell.get("system_seed") is not None:
        kwargs["seed"] = cell["system_seed"]
    config = SystemConfig(**kwargs)
    if preset == "auto" and cell["kind"] == "scenario":
        # Auto preset selection keys off the scenario name, exactly as
        # `repro scenario run` sets it.
        config.scenario = cell["workload"]
    return config


def run_cell(cell: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one cell and return its flat result row.

    The row carries the cell's identity fields (so reports key and
    group without re-reading the spec), every deterministic simulated
    metric the benchmark scripts use, and the host-dependent
    ``runtime_seconds`` / ``events_per_second`` / ``rss_mb`` triple.
    """
    conf = dict(cell.get("conf") or {})
    _maybe_crash(cell, conf)
    system_conf = {
        k: v for k, v in conf.items() if not k.startswith(SWEEP_CONF_PREFIX)
    }
    from repro.engine.runner import WorkloadRunner

    workload = _build_workload(cell)
    config = _system_config(cell, system_conf)
    runner = WorkloadRunner(workload, config)
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    sim = runner.sim
    events = sim.events_processed
    row: Dict[str, Any] = {
        # identity
        "kind": cell["kind"],
        ("scenario" if cell["kind"] == "scenario" else "workload"): (
            cell["workload"]
        ),
        "params": dict(cell["params"]),
        "engine": cell["engine"],
        "tiers": cell["tiers"],
        "io_model": cell["io_model"],
        "workers": cell["workers"],
        "scale": cell["scale"],
        "seed": cell["seed"],
        "placement": cell["placement"],
        "downgrade": cell["downgrade"],
        "upgrade": cell["upgrade"],
        # simulated results (deterministic, exact-gated)
        "jobs_submitted": result.jobs_submitted,
        "jobs_finished": result.jobs_finished,
        "deletions_applied": result.deletions_applied,
        "hit_ratio": round(result.metrics.hit_ratio(), 6),
        "byte_hit_ratio": round(result.metrics.byte_hit_ratio(), 6),
        "task_hours": round(result.metrics.total_task_seconds() / 3600.0, 4),
        "transfers_committed": result.transfers_committed,
        "events_processed": events,
        "events_cancelled": sim.events_cancelled,
        "heap_compactions": sim.heap_compactions,
        "max_heap_size": sim.max_heap_size,
        "live_pending_at_end": sim.pending,
        "pump_lead_mean_seconds": round(result.pump_lead_mean_seconds, 3),
        "pump_lead_max_seconds": round(result.pump_lead_max_seconds, 3),
        "pump_late_events": result.pump_late_events,
        "queue_delay_seconds": round(fold_sum(result.queue_delay_by_tier.values()), 3),
        # host measurements (informational; never fingerprinted)
        "runtime_seconds": round(wall, 3),
        "events_per_second": round(events / wall, 1) if wall > 0 else 0.0,
        "rss_mb": round(current_rss_mb(), 1),
    }
    timeseries = runner.timeseries
    if timeseries is not None:
        # Sampled cells only: absent keys keep unsampled sweeps on the
        # exact row schema the committed benchmark baselines gate on.
        row["ts_samples"] = timeseries.samples
        row["ts_peak_inflight"] = (
            max(timeseries.inflight) if timeseries.inflight else 0
        )
        for tier_name, peak in sorted(timeseries.peak_utilization().items()):
            row[f"ts_peak_util_{tier_name}"] = peak
    io_stats = result.io_stats
    if io_stats.get("model") == "fairshare":
        row["flow_recomputes"] = io_stats["recomputes"]
        row["max_component"] = io_stats["max_component"]
        row["vector_solves"] = io_stats["vector_solves"]
        row["peak_concurrency"] = io_stats["peak_concurrency"]
    return row


def _payload(
    cell_id: str,
    config: Mapping[str, Any],
    row: Optional[Dict[str, Any]],
    error: Optional[Exception],
) -> Dict[str, Any]:
    """The store payload of one attempt: its row, or the error that ended it."""
    return {
        "cell_id": cell_id,
        "cell": dict(config),
        "status": "ok" if error is None else "failed",
        "attempts": 1,
        "error": None if error is None else f"{type(error).__name__}: {error}",
        "row": row,
    }


def child_main(cell: Mapping[str, Any], store_root: str, name: str) -> int:
    """Subprocess entry: run the cell and persist its payload atomically.

    The store is the result channel — the parent reads the payload back
    from disk after the child exits, so a worker that dies mid-cell
    (crash, SIGKILL, timeout) simply leaves no payload behind and the
    orchestrator charges one failed attempt to that cell alone.
    """
    from repro.sweep.store import SweepStore

    store = SweepStore(store_root, name)
    cell_id = cell_id_of(cell)
    try:
        row = run_cell(cell)
    except Exception as exc:  # deliberate: the payload carries the error
        payload = _payload(cell_id, cell, None, exc)
    else:
        payload = _payload(cell_id, cell, row, None)
    store.write_cell(payload)
    return 0 if payload["status"] == "ok" else 1


def execute_cell(cell, store) -> Dict[str, Any]:
    """In-process execution (the serial path): run, persist, return payload."""
    try:
        row = run_cell(cell.config)
    except Exception as exc:
        payload = _payload(cell.cell_id, cell.config, None, exc)
    else:
        payload = _payload(cell.cell_id, cell.config, row, None)
    store.write_cell(payload)
    return payload
