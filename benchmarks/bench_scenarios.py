"""Streaming-scenario benchmark (BENCH_scenarios.json).

Replays every registered scenario through the streaming drive path
under both I/O pricing models and records, per run:

* the deterministic simulation results (jobs, hit ratios, transfers,
  deletions, events processed) — gated *exactly* by
  ``check_regression.py`` against the committed baseline;
* generator/engine throughput (``events_per_second``) and the process
  RSS measured right after each run (``rss_mb``, from
  ``/proc/self/status`` via :func:`repro.common.proc.current_rss_mb`)
  — informational, since streamed replay is the memory-boundedness
  story: per-run RSS must not scale with stream length.  (``ru_maxrss``
  would be useless here — it is a process-lifetime high-water mark, so
  one big early run would mask everything after it.);
* the back-pressure counters (``pump_lead_{mean,max}_seconds``,
  ``pump_late_events``, ``queue_delay_seconds``) — deterministic
  simulation-time values, exact-gated.

Each run is one :mod:`repro.sweep` cell: the rows come from the shared
sweep worker (:func:`repro.sweep.worker.run_cell`), so ``--jobs N``
fans the matrix across worker processes through the sweep orchestrator
with bit-identical simulated metrics (only the host-dependent wall /
throughput / RSS fields differ between serial and parallel execution).

Usage::

    python benchmarks/bench_scenarios.py [--out BENCH_scenarios.json]
    python benchmarks/bench_scenarios.py --smoke      # CI-sized subset
    python benchmarks/bench_scenarios.py --scenarios pipeline mlscan
    python benchmarks/bench_scenarios.py --jobs 4     # parallel cells
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.sweep import make_cell, run_rows
from repro.workload.scenarios import scenario_names

#: Replay scale per mode: classic (fb/cmu) scales job count, generated
#: scenarios scale duration.
FULL_SCALES = {"classic": 1.0, "generated": 1.0}
SMOKE_SCALES = {"classic": 0.1, "generated": 0.15}

IO_MODELS = ("snapshot", "fairshare")

#: The established row schema of this report (projection of the sweep
#: worker's superset row; the committed baselines are keyed to it).
ROW_KEYS = (
    "scenario",
    "io_model",
    "scale",
    "seed",
    "workers",
    "jobs_submitted",
    "jobs_finished",
    "deletions_applied",
    "hit_ratio",
    "byte_hit_ratio",
    "task_hours",
    "transfers_committed",
    "events_processed",
    "runtime_seconds",
    "events_per_second",
    "rss_mb",
    "pump_lead_mean_seconds",
    "pump_lead_max_seconds",
    "pump_late_events",
    "queue_delay_seconds",
)


def scenario_cell(name: str, scale: float, io_model: str, seed: int, workers: int):
    """The sweep cell reproducing one row of this benchmark's matrix."""
    return make_cell(
        kind="scenario",
        workload=name,
        scale=scale,
        seed=seed,
        downgrade="lru",
        upgrade="osa",
        workers=workers,
        io_model=io_model,
    )


def project_row(worker_row: dict) -> dict:
    """Select this report's established fields from the superset row."""
    return {key: worker_row[key] for key in ROW_KEYS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_scenarios.json")
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized scales (see SMOKE_SCALES)"
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        help="subset of scenarios (default: every registered one)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=11)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the matrix (default 1 = in-process serial)",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else FULL_SCALES
    names = args.scenarios or scenario_names()
    cells = [
        scenario_cell(
            name,
            scales["classic" if name in ("fb", "cmu") else "generated"],
            io_model,
            args.seed,
            args.workers,
        )
        for name in names
        for io_model in IO_MODELS
    ]
    rows = [project_row(row) for row, _ in run_rows(cells, args.jobs)]
    for row in rows:
        print(
            f"{row['scenario']:12s} {row['io_model']:9s} scale={row['scale']:g} "
            f"jobs={row['jobs_finished']}/{row['jobs_submitted']} "
            f"hit={row['hit_ratio']:.3f} "
            f"{row['events_per_second']:>9,.0f} ev/s "
            f"rss={row['rss_mb']:.0f}MB"
        )

    report = {
        "benchmark": "scenarios",
        "seed": args.seed,
        "python": platform.python_version(),
        "runs": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({len(rows)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
