"""Simulation-engine throughput benchmark (BENCH_engine.json).

Measures the discrete-event core under load: wall-clock runtime and
events/second across cluster sizes and workload scales (job counts),
under both I/O pricing models, plus heap/solver internals (tombstone
compactions, flow recomputes, component sizes, vectorized solves).  The
headline gate is the fair-share re-pricing overhead at full FB scale:
``fairshare_over_snapshot`` must stay at or below the budget recorded in
the report (``FAIRSHARE_BUDGET``), plus the fast-engine verdicts: fast
and reference rows must agree on every simulated metric, and the
10x-scale speedup is recorded per I/O model.

Every row is one :mod:`repro.sweep` cell executed by the shared sweep
worker, so ``--jobs N`` runs each repeat-pass of the matrix across
worker processes (simulated metrics are bit-identical to serial; the
wall-clock fields are per-cell and stay comparable because each cell
still runs on one core).  Rows also carry ``rss_mb`` — the worker
process RSS right after the run — informationally.

Usage::

    python benchmarks/bench_engine.py [--out BENCH_engine.json]
    python benchmarks/bench_engine.py --smoke          # CI-sized subset
    python benchmarks/bench_engine.py --scales 1 10    # add a 10x FB run
    python benchmarks/bench_engine.py --jobs 4         # parallel cells
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.sweep import make_cell, run_rows
from repro.workload.profiles import PROFILES

#: (cluster workers, workload scale, io models, engines) rows of the
#: full matrix.  The fast engine runs where its speedup claim is gated:
#: the full-scale row (equivalence) and the 10x row (throughput).
FULL_MATRIX = (
    {
        "workers": 11,
        "scale": 1.0,
        "io_models": ("snapshot", "fairshare"),
        "engines": ("reference", "fast"),
    },
    {"workers": 33, "scale": 1.0, "io_models": ("snapshot", "fairshare")},
    {"workers": 11, "scale": 3.0, "io_models": ("snapshot", "fairshare")},
    {
        "workers": 33,
        "scale": 10.0,
        "io_models": ("snapshot", "fairshare"),
        "engines": ("reference", "fast"),
    },
)
SMOKE_MATRIX = (
    {
        "workers": 11,
        "scale": 0.15,
        "io_models": ("snapshot", "fairshare"),
        "engines": ("reference", "fast"),
    },
    {
        "workers": 22,
        "scale": 0.3,
        "io_models": ("snapshot", "fairshare"),
        "engines": ("reference", "fast"),
    },
)


#: The established row schema of this report (projection of the sweep
#: worker's superset row; the committed baselines are keyed to it).
#: ``rss_mb`` rides along informationally; the fairshare solver
#: counters are appended when present.
ROW_KEYS = (
    "workload",
    "engine",
    "scale",
    "workers",
    "io_model",
    "seed",
    "runtime_seconds",
    "events_processed",
    "events_per_second",
    "events_cancelled",
    "heap_compactions",
    "max_heap_size",
    "live_pending_at_end",
    "jobs_finished",
    "hit_ratio",
    "byte_hit_ratio",
    "task_hours",
    "transfers_committed",
    "rss_mb",
)
FAIRSHARE_KEYS = (
    "flow_recomputes",
    "max_component",
    "vector_solves",
    "peak_concurrency",
)


def engine_cell(
    workload: str,
    scale: float,
    workers: int,
    io_model: str,
    seed: int,
    engine: str = "reference",
):
    """The sweep cell reproducing one row of this benchmark's matrix."""
    return make_cell(
        kind="profile",
        workload=workload,
        scale=scale,
        seed=seed,
        system_seed=seed,
        downgrade="lru",
        upgrade="osa",
        workers=workers,
        io_model=io_model,
        engine=engine,
    )


def project_row(worker_row: dict) -> dict:
    """Select this report's established fields from the superset row."""
    row = {key: worker_row[key] for key in ROW_KEYS}
    for key in FAIRSHARE_KEYS:
        if key in worker_row:
            row[key] = worker_row[key]
    return row


def matrix_cells(matrix, workload: str, seed: int) -> list:
    """Expand the benchmark matrix into its sweep cells, in row order."""
    return [
        engine_cell(
            workload, spec["scale"], spec["workers"], io_model, seed, engine
        )
        for spec in matrix
        for engine in spec.get("engines", ("reference",))
        for io_model in spec["io_models"]
    ]


def run_matrix(matrix, workload: str, seed: int, repeats: int, jobs: int = 1):
    """Run every cell ``repeats`` times (fastest wall wins per cell).

    With ``jobs > 1`` each repeat-pass fans across worker processes;
    simulated metrics are identical pass to pass (and to serial), so
    best-of-N only selects among wall-clock measurements.
    """
    cells = matrix_cells(matrix, workload, seed)
    best = [None] * len(cells)
    for _ in range(repeats):
        pass_rows = [project_row(row) for row, _ in run_rows(cells, jobs)]
        for i, row in enumerate(pass_rows):
            if best[i] is None or row["runtime_seconds"] < best[i]["runtime_seconds"]:
                best[i] = row
    for row in best:
        print(
            f"  {row['workload']}x{row['scale']:g} "
            f"w={row['workers']} {row['io_model']} "
            f"[{row['engine']}]: {row['runtime_seconds']}s, "
            f"{row['events_per_second']} ev/s"
        )
    return best


#: Fair-share wall-clock budget relative to snapshot at full FB scale.
#: Originally 1.25x (PR 3, measured on the pre-fast-path engine at
#: 1.384s/1.662s).  The PR 6 hot-loop work sped snapshot up ~3x and
#: fairshare ~2.3x (the remaining fair-share cost is the max-min solver
#: itself, untouched by placement/heap optimizations), so the *ratio*
#: re-baselined upward even though both absolute runtimes dropped; the
#: budget is reset to 2.0x to keep a regression tripwire on the solver.
FAIRSHARE_BUDGET = 2.0


def headline_ratio(rows) -> dict:
    """Fair-share wall-clock over snapshot at the reference point.

    The ``FAIRSHARE_BUDGET`` verdict is defined at full FB scale (11
    workers, scale 1.0); smaller smoke runs still report the ratio, but
    fixed per-process overheads dominate there, so no verdict is
    attached.
    """
    candidates = [
        r for r in rows if r["workers"] == 11 and r["engine"] == "reference"
    ]
    if not candidates:
        return {}
    scales = {r["scale"] for r in candidates}
    # The budget is defined at the paper's full FB scale; fall back to
    # the largest scale present for reduced (smoke) matrices.
    reference_scale = 1.0 if 1.0 in scales else max(scales)
    by_model = {
        r["io_model"]: r for r in candidates if r["scale"] == reference_scale
    }
    if "snapshot" not in by_model or "fairshare" not in by_model:
        return {}
    ratio = (
        by_model["fairshare"]["runtime_seconds"]
        / by_model["snapshot"]["runtime_seconds"]
    )
    headline = {
        "scale": reference_scale,
        "snapshot_seconds": by_model["snapshot"]["runtime_seconds"],
        "fairshare_seconds": by_model["fairshare"]["runtime_seconds"],
        "fairshare_over_snapshot": round(ratio, 3),
    }
    if reference_scale >= 1.0:
        headline["budget"] = FAIRSHARE_BUDGET
        headline["within_budget"] = ratio <= FAIRSHARE_BUDGET
    return headline


#: Simulated metrics that must be byte-identical between the engines.
EQUIVALENCE_KEYS = (
    "events_processed",
    "events_cancelled",
    "max_heap_size",
    "heap_compactions",
    "jobs_finished",
    "hit_ratio",
    "byte_hit_ratio",
    "task_hours",
    "transfers_committed",
    "flow_recomputes",
    "max_component",
    "peak_concurrency",
)


def fast_mode_summary(rows) -> dict:
    """Fast-engine verdicts: result equivalence and throughput speedup.

    For every (scale, workers, io_model) cell that ran under both
    engines, the simulated metrics must match exactly (the fast engine
    is an optimization, not an approximation); the speedup is the
    events/second ratio at the largest such scale.  The summary lands in
    the report, so the CI regression gate fails on any equivalence break
    (``fast_matches_reference`` is exact-compared like any other
    simulated metric).
    """
    by_cell: dict = {}
    for r in rows:
        by_cell.setdefault(
            (r["scale"], r["workers"], r["io_model"]), {}
        )[r["engine"]] = r
    paired = {
        cell: engines
        for cell, engines in by_cell.items()
        if "reference" in engines and "fast" in engines
    }
    if not paired:
        return {}
    mismatches = []
    for cell, engines in sorted(paired.items()):
        for key in EQUIVALENCE_KEYS:
            ref, fast = engines["reference"], engines["fast"]
            if key in ref and ref.get(key) != fast.get(key):
                mismatches.append(f"{cell}:{key}")
    top_scale = max(cell[0] for cell in paired)
    speedups = {}
    for cell, engines in sorted(paired.items()):
        if cell[0] != top_scale:
            continue
        ref_evps = engines["reference"]["events_per_second"]
        fast_evps = engines["fast"]["events_per_second"]
        speedups[cell[2]] = {
            "reference_events_per_second": ref_evps,
            "fast_events_per_second": fast_evps,
            "speedup": round(fast_evps / ref_evps, 2) if ref_evps else None,
        }
    return {
        "fast_matches_reference": not mismatches,
        "mismatched_metrics": mismatches,
        "speedup_scale": top_scale,
        "speedup": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
    )
    parser.add_argument("--workload", choices=sorted(PROFILES), default="FB")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="benchmark repetitions per cell (fastest wins)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized subset: small scales, no 10x run",
    )
    parser.add_argument(
        "--scales",
        nargs="+",
        type=float,
        default=None,
        help="override workload scales (11 workers each; replaces the matrix)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per repeat-pass (default 1 = in-process serial)",
    )
    args = parser.parse_args(argv)

    if args.scales is not None:
        matrix = tuple(
            {"workers": 11, "scale": s, "io_models": ("snapshot", "fairshare")}
            for s in args.scales
        )
    else:
        matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    print(f"engine benchmark: {args.workload}, seed {args.seed}")
    rows = run_matrix(
        matrix, args.workload, args.seed, args.repeats, jobs=args.jobs
    )
    report = {
        "benchmark": "engine",
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "headline": headline_ratio(rows),
        "fast_mode": fast_mode_summary(rows),
        "runs": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["headline"], indent=2))
    print(json.dumps(report["fast_mode"], indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
