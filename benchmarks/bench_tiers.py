"""Record tier-hierarchy / I/O-model benchmarks (BENCH_*.json).

Runs the FB workload across tier-hierarchy presets and I/O pricing
models with the LRU/OSA policy pair and records wall-clock runtime, hit
ratios, per-tier movement, and contention / transfer-delay statistics,
so future PRs can track the performance trajectory of the simulator,
the effect of hierarchy depth, and the cost of fair-share re-pricing.
Each row also carries the process RSS right after the run (``rss_mb``,
informational — never gated).

Usage::

    python benchmarks/bench_tiers.py [--out BENCH_tiers.json] [--scale 1.0]
    python benchmarks/bench_tiers.py --presets default3 nvme4 remote5 \\
        --io-models snapshot fairshare --out BENCH_iomodel.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.common.proc import current_rss_mb
from repro.common.units import GB
from repro.engine.iomodel import IO_MODEL_NAMES
from repro.engine.runner import SystemConfig, run_workload
from repro.workload.profiles import PROFILES, scaled_profile
from repro.workload.synthesis import synthesize_trace

DEFAULT_PRESETS = ("default3", "nvme4")


def bench_one(trace, tiers: str, seed: int, io_model: str = "snapshot") -> dict:
    config = SystemConfig(
        label=f"FB/{tiers}/{io_model}/lru-osa",
        placement="octopus",
        downgrade="lru",
        upgrade="osa",
        tiers=tiers,
        io_model=io_model,
        seed=seed,
    )
    start = time.perf_counter()
    result = run_workload(trace, config)
    runtime = time.perf_counter() - start
    outcome = result.fingerprint()
    io_stats = {
        key: (round(value, 3) if isinstance(value, float) else value)
        for key, value in outcome["io_stats"].items()
    }
    return {
        "tiers": tiers,
        "io_model": io_model,
        "runtime_seconds": round(runtime, 3),
        "rss_mb": current_rss_mb(),
        "jobs_finished": outcome["jobs_finished"],
        "hit_ratio": round(outcome["hit_ratio"], 4),
        "byte_hit_ratio": round(outcome["byte_hit_ratio"], 4),
        "location_hit_ratio": round(result.metrics.location_hit_ratio(), 4),
        "task_hours": round(outcome["task_seconds"] / 3600.0, 3),
        "bytes_upgraded_gb": {
            name: round(v / GB, 3)
            for name, v in outcome["bytes_upgraded_by_tier"].items()
        },
        "bytes_downgraded_gb": {
            name: round(v / GB, 3)
            for name, v in outcome["bytes_downgraded_by_tier"].items()
        },
        "transfers_committed": outcome["transfers_committed"],
        "io": io_stats,
        "transfer_ideal_seconds": round(result.transfer_ideal_seconds, 3),
        "transfer_realized_seconds": round(result.transfer_realized_seconds, 3),
        "transfer_delay_seconds": round(
            max(
                0.0,
                result.transfer_realized_seconds - result.transfer_ideal_seconds,
            ),
            3,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_tiers.json"),
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--presets",
        nargs="+",
        default=list(DEFAULT_PRESETS),
        help="tier hierarchy presets to benchmark",
    )
    parser.add_argument(
        "--io-models",
        nargs="+",
        choices=IO_MODEL_NAMES,
        default=["snapshot"],
        help="I/O pricing models to benchmark each preset under",
    )
    args = parser.parse_args(argv)

    trace = synthesize_trace(
        scaled_profile(PROFILES["FB"], args.scale), seed=args.seed
    )
    report = {
        "workload": "FB",
        "scale": args.scale,
        "seed": args.seed,
        "policies": "lru/osa",
        "python": platform.python_version(),
        "runs": [
            bench_one(trace, tiers, args.seed, io_model)
            for tiers in args.presets
            for io_model in args.io_models
        ],
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
