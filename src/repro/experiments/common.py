"""Shared experiment plumbing: scales, configurations, table rendering.

The paper's full workloads (1000/800 jobs over 6 hours) run in tens of
seconds in this simulator; ``ExperimentScale`` lets the benchmark harness
trade fidelity for speed (CI runs use ``scale < 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.engine.runner import RunResult, SystemConfig
from repro.workload.jobs import Trace
from repro.workload.profiles import PROFILES, WorkloadProfile, scaled_profile
from repro.workload.synthesis import synthesize_trace


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that shrink experiments for quick runs."""

    workload_scale: float = 1.0
    seed: int = 42

    def profile(self, name: str) -> WorkloadProfile:
        profile = PROFILES[name]
        if self.workload_scale != 1.0:
            profile = scaled_profile(profile, self.workload_scale)
        return profile


#: Default scale used by the benchmark harness: the paper's full
#: workloads (they complete in well under a minute per configuration).
FULL_SCALE = ExperimentScale(workload_scale=1.0)

#: Reduced scale for smoke runs.
SMOKE_SCALE = ExperimentScale(workload_scale=0.15)


def make_trace(
    workload: str,
    scale: ExperimentScale = FULL_SCALE,
    drift: bool = True,
) -> Trace:
    """Synthesize the named workload ("FB" or "CMU") at ``scale``.

    ``drift=False`` produces a stationary variant (no popularity rotation
    or period stretch) for experiments that isolate model capacity from
    workload evolution (Figs 14-15).
    """
    return synthesize_trace(scale.profile(workload), seed=scale.seed, drift=drift)


def standard_configs(
    workers: int = 11, io_model: str = "snapshot"
) -> List[SystemConfig]:
    """The Sec 7.2 comparison set: baselines plus the four policy pairs."""
    return [
        SystemConfig(
            label="HDFS", placement="hdfs", workers=workers, io_model=io_model
        ),
        SystemConfig(
            label="OctopusFS", placement="octopus", workers=workers,
            io_model=io_model,
        ),
        SystemConfig(
            label="LRU-OSA", placement="octopus", downgrade="lru",
            upgrade="osa", workers=workers, io_model=io_model,
        ),
        SystemConfig(
            label="LRFU", placement="octopus", downgrade="lrfu",
            upgrade="lrfu", workers=workers, io_model=io_model,
        ),
        SystemConfig(
            label="EXD", placement="octopus", downgrade="exd",
            upgrade="exd", workers=workers, io_model=io_model,
        ),
        SystemConfig(
            label="XGB", placement="octopus", downgrade="xgb",
            upgrade="xgb", workers=workers, io_model=io_model,
        ),
    ]


def run_labelled_cells(labelled_cells, jobs: int):
    """Run ``(label, cell)`` pairs through the sweep orchestrator.

    Returns one :class:`RunResult` per pair, in order, rebuilt from the
    cell's fingerprint; a failed cell raises (see :func:`repro.sweep.run_rows`).
    """
    from repro.sweep import run_rows

    outcomes = run_rows([cell for _, cell in labelled_cells], jobs)
    return [
        RunResult.from_fingerprint(fingerprint, label)
        for (label, _), (_, fingerprint) in zip(labelled_cells, outcomes)
    ]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table (the harness prints these)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def percent(value: float) -> str:
    return f"{value:.1f}%"
