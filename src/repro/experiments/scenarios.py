"""Scenario sweep: adaptive tiering across every registered load shape.

The paper evaluates on two production-derived traces; this experiment
drives the full scenario library (:mod:`repro.workload.scenarios`)
through three system configurations — static OctopusFS, the classic
LRU+OSA pair, and the learned XGB pair — and reports per-scenario hit
ratios and task hours.  It is the quickest way to see where recency
heuristics hold up (fb, flashcrowd) and where they fall over (mlscan's
epoch-scale cyclic re-reads, oscillating's phase shifts).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import RowResult, format_table, run_labelled_cells
from repro.workload.scenarios import scenario_names

#: Replay scale per scenario kind: the classic traces are dense, the
#: generators are sized by duration — both land in the few-hundred-job
#: range so the sweep stays interactive.
CLASSIC_SCALE = 0.15
GENERATED_SCALE = 0.3

CONFIGS = (
    ("OctopusFS", None, None),
    ("LRU-OSA", "lru", "osa"),
    ("XGB", "xgb", "xgb"),
)


def _scenario_scale(name: str, scale: float) -> float:
    base = CLASSIC_SCALE if name in ("fb", "cmu") else GENERATED_SCALE
    return base * scale


def run_scenarios(
    scale: float = 1.0,
    io_model: str = "snapshot",
    seed: int = 42,
    workers: int = 11,
    jobs: int = 1,
) -> Dict[str, List[RowResult]]:
    """Replay every registered scenario under each policy configuration.

    Each (scenario × configuration) pair is one sweep cell; ``jobs > 1``
    fans them across worker processes, and the figures are the same for
    every ``jobs`` (the simulated metrics are deterministic per cell).
    """
    from repro.sweep import make_cell

    names = scenario_names()
    labelled = [
        (
            label,
            make_cell(
                kind="scenario",
                workload=name,
                scale=_scenario_scale(name, scale),
                seed=seed,
                downgrade=downgrade,
                upgrade=upgrade,
                workers=workers,
                io_model=io_model,
            ),
        )
        for name in names
        for label, downgrade, upgrade in CONFIGS
    ]
    rows = run_labelled_cells(labelled, jobs)
    per_config = len(CONFIGS)
    return {
        name: rows[i * per_config : (i + 1) * per_config]
        for i, name in enumerate(names)
    }


def render_scenarios(results: Dict[str, List[RowResult]]) -> str:
    """One table row per (scenario, configuration) run."""
    rows = []
    for name, runs in results.items():
        for result in runs:
            rows.append(
                [
                    name,
                    result.label,
                    f"{result.jobs_finished}/{result.jobs_submitted}",
                    f"{result.metrics.hit_ratio():.3f}",
                    f"{result.metrics.byte_hit_ratio():.3f}",
                    f"{result.metrics.total_task_seconds() / 3600:.2f}",
                    result.transfers_committed,
                    result.deletions_applied,
                ]
            )
    return format_table(
        ["scenario", "config", "jobs", "hit", "byte-hit", "task-h", "xfers", "dels"],
        rows,
        title="Scenario sweep (streaming replay, per-scenario scale)",
    )
