"""Preset tuning sweep: scenario-aware presets vs the paper defaults.

For every scenario with a registered preset
(:mod:`repro.core.presets`), replay the identical stream twice — once
under the default configuration and once under the preset — and record
the figure-level deltas (hit ratio, byte hit ratio, task hours, data
moved).  This is the evidence behind the preset registry: workload-
sensitive tuning moves the figures, and the table shows by how much and
in which direction per load shape.

Run it with ``python -m repro experiment tuning-presets``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.presets import PRESETS, preset_for_scenario
from repro.experiments.common import RowResult, format_table, run_labelled_cells
from repro.experiments.scenarios import _scenario_scale


@dataclass
class PresetDelta:
    """Default-vs-preset figures for one scenario."""

    scenario: str
    default: RowResult
    preset: RowResult
    conf: Dict[str, object]

    @property
    def hit_delta(self) -> float:
        """Preset minus default location hit ratio."""
        return self.preset.metrics.hit_ratio() - self.default.metrics.hit_ratio()

    @property
    def task_hours_delta(self) -> float:
        """Preset minus default task hours."""
        return (
            self.preset.metrics.total_task_seconds()
            - self.default.metrics.total_task_seconds()
        ) / 3600.0


def run_preset_tuning(
    scale: float = 1.0,
    seed: int = 42,
    workers: int = 11,
    policies: Tuple[str, str] = ("lru", "osa"),
    scenarios: Optional[List[str]] = None,
    jobs: int = 1,
) -> List[PresetDelta]:
    """Replay each preset-carrying scenario under default and preset conf.

    The default and tuned legs of every scenario are sweep cells;
    ``jobs > 1`` runs them concurrently (identical figures; the legs are
    independent simulations).
    """
    from repro.sweep import make_cell

    names = scenarios if scenarios is not None else sorted(PRESETS)
    names = [n for n in names if preset_for_scenario(n) is not None]
    downgrade, upgrade = policies
    labelled = [
        (
            f"{name}/{preset or 'default'}",
            make_cell(
                kind="scenario",
                workload=name,
                scale=_scenario_scale(name, scale),
                seed=seed,
                downgrade=downgrade,
                upgrade=upgrade,
                workers=workers,
                preset=preset,
            ),
        )
        for name in names
        for preset in (None, name)
    ]
    rows = run_labelled_cells(labelled, jobs)
    return [
        PresetDelta(
            scenario=name,
            default=rows[2 * i],
            preset=rows[2 * i + 1],
            conf=dict(preset_for_scenario(name).conf),
        )
        for i, name in enumerate(names)
    ]


def render_preset_tuning(deltas: List[PresetDelta]) -> str:
    """One table row per scenario: default and preset figures, deltas and
    the preset's keys."""
    rows = []
    for d in deltas:
        rows.append(
            [
                d.scenario,
                f"{d.default.metrics.hit_ratio():.3f}",
                f"{d.preset.metrics.hit_ratio():.3f}",
                f"{d.hit_delta:+.3f}",
                f"{d.default.metrics.total_task_seconds() / 3600:.2f}",
                f"{d.preset.metrics.total_task_seconds() / 3600:.2f}",
                f"{d.task_hours_delta:+.2f}",
                f"{d.preset.transfers_committed - d.default.transfers_committed:+d}",
                " ".join(
                    f"{k.split('.', 1)[1]}={v:g}" for k, v in sorted(d.conf.items())
                ),
            ]
        )
    return format_table(
        [
            "scenario",
            "hit(def)",
            "hit(pre)",
            "Δhit",
            "task-h(def)",
            "task-h(pre)",
            "Δtask-h",
            "Δxfers",
            "preset keys",
        ],
        rows,
        title="Scenario presets vs paper defaults (identical streams)",
    )
