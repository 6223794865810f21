"""Fleet-scale parallel sweeps: declarative specs, a multiprocess
orchestrator, and a resumable on-disk results store.

The paper's evaluation is a matrix — policies × workloads × cluster
scales × tuning knobs — and this package turns that matrix into cheap,
restartable compute: :class:`SweepSpec` (:mod:`repro.sweep.spec`)
expands cross-products into content-hashed cells,
:func:`run_sweep` (:mod:`repro.sweep.orchestrator`) fans them across
worker processes with crash isolation / per-cell timeouts / bounded
retry, :class:`SweepStore` (:mod:`repro.sweep.store`) persists each
cell atomically so ``--resume`` skips finished work, and
:mod:`repro.sweep.report` merges everything into one gateable report.

Entry points: ``repro sweep run|cells|report`` on the CLI; ``--jobs``
on ``benchmarks/bench_scenarios.py`` / ``bench_engine.py`` and on
``repro experiment scenarios`` / ``tuning-presets``.
"""

from repro.sweep.orchestrator import default_jobs, run_cells, run_rows, run_sweep
from repro.sweep.report import merge_report, render_markdown, report_fingerprints
from repro.sweep.spec import (
    Cell,
    SweepSpec,
    builtin_specs,
    cell_hash,
    fingerprint,
    make_cell,
    parse_policy,
)
from repro.sweep.store import SweepStore
from repro.sweep.worker import run_cell

__all__ = [
    "Cell",
    "SweepSpec",
    "SweepStore",
    "builtin_specs",
    "cell_hash",
    "default_jobs",
    "fingerprint",
    "make_cell",
    "merge_report",
    "parse_policy",
    "render_markdown",
    "report_fingerprints",
    "run_cell",
    "run_cells",
    "run_rows",
    "run_sweep",
]
