"""The benchmark regression gate must notice rows, not just leaves.

Regression test for the silent-row-loss gap: a benchmark row whose
leaves are all informational (``rss_mb``, ``events_per_second``, ...)
used to vanish from a report without tripping the gate, because every
per-leaf presence mismatch was classified "info".  The row-presence
check compares the *row sets* of the two reports in both directions.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    path = REPO_ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_regression"] = module
    spec.loader.exec_module(module)
    return module


def _row(workload, **extra):
    row = {
        "workload": workload,
        "io_model": "snapshot",
        "hit_ratio": 0.5,
        "rss_mb": 100.0,
    }
    row.update(extra)
    return row


def _report(*rows):
    return {"runs": list(rows)}


class TestRowPresence:
    def test_identical_reports_pass(self, gate):
        report = _report(_row("FB"), _row("CC"))
        diffs = list(gate.compare_report(report, _report(*report["runs"]), 3.0))
        assert all(d.ok for d in diffs)

    def test_current_missing_a_baseline_row_fails(self, gate):
        baseline = _report(_row("FB"), _row("CC"))
        current = _report(_row("FB"))
        bad = [d for d in gate.compare_report(baseline, current, 3.0) if not d.ok]
        assert any(d.kind == "row-presence" and "CC" in d.key for d in bad)

    def test_baseline_missing_a_current_row_fails(self, gate):
        baseline = _report(_row("FB"))
        current = _report(_row("FB"), _row("CC"))
        bad = [d for d in gate.compare_report(baseline, current, 3.0) if not d.ok]
        assert any(d.kind == "row-presence" and "CC" in d.key for d in bad)

    def test_informational_only_row_loss_still_fails(self, gate):
        # The original gap: every leaf of the lost row is informational,
        # so no per-leaf comparison would have failed.
        info_row = {
            "workload": "CC",
            "io_model": "snapshot",
            "rss_mb": 64.0,
            "events_per_second": 1e6,
        }
        baseline = _report(_row("FB"), info_row)
        current = _report(_row("FB"))
        bad = [d for d in gate.compare_report(baseline, current, 3.0) if not d.ok]
        assert any(d.kind == "row-presence" for d in bad)

    def test_leaf_drift_is_still_exact_gated(self, gate):
        baseline = _report(_row("FB"))
        current = _report(_row("FB", hit_ratio=0.6))
        bad = [d for d in gate.compare_report(baseline, current, 3.0) if not d.ok]
        assert any(d.kind == "exact" for d in bad)
        assert not any(d.kind == "row-presence" for d in bad)

    def test_row_groups_collects_nested_prefixes(self, gate):
        flat = {"suites[a].runs[b].hit_ratio": 1}
        assert gate.row_groups(flat) == {"suites[a]", "suites[a].runs[b]"}


class TestGateEndToEnd:
    def test_main_exit_codes(self, gate, tmp_path):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        baseline = _report(_row("FB"), _row("CC"))
        (baseline_dir / "BENCH_x.json").write_text(json.dumps(baseline))

        clean = tmp_path / "BENCH_x.json"
        clean.write_text(json.dumps(baseline))
        assert (
            gate.main([str(clean), "--baseline-dir", str(baseline_dir)]) == 0
        )

        clean.write_text(json.dumps(_report(_row("FB"))))
        assert (
            gate.main([str(clean), "--baseline-dir", str(baseline_dir)]) == 1
        )


class TestCommittedBaselines:
    """The committed CI baselines cover what the CI smoke runs produce,
    so the gate compares values instead of failing on absent rows."""

    @staticmethod
    def _baseline(name):
        path = REPO_ROOT / "benchmarks" / "baselines" / name
        return json.loads(path.read_text())

    def test_every_scenario_has_a_row_per_io_model(self):
        from repro.workload.scenarios import scenario_names

        rows = {
            (run["scenario"], run["io_model"])
            for run in self._baseline("BENCH_scenarios_ci.json")["runs"]
        }
        expected = {
            (name, io_model)
            for name in scenario_names()
            for io_model in ("snapshot", "fairshare")
        }
        assert expected <= rows

    def test_sweep_baseline_matches_the_smoke_spec(self):
        from repro.sweep import builtin_specs

        baseline = self._baseline("BENCH_sweep_ci.json")
        assert baseline["spec_id"] == builtin_specs()["smoke"].spec_id
