"""Tests for the metrics collector and derived figures."""

import math

import pytest

from repro.cluster import DEFAULT_HIERARCHY
from repro.common.units import MB
from repro.engine import metrics as metrics_module
from repro.engine.metrics import (
    MetricsCollector,
    completion_reduction,
    efficiency_improvement,
)
from repro.workload.bins import BIN_NAMES

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestRecording:
    def test_hit_ratios(self):
        metrics = MetricsCollector()
        metrics.record_task_read("A", MEMORY, 100 * MB, 1.0)
        metrics.record_task_read("A", HDD, 300 * MB, 2.0)
        assert metrics.hit_ratio() == pytest.approx(0.5)
        assert metrics.byte_hit_ratio() == pytest.approx(0.25)

    def test_location_ratios(self):
        metrics = MetricsCollector()
        metrics.record_file_access(True, 100 * MB)
        metrics.record_file_access(False, 100 * MB)
        metrics.record_file_access(False, 200 * MB)
        assert metrics.location_hit_ratio() == pytest.approx(1 / 3)
        assert metrics.location_byte_hit_ratio() == pytest.approx(0.25)

    def test_empty_ratios_zero(self):
        metrics = MetricsCollector()
        assert metrics.hit_ratio() == 0.0
        assert metrics.byte_hit_ratio() == 0.0
        assert metrics.location_hit_ratio() == 0.0

    def test_completion_accounting(self):
        metrics = MetricsCollector()
        metrics.record_job_completion("B", 10.0)
        metrics.record_job_completion("B", 30.0)
        assert metrics.bins["B"].mean_completion_time == 20.0
        assert metrics.jobs_completed == 2

    def test_task_time_per_bin(self):
        metrics = MetricsCollector()
        metrics.record_task_time("A", 5.0)
        metrics.record_task_time("F", 7.0)
        assert metrics.total_task_seconds() == 12.0

    def test_one_call_map_record_equals_read_plus_time(self):
        # The reference updates the read fields by hand, then calls
        # record_task_time; the one call must leave every field as that
        # pair does.
        reads = [
            ("A", MEMORY, 100 * MB, 0.1),
            ("A", HDD, 300 * MB, 1.1818181818181819),
            ("C", SSD, 7, 1.1818181818181819),
            ("A", MEMORY, 5 * MB, 3.3),
            ("F", HDD, MB, 0.0),
        ]
        combined = MetricsCollector()
        pair = MetricsCollector()
        for bin_name, tier, num_bytes, seconds in reads:
            combined.record_task_read(bin_name, tier, num_bytes, seconds)
            pair.task_reads += 1
            pair.bytes_read += num_bytes
            by_tier = pair.bins[bin_name].bytes_by_tier
            by_tier[tier] = by_tier.get(tier, 0) + num_bytes
            if tier.is_highest:
                pair.task_reads_memory += 1
                pair.bytes_read_memory += num_bytes
            pair.record_task_time(bin_name, seconds)
        assert combined == pair
        for name in BIN_NAMES:
            assert combined.bins[name].task_seconds == pair.bins[name].task_seconds
            assert combined.bins[name].bytes_by_tier == pair.bins[name].bytes_by_tier
        assert combined.bins["A"].task_seconds == 0.1 + 1.1818181818181819 + 3.3
        assert combined.task_reads_memory == 2
        assert combined.bytes_read_memory == 105 * MB

    def test_tier_access_distribution_normalized(self):
        metrics = MetricsCollector()
        metrics.record_task_read("C", MEMORY, 300 * MB, 1.0)
        metrics.record_task_read("C", SSD, 100 * MB, 1.0)
        dist = metrics.tier_access_distribution()
        assert dist["C"][MEMORY] == pytest.approx(0.75)
        assert dist["C"][SSD] == pytest.approx(0.25)
        assert dist["A"][MEMORY] == 0.0


class TestFoldedSums:
    """Totals fold left to right, whatever builtin ``sum()`` does."""

    #: A left-to-right fold gives 3.3636363636363633; a compensated sum
    #: (Python >= 3.12 ``sum()``) rounds it to 3.3636363636363638.
    TRIPLE = (1.0, 1.1818181818181819, 1.1818181818181819)

    @pytest.fixture(autouse=True)
    def compensated_builtin(self, monkeypatch):
        # Shadow the builtin inside the module, as Python 3.12 would.
        monkeypatch.setattr(metrics_module, "sum", math.fsum, raising=False)

    def test_the_triple_rounds_differently(self):
        assert math.fsum(self.TRIPLE) == 3.3636363636363638

    def test_total_task_seconds(self):
        metrics = MetricsCollector()
        for name, seconds in zip(BIN_NAMES, self.TRIPLE):
            metrics.record_task_time(name, seconds)
        assert metrics.total_task_seconds() == 3.3636363636363633

    def test_tier_access_distribution(self):
        metrics = MetricsCollector()
        tiers = (MEMORY, SSD, HDD)
        for tier, amount in zip(tiers, self.TRIPLE):
            metrics.record_task_read("A", tier, amount, 0.0)
        share = metrics.tier_access_distribution()["A"][SSD]
        assert share == 1.1818181818181819 / 3.3636363636363633
        assert share != 1.1818181818181819 / 3.3636363636363638


class TestDerivedFigures:
    def baseline_and_candidate(self):
        base = MetricsCollector()
        cand = MetricsCollector()
        for _ in range(4):
            base.record_job_completion("D", 100.0)
            cand.record_job_completion("D", 75.0)
        base.record_task_time("D", 1000.0)
        cand.record_task_time("D", 600.0)
        return base, cand

    def test_completion_reduction(self):
        base, cand = self.baseline_and_candidate()
        assert completion_reduction(base, cand)["D"] == pytest.approx(25.0)

    def test_efficiency_improvement(self):
        base, cand = self.baseline_and_candidate()
        assert efficiency_improvement(base, cand)["D"] == pytest.approx(40.0)

    def test_zero_baseline_guarded(self):
        base, cand = MetricsCollector(), MetricsCollector()
        assert completion_reduction(base, cand)["A"] == 0.0
        assert efficiency_improvement(base, cand)["A"] == 0.0

    def test_regression_shows_negative(self):
        base = MetricsCollector()
        cand = MetricsCollector()
        base.record_job_completion("E", 50.0)
        cand.record_job_completion("E", 100.0)
        assert completion_reduction(base, cand)["E"] == pytest.approx(-100.0)
