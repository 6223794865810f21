"""Tests for bins, the trace model, and the FB/CMU synthesizers."""

import numpy as np
import pytest

from repro.common.units import GB, MB
from repro.workload import (
    BINS,
    CMU_PROFILE,
    FB_PROFILE,
    FileCreation,
    OutputSpec,
    Trace,
    TraceJob,
    bin_for_size,
    scaled_profile,
    synthesize_trace,
)


class TestBins:
    def test_bin_boundaries(self):
        assert bin_for_size(0).name == "A"
        assert bin_for_size(128 * MB - 1).name == "A"
        assert bin_for_size(128 * MB).name == "B"
        assert bin_for_size(1 * GB).name == "D"
        assert bin_for_size(5 * GB).name == "F"

    def test_oversize_clamps_to_last(self):
        assert bin_for_size(100 * GB).name == "F"

    def test_bins_are_contiguous(self):
        for prev, nxt in zip(BINS, BINS[1:]):
            assert prev.high == nxt.low


class TestTraceModel:
    def make_trace(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations.append(FileCreation("/in1", 10 * MB, 1.0))
        trace.creations.append(FileCreation("/in2", 20 * MB, 2.0))
        trace.creations.append(FileCreation("/cold", 5 * MB, 3.0))
        trace.jobs.append(
            TraceJob(0, 10.0, ["/in1"], 10 * MB, [OutputSpec("/out0", 2 * MB)])
        )
        trace.jobs.append(TraceJob(1, 20.0, ["/in1", "/in2"], 30 * MB))
        return trace

    def test_events_merged_in_order(self):
        trace = self.make_trace()
        times = []
        for event in trace.events():
            times.append(getattr(event, "time", None) or getattr(event, "submit_time"))
        assert times == sorted(times)

    def test_access_counts(self):
        counts = self.make_trace().access_counts()
        assert counts["/in1"] == 2
        assert counts["/in2"] == 1
        assert counts["/cold"] == 0
        assert counts["/out0"] == 0

    def test_totals(self):
        trace = self.make_trace()
        assert trace.file_count == 4
        assert trace.total_bytes == 37 * MB

    def test_jobs_per_bin(self):
        assert self.make_trace().jobs_per_bin()["A"] == 2

    def test_cdf(self):
        values, probs = Trace.cdf([3, 1, 2])
        assert list(values) == [1, 2, 3]
        assert probs[-1] == 1.0


class TestSynthesizer:
    @pytest.fixture(scope="class")
    def fb(self):
        return synthesize_trace(FB_PROFILE, seed=42)

    @pytest.fixture(scope="class")
    def cmu(self):
        return synthesize_trace(CMU_PROFILE, seed=42)

    def test_job_counts(self, fb, cmu):
        assert len(fb.jobs) == 1000
        assert len(cmu.jobs) == 800

    def test_bin_distribution_shape(self, fb):
        bins = fb.jobs_per_bin()
        # Table 3: A dominates, counts decay with size.
        assert bins["A"] > bins["B"] > bins["C"]
        assert bins["A"] / len(fb.jobs) == pytest.approx(0.744, abs=0.08)

    def test_total_bytes_near_target(self, fb, cmu):
        assert 0.7 * 92 * GB < fb.total_bytes < 1.3 * 92 * GB
        assert 0.7 * 85 * GB < cmu.total_bytes < 1.3 * 85 * GB

    def test_never_read_fraction_near_target(self, fb, cmu):
        def never_read(trace):
            counts = list(trace.access_counts().values())
            return counts.count(0) / len(counts)

        assert never_read(fb) == pytest.approx(0.23, abs=0.05)
        assert never_read(cmu) == pytest.approx(0.18, abs=0.05)

    def test_popularity_skew(self, fb):
        counts = [c for c in fb.access_counts().values() if c > 0]
        # A popular head exists, most files read only a few times.
        assert max(counts) > 10
        assert np.median(counts) <= 3

    def test_inputs_created_before_first_use(self, fb):
        created = {}
        for creation in fb.creations:
            created[creation.path] = creation.time
        for job in fb.jobs:
            for path in job.input_paths:
                if path in created:  # outputs handled separately
                    assert created[path] <= job.submit_time

    def test_chained_outputs_mature(self, fb):
        produced_at = {}
        for job in fb.jobs:
            for out in job.outputs:
                produced_at[out.path] = job.submit_time
        for job in fb.jobs:
            for path in job.input_paths:
                if path in produced_at:
                    assert produced_at[path] <= job.submit_time - 15 * 60.0

    def test_determinism(self):
        a = synthesize_trace(FB_PROFILE, seed=7)
        b = synthesize_trace(FB_PROFILE, seed=7)
        assert [j.submit_time for j in a.jobs] == [j.submit_time for j in b.jobs]
        assert [c.path for c in a.creations] == [c.path for c in b.creations]

    def test_seed_changes_trace(self):
        a = synthesize_trace(FB_PROFILE, seed=1)
        b = synthesize_trace(FB_PROFILE, seed=2)
        assert [j.submit_time for j in a.jobs] != [j.submit_time for j in b.jobs]

    def test_jobs_within_duration(self, fb):
        assert all(0 <= j.submit_time <= fb.duration for j in fb.jobs)

    def test_recurring_series_present(self, fb):
        # Some input files are read many times at near-regular intervals.
        reads = {}
        for job in fb.jobs:
            for path in job.input_paths:
                reads.setdefault(path, []).append(job.submit_time)
        periodic = 0
        for times in reads.values():
            if len(times) >= 5:
                gaps = np.diff(sorted(times))
                if len(gaps) and np.std(gaps) < 0.35 * np.mean(gaps):
                    periodic += 1
        assert periodic >= 10

    def test_scaled_profile(self):
        scaled = scaled_profile(FB_PROFILE, 2.0)
        assert scaled.num_jobs == 2000
        assert scaled.total_bytes == 2 * FB_PROFILE.total_bytes
        trace = synthesize_trace(scaled, seed=3)
        assert len(trace.jobs) == 2000

    def test_drift_off_is_stationary(self):
        trace = synthesize_trace(FB_PROFILE, seed=5, drift=False)
        assert len(trace.jobs) == 1000
