"""Tests for the named-scenario library and registry."""

import pytest

from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.profiles import FB_PROFILE, scaled_profile
from repro.workload.scenarios import (
    SCENARIOS,
    build_scenario,
    get_scenario,
    scenario_names,
)
from repro.workload.synthesis import synthesize_trace

REQUIRED = {"fb", "cmu", "diurnal", "flashcrowd", "mlscan", "oscillating", "pipeline"}

#: Small builds for per-scenario checks (classic traces scale by jobs,
#: generators by duration).
SMALL = {name: (0.05 if name in ("fb", "cmu") else 0.12) for name in REQUIRED}


class TestRegistry:
    def test_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6
        assert REQUIRED <= set(scenario_names())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            build_scenario("diurnal", tenants=2, bogus=1)

    def test_descriptions_and_defaults_present(self):
        for name in scenario_names():
            scenario = SCENARIOS[name]
            assert scenario.description
            assert isinstance(scenario.defaults, dict)

    def test_param_override_changes_stream(self):
        base = build_scenario("oscillating", seed=1, scale=0.1)
        wide = build_scenario("oscillating", seed=1, scale=0.1, pool_files=999)
        assert [repr(e) for e in base] != [repr(e) for e in wide]


class TestStreamWellFormed:
    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_time_ordered_and_nonempty(self, name):
        stream = build_scenario(name, seed=13, scale=SMALL[name])
        events = list(stream.events())
        assert events
        keys = [event_sort_key(e) for e in events]
        assert keys == sorted(keys)
        assert all(event_time(e) <= stream.duration for e in events)

    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_jobs_numbered_sequentially(self, name):
        stream = build_scenario(name, seed=13, scale=SMALL[name])
        ids = [e.job_id for e in stream if isinstance(e, TraceJob)]
        assert ids == list(range(len(ids)))

    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_reads_follow_creations(self, name):
        """Every input path exists (created or written) by submit time."""
        stream = build_scenario(name, seed=13, scale=SMALL[name])
        live = set()
        for event in stream:
            if isinstance(event, FileCreation):
                live.add(event.path)
            elif isinstance(event, FileDeletion):
                assert event.path in live
                live.discard(event.path)
            else:
                for path in event.input_paths:
                    assert path in live or path.startswith("/out/")
                for output in event.outputs:
                    live.add(output.path)

    def test_pipeline_short_ttl_stays_ordered(self):
        """ttl below hot+cool must not emit deletions out of order."""
        stream = build_scenario("pipeline", seed=7, scale=0.5, ttl_minutes=90)
        keys = [event_sort_key(e) for e in stream.events()]
        assert keys == sorted(keys)
        deletions = [e for e in stream.events() if isinstance(e, FileDeletion)]
        assert deletions, "short-ttl pipeline still retires datasets"

    def test_pipeline_never_reads_deleted_files(self):
        stream = build_scenario("pipeline", seed=13)
        deleted_at = {}
        for event in stream:
            if isinstance(event, FileDeletion):
                deleted_at[event.path] = event.time
            elif isinstance(event, TraceJob):
                for path in event.input_paths:
                    assert path not in deleted_at

    def test_scale_extends_generated_streams(self):
        short = build_scenario("flashcrowd", seed=3, scale=0.1)
        long = build_scenario("flashcrowd", seed=3, scale=0.4)
        assert long.duration == pytest.approx(4 * short.duration)
        assert long.stats().events > 2 * short.stats().events


class TestClassicCompat:
    def test_fb_scenario_matches_synthesizer(self):
        stream = build_scenario("fb", seed=4, scale=0.05)
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=4)
        assert list(stream.events()) == list(trace.events())

    def test_drift_param_forwarded(self):
        drifting = build_scenario("fb", seed=4, scale=0.05)
        stationary = build_scenario("fb", seed=4, scale=0.05, drift=0)
        assert [repr(e) for e in drifting] != [repr(e) for e in stationary]


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(REQUIRED))
    def test_runs_through_the_system(self, name):
        config = SystemConfig(
            label=name,
            placement="octopus",
            downgrade="lru",
            upgrade="osa",
            workers=4,
        )
        stream = build_scenario(name, seed=13, scale=SMALL[name])
        result = WorkloadRunner(stream, config).run()
        assert result.jobs_finished == result.jobs_submitted > 0
        assert 0.0 <= result.metrics.hit_ratio() <= 1.0
