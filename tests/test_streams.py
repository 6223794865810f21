"""Tests for the lazy workload-stream protocol and the streaming runner."""

import pytest

from repro.common.units import MB
from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.workload.external import ExternalTraceStream
from repro.workload.jobs import (
    FileCreation,
    FileDeletion,
    Trace,
    TraceJob,
    event_sort_key,
    event_time,
)
from repro.workload.profiles import FB_PROFILE, scaled_profile
from repro.workload.scenarios import build_scenario
from repro.workload.serialize import EventWriter
from repro.workload.streams import (
    StreamOrderError,
    SynthesizedStream,
    TraceStream,
    WorkloadStream,
    clip,
    merge_events,
    merge_timed_sources,
    number_jobs,
    ordered,
)
from repro.workload.synthesis import synthesize_trace


def small_fb_trace(seed=42, scale=0.1):
    return synthesize_trace(scaled_profile(FB_PROFILE, scale), seed=seed)


def job(t, job_id=-1, paths=("/data/x",), size=1024):
    return TraceJob(
        job_id=job_id, submit_time=t, input_paths=list(paths), input_size=size
    )


class TestEventModel:
    def test_event_time(self):
        assert event_time(FileCreation("/a", 1, 3.0)) == 3.0
        assert event_time(FileDeletion("/a", 9.0)) == 9.0
        assert event_time(job(5.0)) == 5.0

    def test_tie_order_create_job_delete(self):
        events = [FileDeletion("/a", 1.0), job(1.0), FileCreation("/a", 1, 1.0)]
        ranked = sorted(events, key=event_sort_key)
        assert isinstance(ranked[0], FileCreation)
        assert isinstance(ranked[1], TraceJob)
        assert isinstance(ranked[2], FileDeletion)


class TestTraceStream:
    def test_events_match_trace(self):
        trace = small_fb_trace()
        stream = TraceStream(trace)
        assert list(stream.events()) == list(trace.events())
        assert stream.name == trace.name
        assert stream.duration == trace.duration

    def test_materialize_round_trip(self):
        trace = small_fb_trace()
        clone = TraceStream(trace).materialize()
        assert clone.creations == sorted(trace.creations, key=lambda c: c.time)
        assert [j.job_id for j in clone.jobs] == [j.job_id for j in trace.jobs]

    def test_stats_single_pass(self):
        trace = small_fb_trace()
        stats = TraceStream(trace).stats()
        assert stats.jobs == len(trace.jobs)
        assert stats.creations == len(trace.creations)
        assert stats.jobs_per_bin == trace.jobs_per_bin()

    def test_stats_bounded(self):
        trace = small_fb_trace()
        stats = TraceStream(trace).stats(max_events=10)
        assert stats.events == 10


class TestSynthesizedStream:
    def test_matches_synthesizer(self):
        stream = SynthesizedStream(FB_PROFILE, seed=3, scale=0.05)
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=3)
        assert list(stream.events()) == list(trace.events())

    def test_materialize_is_cached(self):
        stream = SynthesizedStream(FB_PROFILE, seed=3, scale=0.05)
        assert stream.materialize() is stream.materialize()

    def test_materialize_with_deletions_rejected(self):
        stream = build_scenario("pipeline", seed=1)
        with pytest.raises(ValueError, match="deletions"):
            stream.materialize()


class TestStreamUtilities:
    def test_ordered_rejects_decreasing_times(self):
        events = [job(5.0), job(4.0)]
        with pytest.raises(StreamOrderError):
            list(ordered(events))

    def test_number_jobs_assigns_sequential_ids(self):
        events = [job(1.0), FileCreation("/a", 1, 2.0), job(3.0)]
        numbered = list(number_jobs(events))
        assert [e.job_id for e in numbered if isinstance(e, TraceJob)] == [0, 1]

    def test_number_jobs_keeps_explicit_ids(self):
        numbered = list(number_jobs([job(1.0, job_id=7)]))
        assert numbered[0].job_id == 7

    def test_merge_events_time_ordered(self):
        a = [job(1.0), job(4.0)]
        b = [FileCreation("/b", 1, 2.0), FileCreation("/c", 1, 4.0)]
        merged = list(merge_events(a, b))
        assert [event_time(e) for e in merged] == [1.0, 2.0, 4.0, 4.0]
        # Tie at t=4.0: the creation outranks the job.
        assert isinstance(merged[2], FileCreation)

    def test_merge_timed_sources_admits_lazily(self):
        pulled = []

        def source(start, times):
            def gen():
                for t in times:
                    pulled.append((start, t))
                    yield job(t)

            return start, gen()

        sources = [source(0.0, [0.5, 6.0]), source(5.0, [5.5])]
        merged = merge_timed_sources(iter(sources))
        first = next(merged)
        assert event_time(first) == 0.5
        # The t=5 source must not have been touched yet.
        assert all(start == 0.0 for start, _ in pulled)
        assert [event_time(e) for e in merged] == [5.5, 6.0]

    def test_merge_timed_sources_rejects_early_events(self):
        with pytest.raises(StreamOrderError):
            list(merge_timed_sources(iter([(10.0, iter([job(1.0)]))])))

    def test_clip(self):
        events = [job(1.0), job(2.0), job(3.0)]
        assert [event_time(e) for e in clip(events, 2.0)] == [1.0, 2.0]


#: Pinned replay outcome of ``small_fb_trace(seed)`` under LRU-OSA on 5
#: workers, keyed by (seed, io_model): ``repr`` of the hit ratio, byte
#: hit ratio and task seconds, then events processed and transfers
#: committed.
PINNED_REPLAY = {
    (42, "snapshot"): (
        "0.5578231292517006", "0.5735869495897566", "1590.0740997616372", 1019, 39,
    ),
    (42, "fairshare"): (
        "0.5487528344671202", "0.5575277353541964", "1595.0719820468016", 1992, 39,
    ),
    (7, "snapshot"): (
        "0.5420289855072464", "0.5428813519536065", "1013.5128508485786", 882, 0,
    ),
    (7, "fairshare"): (
        "0.5362318840579711", "0.5316947083362726", "1024.3183816395726", 1630, 0,
    ),
}


class TestStreamingReplayEquivalence:
    """A trace replays to pinned results, materialized or streamed."""

    @pytest.mark.parametrize("io_model", ["snapshot", "fairshare"])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_fb_replay_bit_identical(self, io_model, seed):
        trace = small_fb_trace(seed=seed)
        for workload in (trace, TraceStream(trace)):
            runner = WorkloadRunner(
                workload,
                SystemConfig(
                    label="LRU-OSA",
                    placement="octopus",
                    downgrade="lru",
                    upgrade="osa",
                    workers=5,
                    io_model=io_model,
                ),
            )
            result = runner.run()
            metrics = result.metrics
            assert (
                repr(metrics.hit_ratio()),
                repr(metrics.byte_hit_ratio()),
                repr(metrics.total_task_seconds()),
                runner.sim.events_processed,
                result.transfers_committed,
            ) == PINNED_REPLAY[seed, io_model]
            assert result.jobs_submitted == len(trace.jobs)


class TestTieRule:
    """Workload events win every same-time tie against system events.

    ``/b`` and a job on ``/a`` are stamped t=60 s, the time of the first
    proactive tick, which the manager arms while the runner is built.
    """

    @staticmethod
    def tie_trace():
        return Trace(
            name="tie",
            duration=120.0,
            creations=[
                FileCreation("/a", 64 * MB, 0.0),
                FileCreation("/b", 64 * MB, 60.0),
            ],
            jobs=[job(60.0, job_id=0, paths=("/a",), size=64 * MB)],
        )

    def workload(self, form, tmp_path):
        trace = self.tie_trace()
        if form == "trace":
            return trace
        if form == "stream":
            return TraceStream(trace)
        path = str(tmp_path / "tie.jsonl")
        with EventWriter(path, name=trace.name, duration=trace.duration) as writer:
            for event in trace.events():
                writer.write(event)
            writer.write_end()
        return ExternalTraceStream(path)

    def first_tick(self, workload):
        """(time, /b exists, jobs submitted) at the first proactive
        tick, and the run's fingerprint."""
        runner = WorkloadRunner(
            workload,
            SystemConfig(
                label="tie", placement="octopus", downgrade="lru", upgrade="osa"
            ),
        )
        timer = runner.manager._proactive_timer
        tick = timer._callback
        seen = []

        def spy():
            scheduler = runner.scheduler
            seen.append(
                (
                    runner.sim.now(),
                    runner.client.exists("/b"),
                    scheduler.active_jobs + scheduler.jobs_finished,
                )
            )
            tick()

        timer._callback = spy
        result = runner.run()
        return seen[0], result.fingerprint()

    @pytest.mark.parametrize("form", ["trace", "stream", "external"])
    def test_workload_events_run_before_the_tick(self, form, tmp_path):
        (now, b_exists, submitted), _ = self.first_tick(
            self.workload(form, tmp_path)
        )
        assert now == 60.0
        assert b_exists
        assert submitted == 1

    def test_every_form_replays_identically(self, tmp_path):
        trace, stream, external = (
            self.first_tick(self.workload(form, tmp_path))[1]
            for form in ("trace", "stream", "external")
        )
        assert trace == stream == external


class SpyStream(WorkloadStream):
    """Counts how far the runner pulls ahead of applied events."""

    def __init__(self, inner, runner_box):
        self.inner = inner
        self.name = inner.name
        self.duration = inner.duration
        self.runner_box = runner_box
        self.pulled = 0
        self.max_lead = 0

    def events(self):
        for event in self.inner.events():
            self.pulled += 1
            runner = self.runner_box.get("runner")
            if runner is not None:
                applied = runner.sim.events_processed
                self.max_lead = max(self.max_lead, self.pulled - applied)
            yield event


class TestStreamingRunner:
    def test_long_stream_is_never_materialized(self):
        """A 10x-length stream stays O(1) ahead of the simulation."""
        inner = build_scenario(
            "oscillating", seed=2, scale=10, jobs_per_minute=0.5, pool_files=60
        )
        box = {}
        spy = SpyStream(inner, box)
        runner = WorkloadRunner(
            spy,
            SystemConfig(label="osc", placement="octopus", workers=4),
        )
        box["runner"] = runner
        result = runner.run()
        assert result.jobs_finished == result.jobs_submitted > 500
        # The pump holds exactly one upcoming workload event: had the
        # stream been materialized up front, every event would have been
        # pulled before the first one was executed (lead == pulled).
        assert spy.max_lead <= 4

    def test_scenario_config_drive_path(self):
        config = SystemConfig(
            label="mlscan",
            placement="octopus",
            scenario="mlscan",
            scenario_params={"seed": 5, "scale": 0.2},
            workers=4,
        )
        result = WorkloadRunner(None, config).run()
        assert result.jobs_finished == result.jobs_submitted > 0

    def test_missing_scenario_rejected(self):
        with pytest.raises(ValueError):
            WorkloadRunner(None, SystemConfig(label="x"))

    def test_bad_workload_type_rejected(self):
        with pytest.raises(TypeError):
            WorkloadRunner(object(), SystemConfig(label="x"))

    def test_pipeline_deletions_applied(self):
        stream = build_scenario("pipeline", seed=5)
        runner = WorkloadRunner(
            stream,
            SystemConfig(label="pipe", placement="octopus", workers=4),
        )
        result = runner.run()
        assert result.deletions_applied > 0
        # Deleted datasets are gone from the namespace.
        deleted = [e for e in stream.events() if isinstance(e, FileDeletion)]
        assert deleted and not runner.client.exists(deleted[0].path)
