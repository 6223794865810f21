"""Deeper scheduler behaviour tests: slots, outputs, ordering."""

import itertools

from repro.common.units import MB
from repro.engine import SystemConfig, WorkloadRunner
from repro.workload import FileCreation, OutputSpec, Trace, TraceJob


def run_trace(trace, **config_kw):
    defaults = dict(label="t", placement="octopus", workers=2, task_slots=2)
    defaults.update(config_kw)
    runner = WorkloadRunner(trace, SystemConfig(**defaults))
    return runner, runner.run()


class TestSlots:
    def test_slot_count_never_negative(self):
        trace = Trace(name="t", duration=50.0)
        trace.creations = [FileCreation(f"/f{i}", 128 * MB, 0.0) for i in range(8)]
        trace.jobs = [
            TraceJob(i, 1.0, [f"/f{i}"], 128 * MB, [], cpu_seconds_per_byte=1e-8)
            for i in range(8)
        ]
        runner, result = run_trace(trace)
        assert result.jobs_finished == 8
        for node in runner.topology.nodes:
            slots = runner.scheduler.free_slots(node.node_id)
            assert 0 <= slots <= node.task_slots
            assert slots == node.task_slots  # all released at the end

    def test_jobs_complete_in_bounded_time(self):
        trace = Trace(name="t", duration=10.0)
        trace.creations = [FileCreation("/f", 256 * MB, 0.0)]
        trace.jobs = [TraceJob(0, 1.0, ["/f"], 256 * MB, [], cpu_seconds_per_byte=1e-8)]
        _, result = run_trace(trace)
        mean = result.metrics.bins["B"].mean_completion_time
        assert 0 < mean < 120.0


class TestFallbackPick:
    def test_most_free_slots_then_larger_node_id(self):
        # Without a usable replica holder the pick is the keyed max over
        # (free_slots, node_id) of the nodes with a free slot.
        runner = WorkloadRunner(
            Trace(name="t", duration=1.0), SystemConfig(label="t", workers=4)
        )
        scheduler = runner.scheduler
        nodes = sorted(scheduler._slots)
        slots = scheduler._slots[nodes[0]]
        for busy in itertools.product((0, slots - 1, slots), repeat=len(nodes)):
            for dead in (set(), {nodes[3]}, {nodes[0], nodes[2]}):
                scheduler._busy = dict(zip(nodes, busy))
                scheduler._dead = set(dead)
                free = [n for n in nodes if scheduler.free_slots(n) > 0]
                expected = (
                    max(free, key=lambda n: (scheduler.free_slots(n), n))
                    if free
                    else None
                )
                assert scheduler._pick_node(None) == expected


class TestOutputs:
    def test_outputs_start_after_maps(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations = [FileCreation("/in", 256 * MB, 0.0)]
        trace.jobs = [
            TraceJob(
                0,
                1.0,
                ["/in"],
                256 * MB,
                [OutputSpec("/out", 64 * MB)],
                cpu_seconds_per_byte=1e-7,
            )
        ]
        runner, result = run_trace(trace)
        assert runner.master.exists("/out")
        out_created = runner.master.get_file("/out").creation_time
        # Map tasks read 2 blocks first; the output cannot appear at t=1.
        assert out_created > 1.0

    def test_multiple_outputs_all_written(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations = [FileCreation("/in", 64 * MB, 0.0)]
        outputs = [OutputSpec(f"/out{i}", 16 * MB) for i in range(3)]
        trace.jobs = [
            TraceJob(0, 1.0, ["/in"], 64 * MB, outputs, cpu_seconds_per_byte=1e-8)
        ]
        runner, result = run_trace(trace)
        for spec in outputs:
            assert runner.master.exists(spec.path)
        assert result.metrics.bytes_written == 48 * MB

    def test_job_without_outputs_finishes_after_maps(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations = [FileCreation("/in", 64 * MB, 0.0)]
        trace.jobs = [TraceJob(0, 1.0, ["/in"], 64 * MB, [], cpu_seconds_per_byte=1e-8)]
        _, result = run_trace(trace)
        assert result.jobs_finished == 1

    def test_job_with_only_missing_inputs_still_completes(self):
        trace = Trace(name="t", duration=100.0)
        trace.jobs = [
            TraceJob(0, 1.0, ["/ghost"], 64 * MB, [OutputSpec("/out", MB)],
                     cpu_seconds_per_byte=1e-8)
        ]
        runner, result = run_trace(trace)
        assert result.jobs_finished == 1
        assert runner.master.exists("/out")


class TestMetricsConsistency:
    def test_task_reads_match_block_count(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations = [FileCreation("/in", 300 * MB, 0.0)]
        trace.jobs = [
            TraceJob(0, 1.0, ["/in"], 300 * MB, [], cpu_seconds_per_byte=1e-8),
            TraceJob(1, 30.0, ["/in"], 300 * MB, [], cpu_seconds_per_byte=1e-8),
        ]
        _, result = run_trace(trace)
        # 3 blocks x 2 jobs.
        assert result.metrics.task_reads == 6
        assert result.metrics.bytes_read == 2 * 300 * MB

    def test_file_access_records_match_jobs(self):
        trace = Trace(name="t", duration=100.0)
        trace.creations = [FileCreation("/in", 64 * MB, 0.0)]
        trace.jobs = [
            TraceJob(i, float(i + 1), ["/in"], 64 * MB, [], cpu_seconds_per_byte=1e-8)
            for i in range(4)
        ]
        _, result = run_trace(trace)
        assert result.metrics.file_accesses == 4
