"""Deeper scheduler behaviour tests: slots, outputs, ordering."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.common.units import MB
from repro.engine import SystemConfig, WorkloadRunner
from repro.engine.scheduler import TaskScheduler
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


def read_trace(jobs=6, outputs=True):
    """Jobs re-reading a few multi-block inputs, optionally with outputs."""
    trace = Trace(name="t", duration=200.0)
    trace.creations = [
        FileCreation(f"/in{i}", (i + 1) * 100 * MB, 0.0) for i in range(3)
    ]
    trace.jobs = [
        TraceJob(
            j,
            1.0 + 7.0 * j,
            [f"/in{j % 3}", f"/in{(j + 1) % 3}"],
            300 * MB,
            [OutputSpec(f"/out{j}", 64 * MB)] if outputs else [],
            cpu_seconds_per_byte=1e-8,
        )
        for j in range(jobs)
    ]
    return trace


class TestPerTaskReads:
    """Each map task chooses its replica once, and that replica's read
    is the one the node statistics record."""

    @pytest.mark.parametrize("io_model", ["snapshot", "fairshare"])
    @pytest.mark.parametrize("tier_aware", [True, False])
    def test_one_replica_choice_per_map_task(self, io_model, tier_aware):
        runner = WorkloadRunner(
            read_trace(),
            SystemConfig(
                label="t",
                placement="octopus",
                workers=3,
                task_slots=2,
                io_model=io_model,
                tier_aware_scheduler=tier_aware,
            ),
        )
        master, scheduler = runner.master, runner.scheduler
        chosen = []
        started = []
        choose_replica = master.choose_replica
        start_map = scheduler._start_map

        def counting_choose(block, reader_node):
            read = choose_replica(block, reader_node)
            chosen.append(read)
            return read

        def counting_start(task, node_id):
            started.append(task)
            start_map(task, node_id)

        master.choose_replica = counting_choose
        scheduler._start_map = counting_start
        result = runner.run()
        assert result.jobs_finished == 6
        assert len(started) == result.metrics.task_reads > 0
        assert len(chosen) == len(started)
        assert [r.block for r in chosen] == [t.block for t in started]
        # bytes_read per (node, tier) is exactly what the map tasks read
        # from that node's replicas.
        expected = Counter()
        for read in chosen:
            expected[read.replica.node_id, read.replica.tier] += read.block.size
        recorded = Counter()
        for node in runner.topology.nodes:
            stats = master.node_manager.stats(node.node_id)
            for tier, size in stats.bytes_read.items():
                if size:
                    recorded[node.node_id, tier] += size
        assert recorded == expected
        assert sum(recorded.values()) == result.metrics.bytes_read

    @pytest.mark.parametrize(
        "low, high", [(0.5, 2.0), (0.0, 0.0), (1, 3), (0.0, 1e-9), (-1.5, 7.25)]
    )
    def test_overhead_draws_equal_generator_uniform(self, low, high):
        runner = WorkloadRunner(
            Trace(name="t", duration=1.0), SystemConfig(label="t", workers=2)
        )
        scheduler = runner.scheduler
        scheduler.task_overhead = (low, high)
        for seed in (0, 3, 42):
            scheduler._rng = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for _ in range(2000):
                draw = scheduler._overhead()
                assert type(draw) is float
                assert draw == float(reference.uniform(low, high))

    def test_start_map_overheads_follow_the_uniform_stream(self):
        # Fair-share pricing with no CPU term: the delay each map task
        # hands the I/O model (CPU time, then overhead) sums to its
        # overhead draw alone, in start order.
        trace = read_trace(outputs=False)
        for job in trace.jobs:
            job.cpu_seconds_per_byte = 0.0
        runner = WorkloadRunner(
            trace,
            SystemConfig(
                label="t",
                placement="octopus",
                workers=3,
                task_slots=2,
                io_model="fairshare",
                tier_aware_scheduler=True,
                seed=11,
            ),
        )
        runner.scheduler.task_overhead = (0.25, 3.5)
        delays = []
        read = runner.iomodel.read

        def recording_read(*args, name):
            cpu, overhead = args[6:]
            delays.append(cpu + overhead)
            read(*args, name=name)

        runner.iomodel.read = recording_read
        runner.run()
        reference = np.random.default_rng(11)
        assert delays
        assert delays == [float(reference.uniform(0.25, 3.5)) for _ in delays]

    @pytest.mark.parametrize("overhead", [(2.0, 0.5), (0.0, float("inf"))])
    def test_rejects_a_range_uniform_would_reject(self, overhead):
        runner = WorkloadRunner(
            Trace(name="t", duration=1.0), SystemConfig(label="t", workers=2)
        )
        with pytest.raises(ValueError):
            TaskScheduler(
                runner.sim,
                runner.master,
                runner.iomodel,
                runner.metrics,
                task_overhead=overhead,
            )
