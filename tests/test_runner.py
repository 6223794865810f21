"""Tests for the end-to-end workload runner and scheduler behaviour."""

import json

import pytest

from repro.common.units import MB
from repro.engine import (
    SystemConfig,
    WorkloadRunner,
    run_workload,
)
from repro.workload import FileCreation, OutputSpec, Trace, TraceJob
from repro.workload.bins import BIN_NAMES
from repro.workload.scenarios import build_scenario


def tiny_trace():
    """3 files, 4 jobs with reuse, one output chain."""
    trace = Trace(name="tiny", duration=600.0)
    trace.creations = [
        FileCreation("/in/a", 128 * MB, 0.0),
        FileCreation("/in/b", 256 * MB, 5.0),
        FileCreation("/in/cold", 64 * MB, 10.0),
    ]
    trace.jobs = [
        TraceJob(0, 30.0, ["/in/a"], 128 * MB, [OutputSpec("/out/0", 32 * MB)],
                 cpu_seconds_per_byte=1e-8),
        TraceJob(1, 120.0, ["/in/a", "/in/b"], 384 * MB, [],
                 cpu_seconds_per_byte=1e-8),
        TraceJob(2, 200.0, ["/in/b"], 256 * MB, [], cpu_seconds_per_byte=1e-8),
        TraceJob(3, 400.0, ["/out/0"], 32 * MB, [], cpu_seconds_per_byte=1e-8),
    ]
    return trace


class TestWorkloadRunner:
    @pytest.mark.parametrize(
        "placement", ["hdfs", "hdfs-cache", "octopus", "single-hdd"]
    )
    def test_all_placements_run_clean(self, placement):
        result = run_workload(
            tiny_trace(),
            SystemConfig(label=placement, placement=placement, workers=4),
        )
        assert result.jobs_finished == 4
        assert result.metrics.bytes_read > 0

    def test_hdfs_never_serves_from_memory(self):
        result = run_workload(
            tiny_trace(), SystemConfig(label="hdfs", placement="hdfs", workers=4)
        )
        assert result.metrics.hit_ratio() == 0.0

    def test_octopus_serves_from_memory(self):
        result = run_workload(
            tiny_trace(), SystemConfig(label="octopus", placement="octopus", workers=4)
        )
        assert result.metrics.hit_ratio() > 0.5

    def test_policies_attach_and_move_data(self):
        config = SystemConfig(
            label="lru-osa",
            placement="single-hdd",
            downgrade="lru",
            upgrade="osa",
            workers=4,
        )
        result = run_workload(tiny_trace(), config)
        # OSA pulls the accessed files into memory (from HDD-only start).
        assert result.bytes_upgraded_memory > 0

    def test_completion_times_recorded_per_bin(self):
        result = run_workload(
            tiny_trace(), SystemConfig(label="x", placement="octopus", workers=4)
        )
        bins = result.metrics.bins
        assert bins["A"].jobs_completed == 1  # the 32MB chain job
        assert bins["B"].jobs_completed == 3  # 128MB boundary, 256MB, 384MB

    def test_missing_input_tolerated(self):
        trace = tiny_trace()
        trace.jobs.append(
            TraceJob(9, 450.0, ["/never/created"], 1 * MB, [],
                     cpu_seconds_per_byte=1e-8)
        )
        runner = WorkloadRunner(
            trace, SystemConfig(label="x", placement="octopus", workers=4)
        )
        result = runner.run()
        assert result.jobs_finished == 5
        assert runner.scheduler.missing_inputs == 1

    def test_output_files_written_to_dfs(self):
        runner = WorkloadRunner(
            tiny_trace(), SystemConfig(label="x", placement="octopus", workers=4)
        )
        runner.run()
        assert runner.master.exists("/out/0")
        assert runner.metrics.bytes_written == 32 * MB

    def test_accounting_balanced_after_run(self):
        runner = WorkloadRunner(
            tiny_trace(),
            SystemConfig(label="x", placement="octopus", downgrade="lru",
                         upgrade="osa", workers=4),
        )
        runner.run()
        assert runner.master.open_ticket_count() == 0
        used = sum(
            d.used for n in runner.topology.nodes for d in n.devices()
        )
        replica_bytes = sum(
            b.size * b.replica_count
            for f in runner.master.files()
            for b in runner.master.blocks.blocks_of(f)
        )
        assert used == replica_bytes

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            run_workload(tiny_trace(), SystemConfig(label="x", placement="bogus"))

    def test_summary_fields(self):
        result = run_workload(
            tiny_trace(), SystemConfig(label="s", placement="octopus", workers=4)
        )
        summary = result.summary()
        assert summary["label"] == "s"
        assert summary["jobs"] == 4


class TestSchedulerBehaviour:
    def test_queueing_under_slot_pressure(self):
        # 1 worker x 2 slots, a burst of jobs -> completion includes waits.
        trace = Trace(name="burst", duration=100.0)
        trace.creations = [FileCreation(f"/f{i}", 128 * MB, 0.0) for i in range(6)]
        trace.jobs = [
            TraceJob(i, 1.0, [f"/f{i}"], 128 * MB, [], cpu_seconds_per_byte=2e-7)
            for i in range(6)
        ]
        result = run_workload(
            trace,
            SystemConfig(
                label="slots", placement="single-hdd", workers=1, task_slots=2
            ),
        )
        assert result.jobs_finished == 6
        times = [result.metrics.bins["B"].mean_completion_time]
        assert times[0] > 0

    def test_locality_prefers_replica_nodes(self):
        trace = Trace(name="loc", duration=100.0)
        trace.creations = [FileCreation("/f", 128 * MB, 0.0)]
        trace.jobs = [TraceJob(0, 1.0, ["/f"], 128 * MB, [], cpu_seconds_per_byte=0.0)]
        runner = WorkloadRunner(
            trace, SystemConfig(label="x", placement="octopus", workers=6)
        )
        result = runner.run()
        # With idle cluster and replicas on 3 nodes, the read is local.
        assert result.metrics.task_reads_memory == 1


def fb_runner(seed, io_model="snapshot"):
    """A tiny FB replay under LRU+OSA; ``seed`` draws the workload only."""
    return WorkloadRunner(
        build_scenario("fb", seed=seed, scale=0.05),
        SystemConfig(
            label="fp",
            placement="octopus",
            downgrade="lru",
            upgrade="osa",
            workers=4,
            io_model=io_model,
        ),
    )


class TestFingerprint:
    KEYS = {
        "jobs_submitted",
        "jobs_finished",
        "deletions_applied",
        "hit_ratio",
        "byte_hit_ratio",
        "task_seconds",
        "bytes_read",
        "bytes_written",
        "elapsed",
        "transfers_committed",
        "bytes_upgraded_by_tier",
        "bytes_downgraded_by_tier",
        "queue_delay_by_tier",
        "bins",
        "io_stats",
        "sim",
        "metrics",
    }
    SIM_KEYS = {
        "events_processed",
        "events_cancelled",
        "heap_peak",
        "heap_compactions",
    }
    FLOW_KEYS = {
        "flows_started",
        "flows_completed",
        "recomputes",
        "peak_concurrency",
        "max_component",
        "vector_solves",
        "events_rescheduled",
    }

    @pytest.mark.parametrize("io_model", ["snapshot", "fairshare"])
    def test_key_set_is_pinned(self, io_model):
        fp = fb_runner(11, io_model).run().fingerprint()
        assert set(fp) == self.KEYS
        assert set(fp["sim"]) == self.SIM_KEYS
        assert set(fp["bins"]) == set(BIN_NAMES)
        assert fp["io_stats"]["model"] == io_model
        flow_keys = self.FLOW_KEYS & set(fp["io_stats"])
        assert flow_keys == (self.FLOW_KEYS if io_model == "fairshare" else set())

    def test_json_safe_and_unrounded(self):
        runner = fb_runner(11)
        result = runner.run()
        fp = result.fingerprint()
        assert json.loads(json.dumps(fp)) == fp
        assert fp["hit_ratio"] == result.metrics.hit_ratio()
        assert fp["task_seconds"] == result.metrics.total_task_seconds()
        assert fp["queue_delay_by_tier"] == runner.iomodel.queue_delay_by_tier
        stats = runner.sim.stats()
        assert fp["sim"] == {key: stats[key] for key in self.SIM_KEYS}

    def test_workload_seed_changes_it(self):
        first = fb_runner(11).run().fingerprint()
        second = fb_runner(12).run().fingerprint()
        assert first != second
