"""Tests for the DFSIO benchmark runner (Fig 2 machinery)."""


import pytest

from repro.common.units import GB
from repro.engine import DfsioRunner, SystemConfig
from repro.workload import DfsioSpec


def run_dfsio(
    placement,
    downgrade=None,
    upgrade=None,
    total=8 * GB,
    workers=4,
    io_model="snapshot",
):
    config = SystemConfig(
        label=placement,
        placement=placement,
        downgrade=downgrade,
        upgrade=upgrade,
        workers=workers,
        io_model=io_model,
    )
    runner = DfsioRunner(config, DfsioSpec(total_bytes=total, file_size=1 * GB))
    return runner, runner.run()


class TestDfsioSpec:
    def test_file_paths(self):
        spec = DfsioSpec(total_bytes=4 * GB, file_size=1 * GB)
        assert spec.num_files == 4
        assert len(spec.file_paths()) == 4


class TestDfsioRunner:
    def test_writes_all_files(self):
        runner, result = run_dfsio("hdfs")
        assert len(result.write_records) == 8
        assert len(result.read_records) == 8

    def test_throughput_curves_nonempty(self):
        _, result = run_dfsio("octopus")
        writes = result.write_curve(num_nodes=4)
        reads = result.read_curve(num_nodes=4)
        assert writes and reads
        assert all(mbps > 0 for _, mbps in writes)

    def test_octopus_beats_hdfs_while_memory_lasts(self):
        _, hdfs = run_dfsio("hdfs")
        _, octo = run_dfsio("octopus")
        hdfs_write = hdfs.write_curve(4)[0][1]
        octo_write = octo.write_curve(4)[0][1]
        assert octo_write > hdfs_write
        hdfs_read = hdfs.read_curve(4)[0][1]
        octo_read = octo.read_curve(4)[0][1]
        assert octo_read > 1.5 * hdfs_read

    def test_octopus_read_degrades_after_memory_full(self):
        # 4 workers x 4GB memory = 16GB; write 24GB so memory exhausts.
        _, octo = run_dfsio("octopus", total=24 * GB)
        curve = octo.read_curve(4)
        early = curve[0][1]
        late = curve[-1][1]
        assert late < early  # later files lack memory replicas

    def test_octopuspp_downgrades_keep_writes_fast(self):
        runner_plain, plain = run_dfsio("octopus", total=24 * GB)
        runner_managed, managed = run_dfsio("octopus", downgrade="lru", total=24 * GB)
        # With proactive downgrades the memory tier never saturates, so
        # late writes still get a memory replica and throughput does not
        # degrade relative to the unmanaged system (both pipelines carry
        # one HDD leg, which pins the absolute rate).
        plain_late = plain.write_curve(4)[-1][1]
        managed_late = managed.write_curve(4)[-1][1]
        assert managed_late >= 0.9 * plain_late
        monitor = runner_managed.runner.manager.monitor
        master = runner_managed.runner.master
        memory = master.hierarchy.highest
        assert monitor.bytes_downgraded[memory] > 0
        util = master.tier_utilization(memory)
        assert util <= 0.95


def _records(durations):
    """``(cumulative bytes, file bytes, seconds)`` for eight 1 GB files."""
    return [(i * GB, GB, seconds) for i, seconds in enumerate(durations, 1)]


#: Per-file DFSIO durations (write phase, read phase) of the 8 GB,
#: 4-worker run under both pricing models.  They are pinned exactly: a
#: changed float anywhere on the DFSIO path shows here, where the
#: shape-only tests above would not see it.
DFSIO_PINNED = {
    ("octopus", "snapshot"): (
        [9.317090909090908, 18.626181818181816, 18.626181818181816]
        + [27.93527272727273, 27.935272727272732]
        + [27.93527272727273] * 3,
        [1.5367999999999995] * 8,
    ),
    ("octopus", "fairshare"): (
        [27.93527272727273] * 8,
        [0.34213333333337914] * 8,
    ),
    ("hdfs", "snapshot"): (
        [9.317090909090908, 37.24436363636364, 55.86254545454546]
        + [74.48072727272726, 74.48072727272726]
        + [74.48072727272728, 74.48072727272728, 74.48072727272726],
        [14.833230769230767] * 8,
    ),
    ("hdfs", "fairshare"): (
        [37.24436363636364] * 8,
        [7.9409230769230135] * 8,
    ),
}


@pytest.mark.parametrize("placement, io_model", sorted(DFSIO_PINNED))
def test_dfsio_records_are_pinned(placement, io_model):
    _, result = run_dfsio(placement, io_model=io_model)
    writes, reads = DFSIO_PINNED[placement, io_model]
    assert result.write_records == _records(writes)
    assert result.read_records == _records(reads)
