"""Tests for per-node I/O statistics."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.units import MB
from repro.dfs.node_manager import NodeManager

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def manager():
    return NodeManager(build_local_cluster(num_workers=3))


def node_id(manager, index=0):
    return manager.topology.nodes[index].node_id


class TestCounters:
    def test_read_write_accounting(self, manager):
        n = node_id(manager)
        manager.record_read(n, MEMORY, 10 * MB)
        manager.record_write(n, HDD, 20 * MB)
        stats = manager.stats(n)
        assert stats.bytes_read[MEMORY] == 10 * MB
        assert stats.bytes_written[HDD] == 20 * MB


class TestTransfers:
    def test_active_transfer_lifecycle(self, manager):
        n = node_id(manager)
        manager.transfer_started(n)
        manager.transfer_started(n)
        assert manager.stats(n).active_transfers == 2
        assert manager.stats(n).total_transfers == 2
        manager.transfer_finished(n)
        assert manager.stats(n).active_transfers == 1

    def test_underflow_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.transfer_finished(node_id(manager))

    def test_load_score_monotone(self, manager):
        n = node_id(manager)
        idle = manager.load_score(n)
        manager.transfer_started(n)
        busy = manager.load_score(n)
        assert idle == 0.0
        assert 0.0 < busy < 1.0
