"""Tests for the AutoCache mode: cache-copy upgrades, delete downgrades."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import DowngradeAction, ReplicationManager, configure_policies
from repro.dfs import DFSClient, Master, NodeManager
from repro.dfs.placement import HdfsPlacementPolicy
from repro.engine.runner import SystemConfig
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def hdfs_stack(conf=None, workers=4, memory_per_node=1 * GB):
    sim = Simulator()
    topo = build_local_cluster(num_workers=workers, memory_per_node=memory_per_node)
    nm = NodeManager(topo)
    configuration = Configuration(conf or {})
    master = Master(
        topo, HdfsPlacementPolicy(topo, nm, configuration), sim, configuration
    )
    client = DFSClient(master)
    manager = ReplicationManager(master, sim, configuration)
    return sim, master, client, manager


CACHE_CONF = {"manager.cache_mode": True, "downgrade.action": "delete"}


class TestSystemConfig:
    def test_cache_mode_folds_conf_keys(self):
        config = SystemConfig(placement="hdfs", cache_mode=True)
        conf = config.effective_conf()
        assert conf["manager.cache_mode"] is True
        assert conf["downgrade.action"] == "delete"

    def test_explicit_conf_wins(self):
        config = SystemConfig(
            placement="hdfs", cache_mode=True, conf={"downgrade.action": "move"}
        )
        assert config.effective_conf()["downgrade.action"] == "move"

    def test_default_has_no_cache_keys(self):
        conf = SystemConfig().effective_conf()
        assert "manager.cache_mode" not in conf


class TestDowngradeAction:
    def test_policy_reads_configured_action(self):
        sim, master, client, manager = hdfs_stack(CACHE_CONF)
        configure_policies(manager, downgrade="lru")
        file = client.create("/f", 64 * MB)
        action = manager.downgrade_policy.how_to_downgrade(file, MEMORY)
        assert action is DowngradeAction.DELETE

    def test_default_action_is_move(self):
        sim, master, client, manager = hdfs_stack()
        configure_policies(manager, downgrade="lru")
        file = client.create("/f", 64 * MB)
        action = manager.downgrade_policy.how_to_downgrade(file, MEMORY)
        assert action is DowngradeAction.MOVE

    def test_invalid_action_rejected(self):
        sim, master, client, manager = hdfs_stack({"downgrade.action": "teleport"})
        with pytest.raises(ValueError):
            configure_policies(manager, downgrade="lru")


class TestCacheCopyUpgrade:
    def test_copy_upgrade_keeps_source_replica(self):
        sim, master, client, manager = hdfs_stack(CACHE_CONF)
        configure_policies(manager, downgrade="lru", upgrade="osa")
        file = client.create("/f", 64 * MB)
        block = master.blocks.blocks_of(file)[0]
        hdd_before = len(block.replicas_on_tier(HDD))
        assert not block.replicas_on_tier(MEMORY)
        client.open("/f")  # OSA admission schedules a cache copy
        sim.run(until=sim.now() + 120)
        assert len(block.replicas_on_tier(HDD)) == hdd_before
        assert len(block.replicas_on_tier(MEMORY)) == 1

    def test_cached_replica_colocated_when_possible(self):
        sim, master, client, manager = hdfs_stack(CACHE_CONF, workers=6)
        configure_policies(manager, downgrade="lru", upgrade="osa")
        file = client.create("/f", 64 * MB)
        block = master.blocks.blocks_of(file)[0]
        holders = set(block.nodes())
        client.open("/f")
        sim.run(until=sim.now() + 120)
        cached = block.replicas_on_tier(MEMORY)
        assert len(cached) == 1
        assert cached[0].node_id in holders

    def test_move_mode_removes_source(self):
        sim, master, client, manager = hdfs_stack()  # tiering semantics
        configure_policies(manager, downgrade="lru", upgrade="osa")
        file = client.create("/f", 64 * MB)
        block = master.blocks.blocks_of(file)[0]
        hdd_before = len(block.replicas_on_tier(HDD))
        client.open("/f")
        sim.run(until=sim.now() + 120)
        assert len(block.replicas_on_tier(MEMORY)) == 1
        assert len(block.replicas_on_tier(HDD)) == hdd_before - 1


class TestCacheEviction:
    def test_delete_downgrade_frees_memory_without_moving(self):
        sim, master, client, manager = hdfs_stack(CACHE_CONF)
        configure_policies(manager, downgrade="lru", upgrade="osa")
        # Fill the cache by accessing files until memory is pressured
        # (4 workers x 1GB memory; 20 x 256MB of cached data overshoots
        # the 90% downgrade trigger).
        for i in range(20):
            client.create(f"/f{i}", 256 * MB)
            client.open(f"/f{i}")
            sim.run(until=sim.now() + 60)
        sim.run(until=sim.now() + 600)
        monitor = manager.monitor
        assert monitor.bytes_deleted[MEMORY] > 0
        # Nothing was *moved* down: cache evictions are deletions.
        assert monitor.bytes_downgraded[MEMORY] == 0
        # Persistent replication is untouched: every block still has 3
        # HDD replicas.
        for file in master.files():
            for block in master.blocks.blocks_of(file):
                assert len(block.replicas_on_tier(HDD)) == 3


class TestHealthScanCacheExemption:
    def test_cached_replica_not_trimmed(self):
        sim, master, client, manager = hdfs_stack(
            {**CACHE_CONF, "monitor.health_checks_enabled": True}
        )
        configure_policies(manager, downgrade="lru", upgrade="osa")
        file = client.create("/f", 64 * MB)
        client.open("/f")
        sim.run(until=sim.now() + 120)
        block = master.blocks.blocks_of(file)[0]
        assert len(block.replicas_on_tier(MEMORY)) == 1
        manager.monitor.health_scan()
        sim.run(until=sim.now() + 120)
        # 3 HDD + 1 cached memory replica: not over-replicated in cache mode.
        assert len(block.replicas_on_tier(MEMORY)) == 1
        assert len(block.replicas_on_tier(HDD)) == 3

    def test_under_replication_repaired_on_persistent_tiers(self):
        sim, master, client, manager = hdfs_stack(
            {**CACHE_CONF, "monitor.health_checks_enabled": True}
        )
        configure_policies(manager, downgrade="lru", upgrade="osa")
        file = client.create("/f", 64 * MB)
        client.open("/f")
        sim.run(until=sim.now() + 120)
        block = master.blocks.blocks_of(file)[0]
        # Drop one persistent replica; the cached one must not count.
        master.delete_replica(block.replicas_on_tier(HDD)[0])
        manager.monitor.health_scan()
        sim.run(until=sim.now() + 300)
        persistent = [r for r in block.replica_list() if r.tier is not MEMORY]
        assert len(persistent) == 3
        # The cached copy survived the repair round untouched.
        assert len(block.replicas_on_tier(MEMORY)) == 1


class TestAutoCacheExperiment:
    def test_small_scale_run(self):
        from repro.experiments.autocache import run_autocache, render_autocache
        from repro.experiments.common import ExperimentScale

        result = run_autocache("FB", scale=ExperimentScale(workload_scale=0.05))
        assert set(result.runs) == {
            "HDFS",
            "HDFS+Cache",
            "AutoCache(LRU-OSA)",
            "AutoCache(XGB)",
        }
        table = render_autocache(result)
        assert "AutoCache" in table
        for label in result.cache_labels:
            assert result.runs[label].jobs_finished > 0
