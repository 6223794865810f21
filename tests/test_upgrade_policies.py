"""Tests for the four upgrade policies (Table 2)."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.upgrade import (
    OsaUpgradePolicy,
    XgbUpgradePolicy,
)
from repro.dfs import DFSClient, Master, NodeManager
from repro.dfs.placement import SingleTierPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def hdd_stack():
    """All files start on HDD (the Sec 7.4 isolation setup)."""
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    master = Master(topo, SingleTierPlacementPolicy(topo, nm, Configuration()), sim)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim)
    return sim, master, client, manager


class TestOsa:
    def test_upgrades_accessed_file_not_in_memory(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        policy = OsaUpgradePolicy(manager.ctx)
        file = client.create("/f", 64 * MB)
        assert policy.start_upgrade(file)
        assert policy.select_file_to_upgrade(file) is file
        assert policy.select_upgrade_tier(file) is MEMORY
        assert policy.stop_upgrade()  # single-file process

    def test_skips_memory_resident_file(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        manager.set_upgrade_policy(OsaUpgradePolicy(manager.ctx))
        file = client.create("/f", 64 * MB)
        client.open("/f")
        sim.run(until=sim.now() + 120)  # let the upgrade commit
        assert master.blocks.file_has_tier(file, MEMORY)
        assert not manager.upgrade_policy.start_upgrade(file)

    def test_not_proactive(self, hdd_stack):
        _, _, _, manager = hdd_stack
        policy = OsaUpgradePolicy(manager.ctx)
        assert not policy.proactive
        assert not policy.start_upgrade(None)


class TestLrfuUpgrade:
    def test_requires_weight_above_threshold(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="lrfu")
        policy = manager.upgrade_policy
        file = client.create("/f", 64 * MB)
        # One access: weight ~2 < threshold 3.
        client.open("/f")
        assert not policy.start_upgrade(file)
        # Rapid repeat accesses push the weight over 3.
        client.open("/f")
        client.open("/f")
        assert policy.start_upgrade(file)

    def test_memory_resident_skipped(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="lrfu")
        policy = manager.upgrade_policy
        file = client.create("/f", 64 * MB)
        for _ in range(4):
            client.open("/f")
        sim.run(until=sim.now() + 300)
        if master.blocks.file_has_tier(file, MEMORY):
            assert not policy.start_upgrade(file)


class TestExdUpgrade:
    def test_admits_when_memory_has_room(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="exd")
        policy = manager.upgrade_policy
        file = client.create("/f", 64 * MB)
        client.open("/f")
        assert policy.start_upgrade(file)

    def test_rejects_file_larger_than_memory(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="exd")
        policy = manager.upgrade_policy
        # 3 nodes x 1GB memory; a 4GB file can never fit entirely.
        file = client.create("/huge", 4 * GB)
        client.open("/huge")
        assert not policy.start_upgrade(file)

    def test_weight_comparison_governs_admission_under_pressure(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, downgrade="exd", upgrade="exd")
        policy = manager.upgrade_policy
        # Fill memory with well-used (high-weight) files via upgrades.
        hot = [client.create(f"/hot{i}", 400 * MB) for i in range(7)]
        for f in hot:
            for _ in range(5):
                client.open(f.path)
            sim.run(until=sim.now() + 60)
        sim.run(until=sim.now() + 600)
        cold = client.create("/cold", 400 * MB)
        client.open(cold.path)
        free = manager.ctx.tier_free(MEMORY)
        if free < cold.size:
            # One access vs several high-weight victims: rejected.
            assert not policy.start_upgrade(cold)


class TestXgbUpgrade:
    def test_warmup_falls_back_to_osa(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="xgb")
        policy = manager.upgrade_policy
        assert isinstance(policy, XgbUpgradePolicy)
        file = client.create("/f", 64 * MB)
        assert not policy.model.ready
        # Accessed files are upgraded OSA-style while the model warms up;
        # proactive scans stay gated on readiness.
        assert policy.start_upgrade(file)
        assert policy.select_file_to_upgrade(file) is file
        assert not policy.start_upgrade(None)

    def test_warmup_fallback_skips_memory_residents(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, downgrade=None, upgrade="xgb")
        file = client.create("/f", 64 * MB)
        client.open("/f")
        sim.run(until=sim.now() + 120)  # fallback upgrade commits
        assert master.blocks.file_has_tier(file, MEMORY)
        assert not manager.upgrade_policy.start_upgrade(file)

    def test_budget_accounting(self, hdd_stack):
        _, _, _, manager = hdd_stack
        configure_policies(manager, upgrade="xgb")
        policy = manager.upgrade_policy
        policy.on_upgrade_scheduled(None, policy.budget + 1)
        assert policy.stop_upgrade()

    def test_tier_candidates_for_hdd_file(self, hdd_stack):
        sim, master, client, manager = hdd_stack
        configure_policies(manager, upgrade="xgb")
        policy = manager.upgrade_policy
        file = client.create("/f", 64 * MB)
        assert policy.upgrade_tier_candidates(file) == [MEMORY, SSD]
