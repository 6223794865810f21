"""Tests for the LeCaR expert-selection downgrade policy (Sec 2.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.lecar import LeCaRDowngradePolicy
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def stack():
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim)
    return sim, master, client, manager


class TestWeights:
    def test_initial_weights_balanced(self, stack):
        _, _, _, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx)
        assert policy.weights == (0.5, 0.5)

    def test_ghost_hit_penalizes_mistaken_expert(self, stack):
        sim, master, client, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx, seed=2)
        manager.set_downgrade_policy(policy)
        client.create("/a", 64 * MB)
        client.create("/b", 64 * MB)
        victim = policy.select_file_to_downgrade(MEMORY)
        in_lru_ghost = victim.inode_id in policy._ghost_lru
        before = policy.weights
        client.open(victim.path)  # ghost hit: the evicting expert erred
        after = policy.weights
        if in_lru_ghost:
            assert after[0] < before[0]
        else:
            assert after[1] < before[1]

    def test_weights_stay_normalized(self, stack):
        sim, master, client, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx, seed=3)
        manager.set_downgrade_policy(policy)
        for i in range(6):
            client.create(f"/f{i}", 32 * MB)
        for _ in range(4):
            victim = policy.select_file_to_downgrade(MEMORY)
            client.open(victim.path)
        w = policy.weights
        assert w[0] > 0 and w[1] > 0
        assert w[0] + w[1] == pytest.approx(1.0)

    def test_recent_mistake_costs_more_than_stale(self, stack):
        _, _, client, manager = stack
        recent = LeCaRDowngradePolicy(manager.ctx)
        stale = LeCaRDowngradePolicy(manager.ctx)
        recent._penalize(0, age=1)
        stale._penalize(0, age=recent.history_capacity)
        assert recent.weights[0] < stale.weights[0]


class TestSelection:
    def test_victim_comes_from_tier(self, stack):
        sim, master, client, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx, seed=7)
        manager.set_downgrade_policy(policy)
        client.create("/a", 64 * MB)
        client.create("/b", 64 * MB)
        victim = policy.select_file_to_downgrade(MEMORY)
        assert victim.path in ("/a", "/b")

    def test_empty_tier_returns_none(self, stack):
        _, _, _, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx)
        assert policy.select_file_to_downgrade(MEMORY) is None

    def test_ghost_capacity_bounded(self, stack):
        sim, master, client, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx, history_capacity=3, seed=11)
        manager.set_downgrade_policy(policy)
        for i in range(10):
            client.create(f"/f{i}", 16 * MB)
            policy.select_file_to_downgrade(MEMORY)
        assert len(policy._ghost_lru) <= 3
        assert len(policy._ghost_lfu) <= 3

    def test_deleted_file_leaves_ghosts(self, stack):
        sim, master, client, manager = stack
        policy = LeCaRDowngradePolicy(manager.ctx, seed=13)
        manager.set_downgrade_policy(policy)
        client.create("/a", 64 * MB)
        victim = policy.select_file_to_downgrade(MEMORY)
        client.delete(victim.path)
        assert victim.inode_id not in policy._ghost_lru
        assert victim.inode_id not in policy._ghost_lfu

    def test_parameter_validation(self, stack):
        _, _, _, manager = stack
        with pytest.raises(ValueError):
            LeCaRDowngradePolicy(manager.ctx, learning_rate=0.0)
        with pytest.raises(ValueError):
            LeCaRDowngradePolicy(manager.ctx, history_capacity=0)


class TestRegistryIntegration:
    def test_configure_by_name(self, stack):
        _, _, _, manager = stack
        configure_policies(manager, downgrade="lecar")
        assert manager.downgrade_policy.name == "lecar"

    def test_end_to_end_run(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="lecar")
        for i in range(20):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        assert manager.monitor.bytes_downgraded[MEMORY] > 0


@given(
    ages=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=50),
    experts=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=50),
)
def test_weights_invariant_under_any_penalty_sequence(ages, experts):
    """Weights remain a strictly positive probability vector (property)."""
    sim = Simulator()
    topo = build_local_cluster(num_workers=3)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
    manager = ReplicationManager(master, sim)
    policy = LeCaRDowngradePolicy(manager.ctx)
    for age, expert in zip(ages, experts):
        policy._penalize(expert, age)
    w = policy.weights
    assert w[0] > 0 and w[1] > 0
    assert w[0] + w[1] == pytest.approx(1.0)
