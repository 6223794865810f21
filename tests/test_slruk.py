"""Tests for the SLRU-K downgrade/upgrade pair (Big SQL, Sec 2.1)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.slruk import (
    SlruKDowngradePolicy,
    SlruKUpgradePolicy,
    backward_k_distance,
    eviction_rank,
)
from repro.core.stats import FileStatistics
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.dfs.namespace import INodeFile
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


def make_stats(creation=0.0, accesses=(), k=12):
    file = INodeFile(inode_id=1, name="f", creation_time=creation, size=MB)
    stats = FileStatistics(file, k=k)
    for t in accesses:
        stats.record_access(t)
    return stats


class TestBackwardKDistance:
    def test_infinite_below_k_accesses(self):
        stats = make_stats(accesses=[10.0])
        assert math.isinf(backward_k_distance(stats, now=100.0, k=2))

    def test_never_accessed_is_infinite(self):
        stats = make_stats()
        assert math.isinf(backward_k_distance(stats, now=100.0, k=1))

    def test_finite_distance_is_age_of_kth_access(self):
        stats = make_stats(accesses=[10.0, 40.0, 70.0])
        assert backward_k_distance(stats, now=100.0, k=2) == 100.0 - 40.0
        assert backward_k_distance(stats, now=100.0, k=1) == 100.0 - 70.0

    def test_distance_grows_with_time(self):
        stats = make_stats(accesses=[10.0, 40.0])
        d1 = backward_k_distance(stats, now=50.0, k=2)
        d2 = backward_k_distance(stats, now=90.0, k=2)
        assert d2 > d1

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=12
        ),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_rank_total_order_components(self, times, k):
        """Ranks are always comparable tuples with class in {0, 1}."""
        stats = make_stats(accesses=sorted(times))
        rank = eviction_rank(stats, now=2e6, k=k)
        assert rank[0] in (0, 1)
        assert rank[1] >= 0.0


class TestSlruKDowngrade:
    def test_under_k_accessed_evicted_before_k_accessed(self, stack):
        sim, master, client, manager = stack
        policy = SlruKDowngradePolicy(manager.ctx, k=2)
        manager.set_downgrade_policy(policy)
        client.create("/once", 64 * MB)
        client.create("/twice", 64 * MB)
        sim.run(until=10)
        client.open("/once")
        client.open("/twice")
        sim.run(until=20)
        client.open("/twice")  # /twice now has 2 accesses, /once only 1
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/once"

    def test_oldest_kth_access_evicted_among_k_accessed(self, stack):
        sim, master, client, manager = stack
        policy = SlruKDowngradePolicy(manager.ctx, k=2)
        manager.set_downgrade_policy(policy)
        client.create("/old", 64 * MB)
        client.create("/new", 64 * MB)
        client.open("/old")
        sim.run(until=5)
        client.open("/old")  # 2nd access at t=5
        sim.run(until=50)
        client.open("/new")
        sim.run(until=60)
        client.open("/new")  # 2nd access at t=60; K-dist anchored at t=50
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/old"

    def test_lru_tie_break_among_infinite(self, stack):
        sim, master, client, manager = stack
        policy = SlruKDowngradePolicy(manager.ctx, k=3)
        manager.set_downgrade_policy(policy)
        client.create("/idle", 64 * MB)
        sim.run(until=30)
        client.create("/fresh", 64 * MB)
        sim.run(until=40)
        client.open("/fresh")
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/idle"

    def test_empty_tier_returns_none(self, stack):
        _, _, _, manager = stack
        policy = SlruKDowngradePolicy(manager.ctx)
        assert policy.select_file_to_downgrade(MEMORY) is None

    def test_k_validation(self, stack):
        _, _, _, manager = stack
        with pytest.raises(ValueError):
            SlruKDowngradePolicy(manager.ctx, k=0)
        with pytest.raises(ValueError):
            SlruKDowngradePolicy(manager.ctx, k=manager.stats.k + 1)


class TestSlruKUpgrade:
    def test_admits_when_memory_has_room(self, stack):
        sim, master, client, manager = stack
        policy = SlruKUpgradePolicy(manager.ctx, k=2)
        manager.set_upgrade_policy(policy)
        # Place everything on HDD so the accessed file is below memory.
        file = client.create("/f", 64 * MB)
        for block in master.blocks.blocks_of(file):
            for replica in list(block.replicas_on_tier(MEMORY)):
                master.delete_replica(replica)
        assert policy.start_upgrade(file)

    def test_rejects_in_memory_file(self, stack):
        sim, master, client, manager = stack
        policy = SlruKUpgradePolicy(manager.ctx, k=2)
        file = client.create("/f", 64 * MB)
        assert master.blocks.file_has_tier(file, MEMORY)
        assert not policy.start_upgrade(file)

    def test_rejects_none(self, stack):
        _, _, _, manager = stack
        policy = SlruKUpgradePolicy(manager.ctx)
        assert not policy.start_upgrade(None)

    def test_admission_requires_beating_every_victim(self, stack):
        sim, master, client, manager = stack
        policy = SlruKUpgradePolicy(manager.ctx, k=2)
        manager.set_upgrade_policy(policy)
        # Fill memory with hot residents (2 accesses each, recent).
        for i in range(3):
            client.create(f"/resident{i}", 900 * MB)
        sim.run(until=10)
        for i in range(3):
            client.open(f"/resident{i}")
        sim.run(until=20)
        for i in range(3):
            client.open(f"/resident{i}")
        # Cold challenger on HDD with a single (infinite-distance) access.
        challenger = client.create("/challenger", 900 * MB)
        for block in master.blocks.blocks_of(challenger):
            for replica in list(block.replicas_on_tier(MEMORY)):
                master.delete_replica(replica)
        sim.run(until=30)
        assert manager.ctx.tier_free(MEMORY) < challenger.size
        assert not policy.start_upgrade(challenger)


class TestRegistryIntegration:
    def test_configure_both_sides(self, stack):
        _, _, _, manager = stack
        configure_policies(manager, downgrade="slru-k", upgrade="slru-k")
        assert manager.downgrade_policy.name == "slru-k"
        assert manager.upgrade_policy.name == "slru-k"

    def test_end_to_end_run(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="slru-k", upgrade="slru-k")
        for i in range(20):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        assert manager.monitor.bytes_downgraded[MEMORY] > 0
