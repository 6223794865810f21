"""Tests for the Greedy-Dual-Size downgrade policy (Sec 2.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.gds import GreedyDualSizeDowngradePolicy
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


class TestCredits:
    def test_uniform_cost_favors_evicting_large_files(self, stack):
        sim, master, client, manager = stack
        policy = GreedyDualSizeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        client.create("/big", 512 * MB)
        client.create("/small", 32 * MB)
        # Same generation (inflation 0): big has the lower 1/size credit.
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/big"

    def test_access_refreshes_credit_above_inflation(self, stack):
        sim, master, client, manager = stack
        policy = GreedyDualSizeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        client.create("/a", 128 * MB)
        client.create("/b", 128 * MB)
        first = policy.select_file_to_downgrade(MEMORY)
        # After one eviction the inflation rose; a re-access re-credits
        # the survivor above any same-size untouched file.
        survivor = "/a" if first.path == "/b" else "/b"
        client.open(survivor)
        client.create("/c", 128 * MB)
        client.open("/c")
        # /c and the survivor have equal credits now (same size, same
        # inflation) so the tie-break picks the lower inode id, which is
        # the survivor; re-access the survivor later to distinguish.
        sim.run(until=sim.now() + 1)
        client.open(survivor)
        assert policy.credit(master.get_file(survivor)) >= policy.credit(
            master.get_file("/c")
        )

    def test_inflation_monotone_over_evictions(self, stack):
        sim, master, client, manager = stack
        policy = GreedyDualSizeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        for i in range(8):
            client.create(f"/f{i}", (16 + 16 * i) * MB)
        seen = [policy.inflation]
        for _ in range(6):
            victim = policy.select_file_to_downgrade(MEMORY)
            assert victim is not None
            # Simulate the downgrade finishing: drop from memory so the
            # candidate set shrinks.
            for block in master.blocks.blocks_of(victim):
                for replica in list(block.replicas_on_tier(MEMORY)):
                    master.delete_replica(replica)
            seen.append(policy.inflation)
        assert seen == sorted(seen)

    def test_deleted_file_forgotten(self, stack):
        sim, master, client, manager = stack
        policy = GreedyDualSizeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        client.create("/a", 64 * MB)
        client.delete("/a")
        assert policy.select_file_to_downgrade(MEMORY) is None

    def test_size_cost_mode_equalizes_credits(self, stack):
        _, master, client, manager = stack
        policy = GreedyDualSizeDowngradePolicy(manager.ctx, cost_mode="size")
        manager.set_downgrade_policy(policy)
        small = client.create("/small", 32 * MB)
        big = client.create("/big", 512 * MB)
        assert policy.credit(small) == pytest.approx(policy.credit(big))

    def test_invalid_cost_mode_rejected(self, stack):
        _, _, _, manager = stack
        with pytest.raises(ValueError):
            GreedyDualSizeDowngradePolicy(manager.ctx, cost_mode="banana")


class TestRegistryIntegration:
    def test_configure_by_name(self, stack):
        _, _, _, manager = stack
        configure_policies(manager, downgrade="gds")
        assert manager.downgrade_policy.name == "gds"

    def test_end_to_end_run(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="gds")
        for i in range(20):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        assert manager.monitor.bytes_downgraded[MEMORY] > 0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=2, max_size=12)
)
def test_uniform_credit_ordering_matches_inverse_size(sizes):
    """Within one generation, eviction order is largest-first (property)."""
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=64 * GB)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim)
    policy = GreedyDualSizeDowngradePolicy(manager.ctx)
    manager.set_downgrade_policy(policy)
    for i, size in enumerate(sizes):
        client.create(f"/f{i}", size * MB)
    victim = policy.select_file_to_downgrade(MEMORY)
    assert victim.size == max(sizes) * MB
