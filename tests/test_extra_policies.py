"""Tests for the related-work extension policies."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.extra_policies import (
    ArcLikeDowngradePolicy,
    MarkerOracleDowngradePolicy,
    RandomDowngradePolicy,
    SizeDowngradePolicy,
)
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


def create(client, sim, specs):
    for path, size in specs:
        sim.run(until=sim.now() + 1)
        client.create(path, size)


class TestRandomPolicy:
    def test_selects_some_candidate(self, stack):
        sim, master, client, manager = stack
        policy = RandomDowngradePolicy(manager.ctx, seed=1)
        manager.set_downgrade_policy(policy)
        create(client, sim, [("/a", 64 * MB), ("/b", 64 * MB)])
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path in ("/a", "/b")

    def test_deterministic_with_seed(self, stack):
        sim, master, client, manager = stack
        create(client, sim, [(f"/f{i}", 32 * MB) for i in range(6)])
        a = RandomDowngradePolicy(manager.ctx, seed=5)
        b = RandomDowngradePolicy(manager.ctx, seed=5)
        assert (
            a.select_file_to_downgrade(MEMORY).path
            == b.select_file_to_downgrade(MEMORY).path
        )

    def test_empty_tier(self, stack):
        _, _, _, manager = stack
        policy = RandomDowngradePolicy(manager.ctx)
        assert policy.select_file_to_downgrade(MEMORY) is None


class TestSizePolicy:
    def test_largest_first(self, stack):
        sim, master, client, manager = stack
        policy = SizeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create(
            client, sim, [("/small", 32 * MB), ("/big", 256 * MB), ("/mid", 64 * MB)]
        )
        assert policy.select_file_to_downgrade(MEMORY).path == "/big"


class TestArcPolicy:
    def test_single_access_files_evicted_before_reaccessed(self, stack):
        sim, master, client, manager = stack
        policy = ArcLikeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create(client, sim, [("/once", 64 * MB), ("/twice", 64 * MB)])
        client.open("/twice")
        client.open("/twice")  # promoted to the frequency list
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/once"

    def test_ghost_hit_adapts_balance(self, stack):
        sim, master, client, manager = stack
        policy = ArcLikeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create(client, sim, [("/a", 64 * MB), ("/b", 64 * MB)])
        p_before = policy.p
        evicted = policy.select_file_to_downgrade(MEMORY)
        # Re-access the evicted (ghosted) file: recency ghost hit.
        client.open(evicted.path)
        assert policy.p != p_before

    def test_deleted_files_leave_all_lists(self, stack):
        sim, master, client, manager = stack
        policy = ArcLikeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create(client, sim, [("/a", 64 * MB)])
        client.delete("/a")
        assert policy.select_file_to_downgrade(MEMORY) is None

    def test_runs_end_to_end(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="arc")
        for i in range(20):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        assert manager.monitor.bytes_downgraded[MEMORY] > 0


class TestMarkerPolicy:
    def test_unmarked_evicted_first(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="marker")
        policy = manager.downgrade_policy
        assert isinstance(policy, MarkerOracleDowngradePolicy)
        create(client, sim, [("/hot", 64 * MB), ("/cold", 64 * MB)])
        client.open("/hot")  # marks /hot
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/cold"

    def test_phase_change_clears_marks(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="marker")
        policy = manager.downgrade_policy
        create(client, sim, [("/a", 64 * MB), ("/b", 64 * MB)])
        client.open("/a")
        client.open("/b")  # everything marked
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected is not None  # new phase began
        assert len(policy._marked) == 0 or selected.inode_id not in policy._marked


class TestRegistryIntegration:
    @pytest.mark.parametrize("name", ["random", "size", "arc", "marker"])
    def test_configure_by_name(self, stack, name):
        _, _, _, manager = stack
        configure_policies(manager, downgrade=name)
        assert manager.downgrade_policy is not None
        assert manager.downgrade_policy.name == name
