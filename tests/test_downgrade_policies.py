"""Tests for the seven downgrade policies (Table 1)."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, HOURS, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.downgrade import (
    LfuDowngradePolicy,
    LfuFDowngradePolicy,
    LifeDowngradePolicy,
    LruDowngradePolicy,
    LrfuDowngradePolicy,
    XgbDowngradePolicy,
)
from repro.core.policy import DowngradeAction
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def stack():
    """Small cluster with a live ReplicationManager (no policies yet)."""
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim)
    return sim, master, client, manager


def create_files(client, sim, specs):
    """specs: list of (path, size, creation_gap).  Returns paths."""
    for path, size, gap in specs:
        sim.run(until=sim.now() + gap)
        client.create(path, size)
    return [s[0] for s in specs]


def scan_pick(ctx, tier):
    """The LRU pick by a full scan: the reference the index must equal."""
    candidates = ctx.files_on_tier(tier)
    if not candidates:
        return None
    stats = ctx.stats
    return min(
        candidates,
        key=lambda f: (stats.get_or_create(f).last_access_or_creation, f.inode_id),
    )


class TestLru:
    def test_selects_least_recently_used(self, stack):
        sim, master, client, manager = stack
        policy = LruDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(
            client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1), ("/c", 64 * MB, 1)]
        )
        sim.run(until=sim.now() + 10)
        client.open("/a")  # /a becomes most recent; /b is now oldest
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/b"

    def test_unread_files_ranked_by_creation(self, stack):
        sim, master, client, manager = stack
        policy = LruDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/old", 64 * MB, 1), ("/new", 64 * MB, 60)])
        assert policy.select_file_to_downgrade(MEMORY).path == "/old"

    def test_none_when_tier_empty(self, stack):
        _, _, _, manager = stack
        policy = LruDowngradePolicy(manager.ctx)
        assert policy.select_file_to_downgrade(MEMORY) is None

    def test_default_action_is_move(self, stack):
        _, _, _, manager = stack
        policy = LruDowngradePolicy(manager.ctx)
        assert policy.how_to_downgrade(None, MEMORY) is DowngradeAction.MOVE


class TestLruLateAttach:
    """The manager (and its LRU policy) attach after files exist.

    Those files never reached the statistics registry through a create
    notification; the policy must still pick what the scan picks.
    """

    def _unmanaged(self):
        sim = Simulator()
        topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
        nm = NodeManager(topo)
        master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
        return sim, master, DFSClient(master)

    def test_policy_installed_after_files_exist(self):
        sim, master, client = self._unmanaged()
        create_files(
            client, sim, [("/c", 64 * MB, 1), ("/a", 64 * MB, 1), ("/b", 64 * MB, 1)]
        )
        client.open("/c")  # nobody listens yet: /c still ranks by creation
        manager = ReplicationManager(master, sim)
        policy = LruDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        assert len(manager.stats) == 0
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/c"
        assert selected is scan_pick(manager.ctx, MEMORY)
        client.open("/c")  # seen now: /a becomes the oldest
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/a"
        assert selected is scan_pick(manager.ctx, MEMORY)

    def test_files_without_stats_entries(self):
        sim, master, client = self._unmanaged()
        create_files(
            client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1), ("/c", 64 * MB, 1)]
        )
        manager = ReplicationManager(master, sim)
        sim.run(until=sim.now() + 10)
        client.open("/a")  # the only file with a statistics entry
        client.create("/d", 64 * MB)  # and one created after the attach
        policy = LruDowngradePolicy(manager.ctx)
        assert len(manager.stats) == 2
        for tier in (MEMORY, SSD, HDD):
            assert policy.select_file_to_downgrade(tier) is scan_pick(manager.ctx, tier)
        assert policy.select_file_to_downgrade(MEMORY).path == "/b"


class TestLfu:
    def test_selects_least_frequent(self, stack):
        sim, master, client, manager = stack
        policy = LfuDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1)])
        for _ in range(3):
            client.open("/a")
        client.open("/b")
        # /b has 1 access vs 3 -> evicted first even though more recent.
        assert policy.select_file_to_downgrade(MEMORY).path == "/b"

    def test_frequency_tie_broken_by_recency(self, stack):
        sim, master, client, manager = stack
        policy = LfuDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1)])
        client.open("/a")
        sim.run(until=sim.now() + 10)
        client.open("/b")
        assert policy.select_file_to_downgrade(MEMORY).path == "/a"


class TestLrfu:
    def test_prefers_low_weight(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="lrfu")
        policy = manager.downgrade_policy
        create_files(client, sim, [("/hot", 64 * MB, 1), ("/cold", 64 * MB, 1)])
        for _ in range(4):
            client.open("/hot")
        assert policy.select_file_to_downgrade(MEMORY).path == "/cold"

    def test_weight_decays_into_eviction(self, stack):
        sim, master, client, manager = stack
        conf = Configuration({"lrfu.half_life": 60.0})
        manager.conf.update(conf.as_dict())
        policy = LrfuDowngradePolicy(manager.ctx, weights=manager.ensure_lrfu_weights())
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1)])
        for _ in range(5):
            client.open("/a")  # /a very hot now
        client.open("/b")
        sim.run(until=sim.now() + 100 * HOURS)  # decay wipes the difference
        # After heavy decay both ~0; tie-break by inode id = /a first.
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected is not None


class TestLifeAndLfuF:
    def _aged_stack(self, stack, window=100.0):
        sim, master, client, manager = stack
        manager.conf.set("life.window", window)
        return sim, master, client, manager

    def test_life_evicts_old_lfu_first(self, stack):
        sim, master, client, manager = self._aged_stack(stack)
        policy = LifeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/old1", 64 * MB, 1), ("/old2", 64 * MB, 1)])
        client.open("/old2")
        sim.run(until=sim.now() + 200.0)  # both now idle > window
        create_files(client, sim, [("/fresh", 128 * MB, 1)])
        assert policy.select_file_to_downgrade(MEMORY).path == "/old1"

    def test_life_evicts_largest_recent_when_no_old(self, stack):
        sim, master, client, manager = self._aged_stack(stack, window=1 * HOURS)
        policy = LifeDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(
            client,
            sim,
            [("/small", 32 * MB, 1), ("/big", 256 * MB, 1), ("/mid", 64 * MB, 1)],
        )
        assert policy.select_file_to_downgrade(MEMORY).path == "/big"

    def test_lfuf_evicts_lfu_recent_when_no_old(self, stack):
        sim, master, client, manager = self._aged_stack(stack, window=1 * HOURS)
        policy = LfuFDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        create_files(client, sim, [("/x", 256 * MB, 1), ("/y", 32 * MB, 1)])
        for _ in range(2):
            client.open("/x")
        # /y least frequently used; size irrelevant for LFU-F.
        assert policy.select_file_to_downgrade(MEMORY).path == "/y"


class TestExd:
    def test_selects_lowest_decayed_weight(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="exd")
        policy = manager.downgrade_policy
        create_files(client, sim, [("/hot", 64 * MB, 1), ("/cold", 64 * MB, 1)])
        for _ in range(3):
            client.open("/hot")
        assert policy.select_file_to_downgrade(MEMORY).path == "/cold"


class TestXgb:
    def test_falls_back_to_lru_while_warming(self, stack):
        sim, master, client, manager = stack
        configure_policies(manager, downgrade="xgb")
        policy = manager.downgrade_policy
        assert isinstance(policy, XgbDowngradePolicy)
        create_files(client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1)])
        sim.run(until=sim.now() + 10)
        client.open("/a")  # strictly more recent than /b's creation
        policy.start_threshold = 0.0
        assert policy.start_downgrade(MEMORY)
        # Model not ready -> LRU order: /b (never read) first.
        assert policy.select_file_to_downgrade(MEMORY).path == "/b"

    def test_queue_skips_deleted_files(self, stack):
        sim, master, client, manager = stack
        create_files(client, sim, [("/a", 64 * MB, 1), ("/b", 64 * MB, 1)])
        configure_policies(manager, downgrade="xgb")
        policy = manager.downgrade_policy
        # Arm only now, so creations above did not already trigger drains.
        policy.start_threshold = 0.0
        assert policy.start_downgrade(MEMORY)
        client.delete("/a")
        selected = policy.select_file_to_downgrade(MEMORY)
        assert selected.path == "/b"

    def test_candidate_limit_respected(self, stack):
        sim, master, client, manager = stack
        manager.conf.set("xgb.candidates", 2)
        create_files(client, sim, [(f"/f{i}", 32 * MB, 1) for i in range(5)])
        configure_policies(manager, downgrade="xgb")
        policy = manager.downgrade_policy
        policy.start_threshold = 0.0
        policy.start_downgrade(MEMORY)
        assert len(policy._queue) == 2


class TestSharedThresholds:
    def test_start_stop_thresholds(self, stack):
        sim, master, client, manager = stack
        policy = LruDowngradePolicy(manager.ctx)
        manager.set_downgrade_policy(policy)
        assert not policy.start_downgrade(MEMORY)  # empty tier
        # Fill memory beyond 90%: 3 nodes x 1GB = 3GB total.
        create_files(client, sim, [(f"/fill{i}", 150 * MB, 1) for i in range(19)])
        util = manager.monitor.effective_utilization(MEMORY)
        if util > 0.90:
            assert policy.start_downgrade(MEMORY)

    def test_invalid_threshold_config(self, stack):
        _, _, _, manager = stack
        manager.conf.set("downgrade.start_threshold", 0.5)
        manager.conf.set("downgrade.stop_threshold", 0.9)
        with pytest.raises(ValueError):
            LruDowngradePolicy(manager.ctx)
