"""Tests for the Replication Manager's orchestration loops."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def make_stack(workers=3, memory=1 * GB, conf=None):
    sim = Simulator()
    conf = conf if conf is not None else Configuration()
    topo = build_local_cluster(num_workers=workers, memory_per_node=memory)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, conf), sim, conf)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim, conf)
    return sim, master, client, manager


class TestDowngradeLoop:
    def test_memory_stabilizes_between_thresholds(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade="lru")
        # Write well past memory capacity (3GB aggregate).
        for i in range(40):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        util = master.tier_utilization(MEMORY)
        assert util <= 0.92  # never runaway above the start threshold
        assert manager.monitor.bytes_downgraded[MEMORY] > 0

    def test_no_downgrades_below_threshold(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade="lru")
        client.create("/small", 64 * MB)
        sim.run(until=sim.now() + 600)
        assert manager.monitor.bytes_downgraded[MEMORY] == 0

    def test_cascade_memory_to_ssd_to_hdd(self):
        # Tiny SSD so memory downgrades overflow into SSD downgrades.
        sim, master, client, manager = make_stack(memory=1 * GB)
        # Shrink the SSD by pre-filling most of it.
        for node in master.topology.nodes:
            device = node.devices(SSD)[0]
            device.allocate(-1, device.capacity - 512 * MB)
        configure_policies(manager, downgrade="lru")
        for i in range(40):
            client.create(f"/f{i}", 256 * MB)
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 900)
        # Memory evictions overflowed the tiny SSD, which itself shed
        # files down to HDD — the cascading downgrade of Algorithm 1.
        assert manager.monitor.bytes_downgraded[SSD] > 0

    def test_run_returns_zero_without_policy(self):
        sim, master, client, manager = make_stack()
        client.create("/f", 64 * MB)
        assert manager.run_downgrade(MEMORY) == 0


class TestUpgradeLoop:
    def test_osa_upgrade_on_access(self):
        # Memory sized so the 90/85% threshold band leaves more than one
        # block of headroom per node (as the paper's 4GB nodes do).
        sim, master, client, manager = make_stack(memory=2 * GB)
        configure_policies(manager, downgrade="lru", upgrade="osa")
        # Fill memory so some files end up without memory replicas.
        files = []
        for i in range(56):
            files.append(client.create(f"/f{i}", 128 * MB))
            sim.run(until=sim.now() + 30)
        sim.run(until=sim.now() + 600)
        demoted = [f for f in files if not master.blocks.file_has_tier(f, MEMORY)]
        assert demoted, "expected at least one file without a memory copy"
        target = demoted[0]
        client.open(target.path)
        sim.run(until=sim.now() + 600)
        assert master.blocks.file_has_tier(target, MEMORY)

    def test_upgrade_ignored_without_policy(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade="lru")
        client.create("/f", 64 * MB)
        client.open("/f")
        assert manager.monitor.bytes_upgraded[MEMORY] == 0

    def test_proactive_tick_noop_for_reactive_policies(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, upgrade="osa")
        client.create("/f", 64 * MB)
        assert manager.run_upgrade(None) == 0


class TestEventBookkeeping:
    def test_stats_follow_lifecycle(self):
        sim, master, client, manager = make_stack()
        file = client.create("/f", 64 * MB)
        assert manager.stats.get(file) is not None
        client.open("/f")
        assert manager.stats.get(file).total_accesses == 1
        client.delete("/f")
        assert manager.stats.get(file) is None

    def test_shared_weight_trackers_single_update(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade="lrfu", upgrade="lrfu")
        file = client.create("/f", 64 * MB)
        client.open("/f")
        # Both policies share one tracker: a single access updates the
        # weight exactly once (W = 1 + decay(dt)*1 < 2 + epsilon).
        weight = manager.lrfu_weights.raw_weight(file)
        assert weight == pytest.approx(2.0, abs=0.01)

    def test_stop_halts_periodic_work(self):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade="xgb", upgrade="xgb")
        manager.stop()
        before = sim.events_processed
        sim.run(until=sim.now() + 3600)
        # Only already-queued (cancelled) events may pop; no new work.
        assert sim.events_processed - before <= 2


class TestEndToEndPairs:
    @pytest.mark.parametrize("downgrade,upgrade", [
        ("lru", "osa"), ("lrfu", "lrfu"), ("exd", "exd"), ("xgb", "xgb"),
        ("lfu", None), ("life", None), ("lfu-f", None),
    ])
    def test_pairs_run_clean(self, downgrade, upgrade):
        sim, master, client, manager = make_stack()
        configure_policies(manager, downgrade=downgrade, upgrade=upgrade)
        for i in range(15):
            client.create(f"/f{i}", 128 * MB)
            if i % 3 == 0:
                client.open(f"/f{max(i - 1, 0)}")
            sim.run(until=sim.now() + 60)
        sim.run(until=sim.now() + 600)
        # Invariant: all device accounting balanced, no stuck tickets.
        assert master.open_ticket_count() == 0

    def test_unknown_policy_rejected(self):
        _, _, _, manager = make_stack()
        with pytest.raises(ValueError):
            configure_policies(manager, downgrade="nope")
        with pytest.raises(ValueError):
            configure_policies(manager, upgrade="nope")
