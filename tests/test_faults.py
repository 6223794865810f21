"""Tests for node failure injection and replication repair."""

import pytest

from repro.cluster import build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager
from repro.dfs import (
    DFSClient,
    FaultInjector,
    Master,
    NodeManager,
)
from repro.dfs.placement import HdfsPlacementPolicy
from repro.sim import Simulator


@pytest.fixture
def stack():
    sim = Simulator()
    topo = build_local_cluster(num_workers=5, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    conf = Configuration({"monitor.health_checks_enabled": True})
    master = Master(topo, HdfsPlacementPolicy(topo, nm, conf), sim, conf)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim, conf)
    injector = FaultInjector(sim, master)
    return sim, master, client, manager, injector


class TestFailure:
    def test_fail_drops_replicas_and_marks_dead(self, stack):
        sim, master, client, manager, injector = stack
        client.create("/f", 128 * MB)
        victim = master.blocks.blocks_of(master.get_file("/f"))[0].nodes()[0]
        event = injector.fail(victim)
        assert event.replicas_lost >= 1
        assert not master.topology.node(victim).alive
        block = master.blocks.blocks_of(master.get_file("/f"))[0]
        assert victim not in block.nodes()

    def test_double_fail_rejected(self, stack):
        sim, master, client, manager, injector = stack
        injector.fail("worker001")
        with pytest.raises(ValueError):
            injector.fail("worker001")

    def test_recover_requires_down_node(self, stack):
        _, _, _, _, injector = stack
        with pytest.raises(ValueError):
            injector.recover("worker001")

    def test_dead_node_excluded_from_placement(self, stack):
        sim, master, client, manager, injector = stack
        injector.fail("worker001")
        client.create("/g", 256 * MB)
        for block in master.blocks.blocks_of(master.get_file("/g")):
            assert "worker001" not in block.nodes()

    def test_recovered_node_placeable_again(self, stack):
        sim, master, client, manager, injector = stack
        injector.fail("worker001")
        injector.recover("worker001")
        assert master.topology.node("worker001").alive
        # With 5 workers and replication 3, enough creations eventually
        # land on the recovered (emptiest) node.
        for i in range(6):
            client.create(f"/r{i}", 128 * MB)
        node = master.topology.node("worker001")
        assert sum(node.tier_used(t) for t in node.tiers()) > 0

    def test_data_loss_counted_when_all_replicas_die(self, stack):
        sim, master, client, manager, injector = stack
        client.create("/f", 128 * MB, replication=1)
        block = master.blocks.blocks_of(master.get_file("/f"))[0]
        holder = block.nodes()[0]
        event = injector.fail(holder)
        assert event.blocks_lost >= 1
        assert injector.stats.blocks_lost >= 1


class TestRepair:
    def test_health_scan_restores_replication(self, stack):
        sim, master, client, manager, injector = stack
        client.create("/f", 128 * MB)
        file = master.get_file("/f")
        victim = master.blocks.blocks_of(file)[0].nodes()[0]
        injector.fail(victim)
        assert injector.under_replicated_blocks() >= 1
        # Health checks run every 30s; give a few rounds plus transfers.
        sim.run(until=sim.now() + 300)
        assert injector.under_replicated_blocks() == 0
        assert manager.monitor.replicas_repaired >= 1
        for block in master.blocks.blocks_of(file):
            assert block.replica_count == file.replication

    def test_repair_avoids_dead_nodes(self, stack):
        sim, master, client, manager, injector = stack
        client.create("/f", 128 * MB)
        file = master.get_file("/f")
        victim = master.blocks.blocks_of(file)[0].nodes()[0]
        injector.fail(victim)
        sim.run(until=sim.now() + 300)
        for block in master.blocks.blocks_of(file):
            assert victim not in block.nodes()

    def test_outage_fail_and_recover_scheduled(self, stack):
        sim, master, client, manager, injector = stack
        client.create("/f", 128 * MB)
        injector.outage("worker002", start=10.0, downtime=60.0)
        sim.run(until=9.0)
        assert master.topology.node("worker002").alive
        sim.run(until=30.0)
        assert not master.topology.node("worker002").alive
        sim.run(until=100.0)
        assert master.topology.node("worker002").alive
        assert injector.stats.failures == 1
        assert injector.stats.recoveries == 1


class TestRandomOutages:
    def test_schedule_random_outages(self, stack):
        sim, master, client, manager, injector = stack
        chosen = injector.schedule_random_outages(
            count=2, start=5.0, end=50.0, downtime=20.0, seed=3
        )
        assert len(set(chosen)) == 2
        sim.run(until=200.0)
        assert injector.stats.failures == 2
        assert injector.stats.recoveries == 2
        assert all(n.alive for n in master.topology.nodes)

    def test_too_many_failures_rejected(self, stack):
        _, _, _, _, injector = stack
        with pytest.raises(ValueError):
            injector.schedule_random_outages(
                count=99, start=0.0, end=10.0, downtime=5.0
            )

    def test_deterministic_with_seed(self, stack):
        sim, master, client, manager, injector = stack
        a = FaultInjector(sim, master).schedule_random_outages(
            2, 1000.0, 2000.0, 10.0, seed=5
        )
        b = FaultInjector(sim, master).schedule_random_outages(
            2, 3000.0, 4000.0, 10.0, seed=5
        )
        assert a == b


class TestSchedulerIntegration:
    def test_dead_node_gets_no_tasks(self):
        from repro.engine.runner import SystemConfig, WorkloadRunner
        from repro.workload.profiles import PROFILES, scaled_profile
        from repro.workload.synthesis import synthesize_trace

        trace = synthesize_trace(
            scaled_profile(PROFILES["FB"], 0.03), seed=5
        )
        runner = WorkloadRunner(trace, SystemConfig(workers=5))
        injector = FaultInjector(runner.sim, runner.master, runner.scheduler)
        injector.fail("worker001")
        assert runner.scheduler.free_slots("worker001") == 0
        result = runner.run()
        assert result.jobs_finished > 0
        injector.recover("worker001")
        assert runner.scheduler.free_slots("worker001") > 0
