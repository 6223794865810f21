"""Tests for the Replication Monitor: transfers, accounting, health."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager
from repro.cluster.hardware import transfer_seconds
from repro.core.policy import DowngradeAction
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


class TestTransferSeconds:
    def test_bottleneck_is_slowest_medium(self):
        fast = transfer_seconds(128 * MB, MEMORY, SSD, False)
        slow = transfer_seconds(128 * MB, MEMORY, HDD, False)
        assert slow > fast

    def test_network_caps_cross_node(self):
        # Memory-to-memory is the only pair faster than the 10GbE network.
        local = transfer_seconds(128 * MB, MEMORY, MEMORY, False)
        remote = transfer_seconds(128 * MB, MEMORY, MEMORY, True)
        assert remote > local

    def test_scales_with_size(self):
        small = transfer_seconds(64 * MB, SSD, HDD, False)
        large = transfer_seconds(256 * MB, SSD, HDD, False)
        assert large > 3 * small


class TestDowngradeExecution:
    def test_move_frees_source_tier_after_commit(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)
        used_before = master.tier_used(MEMORY)
        scheduled = monitor.submit_downgrade(file, MEMORY, DowngradeAction.MOVE)
        assert scheduled == 128 * MB
        # In flight: pending accounting active, file excluded.
        assert monitor.pending_out[MEMORY] == 128 * MB
        assert file.inode_id in monitor.in_flight_files()
        sim.run(until=sim.now() + 60)
        assert master.tier_used(MEMORY) == used_before - 128 * MB
        assert monitor.pending_out[MEMORY] == 0
        assert file.inode_id not in monitor.in_flight_files()
        assert monitor.bytes_downgraded[MEMORY] == 128 * MB
        # Replica count preserved: moved, not deleted.
        block = master.blocks.blocks_of(file)[0]
        assert block.replica_count == 3

    def test_delete_action_drops_replica_immediately(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)
        scheduled = monitor.submit_downgrade(file, MEMORY, DowngradeAction.DELETE)
        assert scheduled == 128 * MB
        block = master.blocks.blocks_of(file)[0]
        assert block.replica_count == 2
        assert monitor.bytes_deleted[MEMORY] == 128 * MB

    def test_delete_refused_for_last_replica(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 64 * MB, replication=1)
        block = master.blocks.blocks_of(file)[0]
        tier = block.best_tier()
        scheduled = monitor.submit_downgrade(file, tier, DowngradeAction.DELETE)
        assert scheduled == 0
        assert block.replica_count == 1

    def test_file_deleted_mid_transfer_aborts(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)
        monitor.submit_downgrade(file, MEMORY, DowngradeAction.MOVE)
        client.delete("/f")
        sim.run(until=sim.now() + 60)
        assert monitor.transfers_aborted == 1
        assert monitor.transfers_committed == 0
        # All space released despite the abort.
        assert sum(d.used for n in master.topology.nodes for d in n.devices()) == 0

    def test_effective_utilization_nets_out_pending(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 256 * MB)
        raw = master.tier_utilization(MEMORY)
        monitor.submit_downgrade(file, MEMORY, DowngradeAction.MOVE)
        assert monitor.effective_utilization(MEMORY) < raw


class TestUpgradeExecution:
    def test_moves_lowest_replica_up(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        # Remove the memory replica so the file's best tier is SSD.
        mem = block.replicas_on_tier(MEMORY)[0]
        master.delete_replica(mem)
        scheduled = monitor.submit_upgrade(file, [MEMORY])
        assert scheduled == 128 * MB
        sim.run(until=sim.now() + 60)
        assert block.replicas_on_tier(MEMORY)
        # The HDD replica (slowest) moved up; SSD one remains.
        assert block.replicas_on_tier(SSD)
        assert not block.replicas_on_tier(HDD)
        assert monitor.bytes_upgraded[MEMORY] == 128 * MB

    def test_skips_blocks_already_at_target(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)  # already has a memory replica
        assert monitor.submit_upgrade(file, [MEMORY]) == 0

    def test_falls_through_candidate_tiers(self, stack):
        sim, master, client, manager = stack
        monitor = manager.monitor
        file = client.create("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        # Strip the block down to HDD-only replicas.
        for tier in (MEMORY, SSD):
            for replica in list(block.replicas_on_tier(tier)):
                master.delete_replica(replica)
        # Fill all memory so only the SSD candidate is feasible.
        for node in master.topology.nodes:
            for device in node.devices(MEMORY):
                if device.free:
                    device.allocate(-9999 - hash(device.device_id) % 100, device.free)
        scheduled = monitor.submit_upgrade(file, [MEMORY, SSD])
        assert scheduled == 128 * MB
        sim.run(until=sim.now() + 120)
        assert block.replicas_on_tier(SSD)


class TestHealthScan:
    def make_stack_with_health(self):
        sim = Simulator()
        topo = build_local_cluster(num_workers=4, memory_per_node=1 * GB)
        nm = NodeManager(topo)
        conf = Configuration({"monitor.health_checks_enabled": True})
        master = Master(topo, OctopusPlacementPolicy(topo, nm, conf), sim, conf)
        client = DFSClient(master)
        manager = ReplicationManager(master, sim, conf)
        return sim, master, client, manager

    def test_repairs_under_replicated_block(self):
        sim, master, client, manager = self.make_stack_with_health()
        file = client.create("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        victim = block.replica_list()[0]
        master.decommission_node(victim.node_id)
        assert block.replica_count == 2
        sim.run(until=sim.now() + 300)
        assert block.replica_count == 3
        assert manager.monitor.replicas_repaired >= 1

    def test_trims_over_replicated_block(self):
        sim, master, client, manager = self.make_stack_with_health()
        file = client.create("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        target = master.placement.select_copy_target(block, [HDD])
        ticket = master.begin_transfer(block, None, target)
        master.commit_transfer(ticket)
        assert block.replica_count == 4
        sim.run(until=sim.now() + 300)
        assert block.replica_count == 3
        # The slowest extra replica went first: memory copy survives.
        assert block.replicas_on_tier(MEMORY)

    def test_lost_block_not_repairable(self):
        sim, master, client, manager = self.make_stack_with_health()
        file = client.create("/f", 64 * MB, replication=1)
        block = master.blocks.blocks_of(file)[0]
        master.decommission_node(block.replica_list()[0].node_id)
        sim.run(until=sim.now() + 300)
        assert block.replica_count == 0  # nothing to copy from
