"""Tests for the Replication Monitor: transfers, accounting, health."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager
from repro.cluster.hardware import transfer_seconds
from repro.core.policy import DowngradeAction
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.obs.trace import Tracer
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


class TestTransferLifecycle:
    """Every kind of transfer runs one begin/land pair: booked while in
    flight, fully unwound when it commits or aborts."""

    @staticmethod
    def begin(kind, monitor, master, client):
        """Start one ``kind`` transfer of a fresh one-block file."""
        file = client.create("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        if kind == "downgrade":
            monitor.submit_downgrade(file, MEMORY, DowngradeAction.MOVE)
        elif kind == "repair":
            master.delete_replica(block.replicas_on_tier(HDD)[0])
            monitor.health_scan()
        else:
            master.delete_replica(block.replicas_on_tier(MEMORY)[0])
            monitor.submit_upgrade(file, [MEMORY], copy=kind == "cache")
        return file, block

    @pytest.mark.parametrize("deleted", [False, True], ids=["commit", "abort"])
    @pytest.mark.parametrize("kind", ["downgrade", "upgrade", "cache", "repair"])
    def test_kind_books_then_unwinds(self, stack, kind, deleted):
        sim, master, client, manager = stack
        monitor = manager.monitor
        monitor.tracer = Tracer(sim.now)
        file, block = self.begin(kind, monitor, master, client)
        size = block.size
        # In flight: the kind's pending bytes and in-flight marks.
        assert monitor.pending_transfers == 1
        assert master.open_ticket_count() == 1
        assert monitor.pending_out[MEMORY] == (size if kind == "downgrade" else 0)
        booked_in = kind in ("upgrade", "cache")
        assert monitor.pending_in[MEMORY] == (size if booked_in else 0)
        assert (file.inode_id in monitor.in_flight_files()) == (kind != "repair")
        if deleted:
            client.delete("/f")
        sim.run(until=sim.now() + 300)

        assert all(n == 0 for n in monitor.pending_in.values())
        assert all(n == 0 for n in monitor.pending_out.values())
        assert monitor.in_flight_files() == set()
        assert monitor.pending_transfers == 0
        assert master.open_ticket_count() == 0
        monitor.assert_idle()
        assert monitor.transfers_aborted == int(deleted)
        assert monitor.transfers_committed == int(not deleted)
        credited = 0 if deleted else size
        moved_down = monitor.bytes_downgraded[MEMORY]
        assert moved_down == (credited if kind == "downgrade" else 0)
        assert monitor.bytes_upgraded[MEMORY] == (credited if booked_in else 0)
        assert monitor.replicas_repaired == int(kind == "repair" and not deleted)
        if deleted:
            assert sum(d.used for n in master.topology.nodes for d in n.devices()) == 0

        # Every migration_start ends in exactly one commit or abort of
        # the same kind and block.
        records = monitor.tracer.records
        starts = [
            (r["kind"], r["block"]) for r in records if r["ev"] == "migration_start"
        ]
        ends = [
            (r["ev"], r["kind"], r["block"])
            for r in records
            if r["ev"] in ("migration_commit", "migration_abort")
        ]
        assert starts == [(kind, block.block_id)]
        end = "migration_abort" if deleted else "migration_commit"
        assert ends == [(end, kind, block.block_id)]
