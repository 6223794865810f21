"""Tests for the Master: creation, reads, deletion, transfers, listeners."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.errors import InsufficientSpaceError, InvalidPathError
from repro.common.units import GB, MB
from repro.dfs import (
    FileSystemListener,
    Master,
    NodeManager,
    OctopusPlacementPolicy,
)

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class RecordingListener(FileSystemListener):
    def __init__(self):
        self.events = []

    def on_file_created(self, file):
        self.events.append(("created", file.path))

    def on_file_accessed(self, file):
        self.events.append(("accessed", file.path))

    def on_file_deleted(self, file):
        self.events.append(("deleted", file.path))

    def on_data_added(self, tier):
        self.events.append(("data", tier))


class TestCreateFile:
    def test_blocks_and_replicas_created(self, master):
        file = master.create_file("/data/a", 300 * MB)
        blocks = master.blocks.blocks_of(file)
        assert [b.size for b in blocks] == [128 * MB, 128 * MB, 44 * MB]
        for block in blocks:
            assert block.replica_count == 3
            assert len(set(block.nodes())) == 3

    def test_octopus_places_one_replica_per_tier(self, master):
        file = master.create_file("/data/a", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        assert set(block.tiers()) == {MEMORY, SSD, HDD}

    def test_custom_replication(self, master):
        file = master.create_file("/data/a", 64 * MB, replication=2)
        assert master.blocks.blocks_of(file)[0].replica_count == 2

    def test_zero_byte_file(self, master):
        file = master.create_file("/data/zero", 0)
        assert master.blocks.blocks_of(file) == []

    def test_listener_order_created_then_data(self, master):
        listener = RecordingListener()
        master.add_listener(listener)
        master.create_file("/x", 64 * MB)
        kinds = [e[0] for e in listener.events]
        assert kinds[0] == "created"
        assert set(kinds[1:]) == {"data"}

    def test_rollback_on_insufficient_space(self, sim):
        # Cluster with a single tiny node: file larger than everything.
        topo = build_local_cluster(num_workers=1, memory_per_node=64 * MB,
                                   ssd_per_node=64 * MB, hdd_per_node=128 * MB)
        nm = NodeManager(topo)
        master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
        with pytest.raises(InsufficientSpaceError):
            master.create_file("/big", 10 * GB)
        assert not master.exists("/big")
        assert all(d.used == 0 for n in topo.nodes for d in n.devices())


class TestReadFile:
    def test_read_plan_covers_all_blocks(self, master):
        master.create_file("/f", 300 * MB)
        plan = master.plan_read("/f")
        assert len(plan.reads) == 3
        assert plan.total_bytes == 300 * MB

    def test_reads_prefer_memory_without_reader_context(self, master):
        master.create_file("/f", 128 * MB)
        plan = master.plan_read("/f")
        assert plan.reads[0].replica.tier is MEMORY
        assert plan.bytes_by_tier()[MEMORY] == plan.total_bytes

    def test_memory_location_flag(self, master):
        master.create_file("/f", 128 * MB)
        plan = master.plan_read("/f")
        assert plan.memory_location  # octopus put one replica in memory

    def test_read_file_is_the_file_level_access(self, master):
        file = master.create_file("/f", 300 * MB)
        access = master.read_file("/f")
        assert access.file is file
        assert access.memory_location
        # No replica is chosen, so no node is credited with a read.
        nm = master.node_manager
        assert all(
            sum(nm.stats(n.node_id).bytes_read.values()) == 0
            for n in master.topology.nodes
        )

    def test_plan_read_records_the_planned_replicas(self, master):
        master.create_file("/f", 300 * MB)
        plan = master.plan_read("/f")
        expected = {}
        for read in plan.reads:
            key = (read.replica.node_id, read.replica.tier)
            expected[key] = expected.get(key, 0) + read.block.size
        nm = master.node_manager
        recorded = {
            (n.node_id, tier): nm.stats(n.node_id).bytes_read[tier]
            for n in master.topology.nodes
            for tier in master.hierarchy
            if nm.stats(n.node_id).bytes_read[tier]
        }
        assert recorded == expected

    def test_local_replica_preferred_over_faster_remote(self, master):
        file = master.create_file("/f", 64 * MB)
        block = master.blocks.blocks_of(file)[0]
        hdd_replica = block.replicas_on_tier(HDD)[0]
        read = master.choose_replica(block, hdd_replica.node_id)
        assert read.local
        assert read.replica.node_id == hdd_replica.node_id

    def test_access_listener_fires_before_read(self, master):
        listener = RecordingListener()
        master.create_file("/f", 64 * MB)
        master.add_listener(listener)
        master.read_file("/f")
        assert ("accessed", "/f") in listener.events

    def test_missing_file_raises(self, master):
        with pytest.raises(InvalidPathError):
            master.read_file("/missing")
        with pytest.raises(InvalidPathError):
            master.plan_read("/missing")

    def test_bytes_by_tier_accounting(self, master):
        master.create_file("/f", 128 * MB)
        plan = master.plan_read("/f")
        by_tier = plan.bytes_by_tier()
        assert by_tier[MEMORY] == 128 * MB


class TestDeleteFile:
    def test_delete_releases_space(self, master):
        master.create_file("/f", 256 * MB)
        used_before = sum(d.used for n in master.topology.nodes for d in n.devices())
        assert used_before > 0
        master.delete_file("/f")
        assert sum(d.used for n in master.topology.nodes for d in n.devices()) == 0
        assert not master.exists("/f")

    def test_delete_notifies(self, master):
        listener = RecordingListener()
        master.create_file("/f", 64 * MB)
        master.add_listener(listener)
        master.delete_file("/f")
        assert ("deleted", "/f") in listener.events

    def test_get_file_by_id(self, master):
        file = master.create_file("/f", 64 * MB)
        assert master.get_file_by_id(file.inode_id) is file
        master.delete_file("/f")
        with pytest.raises(KeyError):
            master.get_file_by_id(file.inode_id)


class TestTransfers:
    def _mem_replica(self, master):
        file = master.create_file("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        return block, block.replicas_on_tier(MEMORY)[0]

    def test_move_commit(self, master):
        block, replica = self._mem_replica(master)
        target = master.placement.select_transfer_target(block, replica, [SSD])
        ticket = master.begin_transfer(block, replica, target)
        new_replica = master.commit_transfer(ticket)
        assert new_replica.tier is SSD
        assert replica.replica_id not in block.replicas
        assert block.replica_count == 3  # moved, not duplicated
        assert master.open_ticket_count() == 0

    def test_reservation_holds_space(self, master):
        block, replica = self._mem_replica(master)
        target = master.placement.select_transfer_target(block, replica, [SSD])
        node = master.topology.node(target.node_id)
        device = next(
            d for d in node.devices(target.tier) if d.device_id == target.device_id
        )
        used_before = device.used
        ticket = master.begin_transfer(block, replica, target)
        assert device.used == used_before + block.size
        master.abort_transfer(ticket)
        assert device.used == used_before

    def test_copy_keeps_source(self, master):
        block, replica = self._mem_replica(master)
        target = master.placement.select_copy_target(block, [HDD])
        ticket = master.begin_transfer(block, None, target)
        master.commit_transfer(ticket)
        assert block.replica_count == 4
        assert replica.replica_id in block.replicas

    def test_double_commit_rejected(self, master):
        block, replica = self._mem_replica(master)
        target = master.placement.select_transfer_target(block, replica, [SSD])
        ticket = master.begin_transfer(block, replica, target)
        master.commit_transfer(ticket)
        with pytest.raises(InvalidPathError):
            master.commit_transfer(ticket)

    def test_transfer_counts_node_load(self, master):
        block, replica = self._mem_replica(master)
        target = master.placement.select_transfer_target(block, replica, [SSD])
        ticket = master.begin_transfer(block, replica, target)
        assert master.node_manager.stats(target.node_id).active_transfers >= 1
        master.commit_transfer(ticket)
        assert master.node_manager.stats(target.node_id).active_transfers == 0


class TestDecommission:
    def test_replicas_dropped(self, master):
        master.create_file("/f", 128 * MB)
        victim = None
        for node in master.topology.nodes:
            if sum(node.tier_used(t) for t in node.tiers()) > 0:
                victim = node
                break
        lost = master.decommission_node(victim.node_id)
        assert lost >= 1
        assert sum(victim.tier_used(t) for t in victim.tiers()) == 0
