"""Tests for block placement policies."""


from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import MB
from repro.dfs import (
    HdfsCachePlacementPolicy,
    HdfsPlacementPolicy,
    Master,
    NodeManager,
    OctopusPlacementPolicy,
)
from repro.dfs.placement import SingleTierPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def build(policy_cls, workers=4, **kwargs):
    topo = build_local_cluster(num_workers=workers)
    nm = NodeManager(topo)
    policy = policy_cls(topo, nm, Configuration(), **kwargs)
    return topo, policy


class TestHdfsPlacement:
    def test_all_replicas_on_hdd_distinct_nodes(self):
        _, policy = build(HdfsPlacementPolicy)
        targets = policy.place_block(128 * MB, 3)
        assert len(targets) == 3
        assert all(t.tier is HDD for t in targets)
        assert len({t.node_id for t in targets}) == 3

    def test_writer_gets_first_replica(self):
        topo, policy = build(HdfsPlacementPolicy)
        writer = topo.nodes[2].node_id
        targets = policy.place_block(128 * MB, 3, writer_node=writer)
        assert targets[0].node_id == writer

    def test_rack_diversity(self):
        # Multi-rack topology (the default groups small clusters into a
        # single rack, matching the paper's testbed).
        topo = build_local_cluster(num_workers=8, rack_size=4)
        policy = HdfsPlacementPolicy(topo, NodeManager(topo), Configuration())
        targets = policy.place_block(128 * MB, 3)
        racks = [topo.node(t.node_id).rack for t in targets]
        assert len(set(racks)) >= 2

    def test_degrades_when_fewer_nodes(self):
        _, policy = build(HdfsPlacementPolicy, workers=2)
        targets = policy.place_block(128 * MB, 3)
        assert len(targets) == 2  # only two distinct nodes available


class TestHdfsCachePlacement:
    def test_extra_memory_replica_colocated(self):
        topo, policy = build(HdfsCachePlacementPolicy)
        targets = policy.place_block(128 * MB, 3)
        assert len(targets) == 4
        mem = [t for t in targets if t.tier is MEMORY]
        assert len(mem) == 1
        hdd_nodes = {t.node_id for t in targets if t.tier is HDD}
        assert mem[0].node_id in hdd_nodes

    def test_no_cache_when_memory_full(self):
        topo, policy = build(HdfsCachePlacementPolicy)
        # Fill every node's memory.
        for node in topo.nodes:
            for device in node.devices(MEMORY):
                device.allocate(999 + hash(device.device_id) % 1000, device.capacity)
        targets = policy.place_block(128 * MB, 3)
        assert all(t.tier is HDD for t in targets)


class TestOctopusPlacement:
    def test_tier_diversity_while_space(self):
        _, policy = build(OctopusPlacementPolicy)
        targets = policy.place_block(128 * MB, 3)
        assert {t.tier for t in targets} == {MEMORY, SSD, HDD}
        assert len({t.node_id for t in targets}) == 3

    def test_falls_back_when_memory_full(self):
        topo, policy = build(OctopusPlacementPolicy)
        for node in topo.nodes:
            for device in node.devices(MEMORY):
                device.allocate(12345 + hash(device.device_id) % 1000, device.capacity)
        targets = policy.place_block(128 * MB, 3)
        tiers = sorted(t.tier for t in targets)
        assert MEMORY not in tiers
        assert set(tiers) == {SSD, HDD}

    def test_select_transfer_target_excludes_replica_nodes(self, tmp_path):
        topo = build_local_cluster(num_workers=4)
        nm = NodeManager(topo)
        policy = OctopusPlacementPolicy(topo, nm, Configuration())
        master = Master(topo, policy, Simulator())
        file = master.create_file("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        mem_replica = block.replicas_on_tier(MEMORY)[0]
        target = policy.select_transfer_target(block, mem_replica, [SSD, HDD])
        assert target is not None
        other_nodes = {
            r.node_id
            for r in block.replicas.values()
            if r.replica_id != mem_replica.replica_id
        }
        assert target.node_id not in other_nodes

    def test_select_transfer_target_prefers_source_node(self):
        topo = build_local_cluster(num_workers=4)
        nm = NodeManager(topo)
        policy = OctopusPlacementPolicy(topo, nm, Configuration())
        master = Master(topo, policy, Simulator())
        file = master.create_file("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        mem_replica = block.replicas_on_tier(MEMORY)[0]
        target = policy.select_transfer_target(block, mem_replica, [SSD])
        # The source node has SSD space, no other replica on it: local move.
        assert target is not None
        assert target.node_id == mem_replica.node_id

    def test_select_copy_target_excludes_all_replica_nodes(self):
        topo = build_local_cluster(num_workers=4)
        nm = NodeManager(topo)
        policy = OctopusPlacementPolicy(topo, nm, Configuration())
        master = Master(topo, policy, Simulator())
        file = master.create_file("/f", 128 * MB)
        block = master.blocks.blocks_of(file)[0]
        target = policy.select_copy_target(block, list(DEFAULT_HIERARCHY))
        assert target is not None
        assert target.node_id not in block.nodes()

    def test_returns_none_when_no_space(self):
        topo = build_local_cluster(num_workers=1)
        nm = NodeManager(topo)
        policy = OctopusPlacementPolicy(topo, nm, Configuration())
        master = Master(topo, policy, Simulator())
        file = master.create_file("/f", 128 * MB, replication=1)
        block = master.blocks.blocks_of(file)[0]
        replica = block.replica_list()[0]
        # Only one node: a move target excluding... the node itself is
        # allowed (source vacates), but a copy target is impossible.
        assert policy.select_copy_target(block, list(DEFAULT_HIERARCHY)) is None
        assert replica is not None


class TestSingleTierPlacement:
    def test_pins_to_hdd(self):
        _, policy = build(SingleTierPlacementPolicy)
        targets = policy.place_block(128 * MB, 3)
        assert len(targets) == 3
        assert all(t.tier is HDD for t in targets)

    def test_custom_tier(self):
        _, policy = build(SingleTierPlacementPolicy, tier=SSD)
        targets = policy.place_block(128 * MB, 2)
        assert all(t.tier is SSD for t in targets)
