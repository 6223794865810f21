"""Tests for block/replica bookkeeping and file-level tier queries."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.errors import ReplicaNotFoundError
from repro.common.units import MB
from repro.dfs.block import split_into_block_sizes
from repro.dfs.block_manager import BlockManager
from repro.dfs.namespace import FSDirectory

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def setup():
    topo = build_local_cluster(num_workers=3)
    manager = BlockManager(topo)
    fs = FSDirectory()
    file = fs.create_file("/f", creation_time=0.0, size=256 * MB, replication=2)
    return topo, manager, file


def first_device(topo, node_index, tier):
    node = topo.nodes[node_index]
    return node.devices(tier)[0]


class TestSplitIntoBlocks:
    def test_exact_multiple(self):
        assert split_into_block_sizes(256 * MB, 128 * MB) == [128 * MB, 128 * MB]

    def test_partial_tail(self):
        assert split_into_block_sizes(200 * MB, 128 * MB) == [128 * MB, 72 * MB]

    def test_small_file_single_block(self):
        assert split_into_block_sizes(5 * MB, 128 * MB) == [5 * MB]

    def test_empty_file(self):
        assert split_into_block_sizes(0, 128 * MB) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_into_block_sizes(-1, 128)
        with pytest.raises(ValueError):
            split_into_block_sizes(10, 0)


class TestReplicaLifecycle:
    def test_add_replica_charges_device(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, 128 * MB)
        device = first_device(topo, 0, MEMORY)
        replica = manager.add_replica(
            block, topo.nodes[0].node_id, MEMORY, device.device_id
        )
        assert device.used == 128 * MB
        assert block.replica_count == 1
        assert manager.replica(replica.replica_id) is replica

    def test_remove_replica_releases_device(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, 128 * MB)
        device = first_device(topo, 0, MEMORY)
        replica = manager.add_replica(
            block, topo.nodes[0].node_id, MEMORY, device.device_id
        )
        manager.remove_replica(replica)
        assert device.used == 0
        assert block.replica_count == 0
        with pytest.raises(ReplicaNotFoundError):
            manager.replica(replica.replica_id)

    def test_double_remove_rejected(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, MB)
        device = first_device(topo, 0, SSD)
        replica = manager.add_replica(
            block, topo.nodes[0].node_id, SSD, device.device_id
        )
        manager.remove_replica(replica)
        with pytest.raises(ReplicaNotFoundError):
            manager.remove_replica(replica)

    def test_remove_file_blocks_cleans_everything(self, setup):
        topo, manager, file = setup
        for i in range(2):
            block = manager.allocate_block(file, i, 128 * MB)
            device = first_device(topo, i, HDD)
            manager.add_replica(block, topo.nodes[i].node_id, HDD, device.device_id)
        removed = manager.remove_file_blocks(file)
        assert len(removed) == 2
        assert manager.block_count() == 0
        assert manager.replica_count() == 0
        assert file.block_ids == []
        assert all(d.used == 0 for n in topo.nodes for d in n.devices())

    def test_replicas_on_index(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, MB)
        node = topo.nodes[1]
        device = node.devices(MEMORY)[0]
        manager.add_replica(block, node.node_id, MEMORY, device.device_id)
        assert len(manager.replicas_on(node.node_id, MEMORY)) == 1
        assert manager.replicas_on(node.node_id, HDD) == []

    def test_add_replica_rejects_device_of_other_node_or_tier(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, MB)
        node = topo.nodes[0]
        other = first_device(topo, 1, MEMORY)
        ssd = first_device(topo, 0, SSD)
        for tier, device_id in (
            (MEMORY, other.device_id),  # another node's device
            (MEMORY, ssd.device_id),  # this node, another tier
            (MEMORY, "no-such-device"),
        ):
            with pytest.raises(ReplicaNotFoundError) as err:
                manager.add_replica(block, node.node_id, tier, device_id)
            message = str(err.value)
            assert node.node_id in message
            assert tier.name in message
            assert device_id in message
        assert block.replica_count == 0
        assert manager.replica_count() == 0
        assert other.used == 0 and ssd.used == 0

    def test_release_rejects_device_of_other_node_or_tier(self, setup):
        topo, manager, file = setup
        block = manager.allocate_block(file, 0, MB)
        node = topo.nodes[0]
        device = first_device(topo, 0, HDD)
        replica = manager.add_replica(block, node.node_id, HDD, device.device_id)
        bogus = first_device(topo, 2, HDD).device_id
        replica.device_id = bogus
        with pytest.raises(ReplicaNotFoundError) as err:
            manager.remove_replica(replica)
        message = str(err.value)
        assert node.node_id in message
        assert HDD.name in message
        assert bogus in message
        assert device.used == MB  # nothing was released


class TestFileTierQueries:
    def place(self, manager, topo, file, layout):
        """layout: list per block of list of (node_idx, tier)."""
        for i, block_layout in enumerate(layout):
            block = manager.allocate_block(file, i, 64 * MB)
            for node_idx, tier in block_layout:
                node = topo.nodes[node_idx]
                device = node.devices(tier)[0]
                manager.add_replica(block, node.node_id, tier, device.device_id)

    def test_file_tiers_is_intersection(self, setup):
        topo, manager, file = setup
        self.place(
            manager,
            topo,
            file,
            [
                [(0, MEMORY), (1, HDD)],
                [(0, SSD), (1, HDD)],
            ],
        )
        # Only HDD holds *every* block.
        assert manager.file_tiers(file) == {HDD}
        assert manager.file_best_tier(file) is HDD
        assert not manager.file_has_tier(file, MEMORY)

    def test_file_has_tier_or_better(self, setup):
        topo, manager, file = setup
        self.place(
            manager,
            topo,
            file,
            [[(0, MEMORY)], [(1, MEMORY)]],
        )
        assert manager.file_has_tier_or_better(file, SSD)
        assert manager.file_has_tier_or_better(file, MEMORY)

    def test_empty_file_has_no_tiers(self, setup):
        _, manager, file = setup
        assert manager.file_tiers(file) == set()
        assert manager.file_best_tier(file) is None

    def test_bytes_on_tier(self, setup):
        topo, manager, file = setup
        self.place(
            manager,
            topo,
            file,
            [[(0, MEMORY), (1, MEMORY)]],
        )
        assert manager.file_bytes_on_tier(file, MEMORY) == 128 * MB
        assert manager.file_bytes_on_tier(file, SSD) == 0

