"""Tests for nodes, topology, and cluster builders."""

import pytest

from repro.cluster import (
    DEFAULT_HIERARCHY,
    ClusterTopology,
    Node,
    TierProvision,
    build_cluster,
    build_ec2_cluster,
    build_local_cluster,
)
from repro.common.units import GB

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def two_tier_node(node_id="n0", rack="r0"):
    return Node(
        node_id,
        rack,
        [
            TierProvision(MEMORY, 4 * GB),
            TierProvision(HDD, 12 * GB, num_devices=3),
        ],
    )


class TestNode:
    def test_devices_per_tier(self):
        node = two_tier_node()
        assert len(node.devices(MEMORY)) == 1
        assert len(node.devices(HDD)) == 3
        assert len(node.devices()) == 4

    def test_tier_capacity_split_across_devices(self):
        node = two_tier_node()
        assert node.tier_capacity(HDD) == 12 * GB
        for device in node.devices(HDD):
            assert device.capacity == 4 * GB

    def test_missing_tier(self):
        node = two_tier_node()
        assert not node.has_tier(SSD)
        assert node.tier_utilization(SSD) == 1.0
        assert node.tiers() == [MEMORY, HDD]

    def test_best_device_prefers_emptiest(self):
        node = two_tier_node()
        first = node.devices(HDD)[0]
        first.allocate(1, 1 * GB)
        best = node.best_device_for(HDD, 1 * GB)
        assert best is not first

    def test_best_device_none_when_full(self):
        node = two_tier_node()
        assert node.best_device_for(MEMORY, 5 * GB) is None

    def test_utilization_aggregates(self):
        node = two_tier_node()
        node.devices(MEMORY)[0].allocate(1, 1 * GB)
        assert node.tier_utilization(MEMORY) == pytest.approx(0.25)
        assert sum(node.tier_used(t) for t in node.tiers()) == 1 * GB


class TestTopology:
    def test_distance_semantics(self):
        topo = ClusterTopology()
        a = two_tier_node("a", "r0")
        b = two_tier_node("b", "r0")
        c = two_tier_node("c", "r1")
        for node in (a, b, c):
            topo.add_node(node)
        assert topo.distance(a, a) == ClusterTopology.SAME_NODE
        assert topo.distance(a, b) == ClusterTopology.SAME_RACK
        assert topo.distance(a, c) == ClusterTopology.OFF_RACK

    def test_duplicate_node_rejected(self):
        topo = ClusterTopology()
        topo.add_node(two_tier_node("a"))
        with pytest.raises(ValueError):
            topo.add_node(two_tier_node("a"))

    def test_capacity_aggregation(self):
        topo = ClusterTopology()
        for i in range(3):
            topo.add_node(two_tier_node(f"n{i}"))
        assert topo.tier_capacity(MEMORY) == 12 * GB
        assert topo.tier_utilization(SSD) == 1.0

    def test_lookup(self):
        topo = ClusterTopology()
        topo.add_node(two_tier_node("n1"))
        assert "n1" in topo
        assert topo.node("n1").node_id == "n1"
        assert len(topo) == 1


class TestBuilders:
    def test_local_cluster_matches_paper(self):
        topo = build_local_cluster()
        assert len(topo) == 11
        node = topo.nodes[0]
        assert node.tier_capacity(MEMORY) == 4 * GB
        assert node.tier_capacity(SSD) == 64 * GB
        assert node.tier_capacity(HDD) == 400 * GB
        assert len(node.devices(HDD)) == 3
        assert node.task_slots == 8

    def test_racks_filled_in_order(self):
        topo = build_cluster(
            8,
            [TierProvision(HDD, 1 * GB)],
            rack_size=3,
        )
        racks = {n.rack for n in topo.nodes}
        assert racks == {"rack0", "rack1", "rack2"}

    def test_ec2_cluster_scales_workers(self):
        topo = build_ec2_cluster(22)
        assert len(topo) == 22

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            build_cluster(0, [TierProvision(HDD, GB)])

    def test_total_slots(self):
        topo = build_local_cluster(num_workers=4, task_slots=6)
        assert topo.total_task_slots() == 24
