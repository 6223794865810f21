"""Tests for the contention-aware I/O model."""

import pytest

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.units import MB
from repro.engine.iomodel import IoModel, WriteLeg
from repro.sim.simulator import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


@pytest.fixture
def iomodel():
    return IoModel(build_local_cluster(num_workers=3), Simulator())


def mem_device(iomodel, node_index=0):
    node = iomodel.topology.nodes[node_index]
    return node.devices(MEMORY)[0]


def hdd_device(iomodel, node_index=0):
    node = iomodel.topology.nodes[node_index]
    return node.devices(HDD)[0]


class TestReads:
    def test_memory_faster_than_hdd(self, iomodel):
        node = iomodel.topology.nodes[0].node_id
        mem_t, rel1 = iomodel.start_read(
            128 * MB, mem_device(iomodel).device_id, False, node, node
        )
        hdd_t, rel2 = iomodel.start_read(
            128 * MB, hdd_device(iomodel).device_id, False, node, node
        )
        assert mem_t < hdd_t
        rel1(), rel2()

    def test_contention_halves_bandwidth(self, iomodel):
        node = iomodel.topology.nodes[0].node_id
        device = hdd_device(iomodel).device_id
        t1, rel1 = iomodel.start_read(128 * MB, device, False, node, node)
        t2, rel2 = iomodel.start_read(128 * MB, device, False, node, node)
        assert t2 > 1.8 * t1  # second stream sees half the bandwidth
        rel1()
        t3, rel3 = iomodel.start_read(128 * MB, device, False, node, node)
        assert t3 == pytest.approx(t2, rel=0.01)
        rel2(), rel3()

    def test_remote_memory_read_capped_by_network(self, iomodel):
        nodes = [n.node_id for n in iomodel.topology.nodes]
        local_t, rel1 = iomodel.start_read(
            128 * MB, mem_device(iomodel).device_id, False, nodes[0], nodes[0]
        )
        remote_t, rel2 = iomodel.start_read(
            128 * MB, mem_device(iomodel).device_id, True, nodes[1], nodes[0]
        )
        # 10GbE (1250MB/s) still caps a 3GB/s memory stream.
        assert remote_t > 2 * local_t
        rel1(), rel2()

    def test_release_restores_counters(self, iomodel):
        node = iomodel.topology.nodes[0].node_id
        device = hdd_device(iomodel).device_id
        _, release = iomodel.start_read(MB, device, False, node, node)
        assert iomodel.active_streams(device) == 1
        release()
        assert iomodel.active_streams(device) == 0

    def test_double_release_rejected(self, iomodel):
        node = iomodel.topology.nodes[0].node_id
        _, release = iomodel.start_read(
            MB, hdd_device(iomodel).device_id, False, node, node
        )
        release()
        with pytest.raises(RuntimeError, match="stream released twice"):
            release()

    def test_snapshot_read_holds_streams_until_its_event(self, iomodel):
        sim = iomodel.sim
        reader, source = (n.node_id for n in iomodel.topology.nodes[:2])
        device = hdd_device(iomodel, node_index=1).device_id
        # The price a read gets at these (empty) stream counts.
        priced = IoModel(build_local_cluster(num_workers=3), Simulator())
        duration, release = priced.start_read(MB, device, True, reader, source)
        release()

        def streams():
            return (
                iomodel.active_streams(device),
                iomodel.active_net_streams(reader),
                iomodel.active_net_streams(source),
            )

        seen = []
        iomodel.read(
            MB, device, True, reader, source, lambda: seen.append(streams()), 0.5, 0.25
        )
        assert streams() == (1, 1, 1)
        sim.after(0.5, lambda: seen.append(streams()))
        assert sim.run() == 2
        # Held through the delay, released exactly once before the
        # callback, which runs at the priced duration plus the delay.
        assert seen == [(1, 1, 1), (0, 0, 0)]
        assert sim.now() == duration + 0.5 + 0.25
        assert streams() == (0, 0, 0)
        iomodel.assert_drained()


class TestWrites:
    def legs(self, iomodel, tiers, writer_index=0):
        writer = iomodel.topology.nodes[writer_index].node_id
        legs = []
        for i, tier in enumerate(tiers):
            node = iomodel.topology.nodes[i]
            legs.append(
                WriteLeg(
                    device=node.devices(tier)[0],
                    remote=node.node_id != writer,
                    node_id=node.node_id,
                )
            )
        return writer, legs

    def test_pipeline_bottlenecked_by_slowest_leg(self, iomodel):
        writer, fast_legs = self.legs(iomodel, [MEMORY, SSD])
        t_fast, rel1 = iomodel.start_write(128 * MB, fast_legs, writer)
        rel1()
        writer, slow_legs = self.legs(iomodel, [MEMORY, SSD, HDD])
        t_slow, rel2 = iomodel.start_write(128 * MB, slow_legs, writer)
        rel2()
        assert t_slow > t_fast

    def test_empty_legs_rejected(self, iomodel):
        with pytest.raises(ValueError):
            iomodel.start_write(MB, [], None)

    def test_network_counted_once_per_node(self, iomodel):
        writer, legs = self.legs(iomodel, [HDD, HDD])
        _, release = iomodel.start_write(MB, legs, writer)
        # Writer + one remote leg hold network streams.
        assert iomodel.active_net_streams(writer) == 1
        release()
        assert iomodel.active_net_streams(writer) == 0

    def test_concurrent_writers_slow_each_other(self, iomodel):
        writer, legs = self.legs(iomodel, [HDD])
        t1, rel1 = iomodel.start_write(128 * MB, legs, writer)
        t2, rel2 = iomodel.start_write(128 * MB, legs, writer)
        assert t2 > 1.8 * t1
        rel1(), rel2()
