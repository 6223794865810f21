"""IoModel behaviour: fair-share re-pricing, shared resources, transfers,
and a closed-form oracle for lone operations under both models."""

from __future__ import annotations

import gc

import pytest

from repro.cluster.builder import build_local_cluster, build_tiered_cluster
from repro.cluster.hardware import DEFAULT_REMOTE_ENDPOINT_BANDWIDTH, get_hierarchy
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.engine.iomodel import IO_MODEL_NAMES, IoModel, WriteLeg
from repro.engine.runner import SystemConfig, run_workload
from repro.sim.simulator import Simulator
from repro.workload.profiles import PROFILES, scaled_profile
from repro.workload.synthesis import synthesize_trace


def fair_model(topology, conf=None):
    sim = Simulator()
    model = IoModel(topology, sim=sim, pricing="fairshare", conf=conf)
    return sim, model


def node_device(topology, node_index, tier_name):
    node = topology.nodes[node_index]
    tier = topology.hierarchy.tier(tier_name)
    return node.devices(tier)[0]


class TestModeGuards:
    def test_legacy_api_raises_under_fairshare(self):
        sim, model = fair_model(build_local_cluster(num_workers=3))
        node = model.topology.nodes[0].node_id
        device = node_device(model.topology, 0, "HDD")
        with pytest.raises(RuntimeError, match="snapshot"):
            model.start_read(1 * MB, device.device_id, False, node, node)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown io model"):
            IoModel(build_local_cluster(num_workers=3), Simulator(), pricing="psq")


#: Every tier of every preset, under both pricing models.
LONE_OP_CASES = [
    (preset, tier.name, pricing)
    for preset in ("default3", "mem-hdd", "nvme4", "remote5")
    for tier in get_hierarchy(preset)
    for pricing in IO_MODEL_NAMES
]


class TestLoneOperationOracle:
    """Closed form: one operation alone on a local device streams at the
    medium's bandwidth, under both models and through the one API.

    Under fair share a remote tier's bytes also cross the shared
    endpoint and the accessing node's NIC, so its rate is the smallest
    of the three; the endpoint is set below every remote medium here,
    so it is the cap that binds.  Snapshot times are compared exactly,
    fair-share times to 1e-12 (the engine integrates bytes over
    re-solves).
    """

    SIZE = 128 * MB
    ENDPOINT = 64 * MB

    def check(self, done, expected, pricing):
        if pricing == "snapshot":
            assert done == [expected]
        else:
            assert done == [pytest.approx(expected, rel=1e-12)]

    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize("preset, tier_name, pricing", LONE_OP_CASES)
    def test_lone_operation(self, preset, tier_name, pricing, op):
        topology = build_tiered_cluster(num_workers=3, tiers=preset)
        sim = Simulator()
        conf = Configuration({"io.remote_endpoint_bandwidth": self.ENDPOINT})
        model = IoModel(topology, sim, pricing=pricing, conf=conf)
        device = node_device(topology, 0, tier_name)
        node = topology.nodes[0].node_id
        done = []
        if op == "write":
            legs = [WriteLeg(device=device, remote=False, node_id=node)]
            model.write(self.SIZE, legs, node, lambda: done.append(sim.now()))
            bandwidth = device.profile.write_bw
        else:
            model.read(
                self.SIZE,
                device.device_id,
                False,
                node,
                node,
                lambda: done.append(sim.now()),
            )
            bandwidth = device.profile.read_bw
        sim.run()
        model.assert_drained()
        if pricing == "fairshare" and device.tier.remote:
            bandwidth = min(bandwidth, self.ENDPOINT, model.network_bandwidth)
        expected = device.profile.seek_latency + self.SIZE / bandwidth
        self.check(done, expected, pricing)

    @pytest.mark.parametrize("pricing", IO_MODEL_NAMES)
    def test_delay_addends_follow_the_last_byte(self, pricing):
        topology = build_local_cluster(num_workers=3)
        sim = Simulator()
        model = IoModel(topology, sim, pricing=pricing)
        device = node_device(topology, 0, "HDD")
        node = topology.nodes[0].node_id
        done = []
        model.read(
            self.SIZE,
            device.device_id,
            False,
            node,
            node,
            lambda: done.append(sim.now()),
            1.5,
            0.25,
        )
        sim.run()
        model.assert_drained()
        io = device.profile.seek_latency + self.SIZE / device.profile.read_bw
        self.check(done, io + 1.5 + 0.25, pricing)


class TestRePricing:
    def test_lone_read_matches_snapshot_price(self):
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        device = node_device(topology, 0, "HDD")
        node = topology.nodes[0].node_id
        done = []
        model.read(128 * MB, device.device_id, False, node, node,
                   lambda: done.append(sim.now()))
        sim.run()
        profile = device.profile
        expected = profile.seek_latency + 128 * MB / profile.read_bw
        assert done == [pytest.approx(expected)]

    def test_lone_write_streams_at_write_bandwidth(self):
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        device = node_device(topology, 0, "HDD")
        node = topology.nodes[0].node_id
        done = []
        legs = [WriteLeg(device=device, remote=False, node_id=node)]
        model.write(128 * MB, legs, node, lambda: done.append(sim.now()))
        sim.run()
        profile = device.profile
        expected = profile.seek_latency + 128 * MB / profile.write_bw
        assert done == [pytest.approx(expected)]

    def test_late_joiner_delays_early_flow(self):
        """The defining fix over snapshot pricing: a flow that started
        alone is re-priced when a second flow joins its device."""
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        device = node_device(topology, 0, "HDD")
        node = topology.nodes[0].node_id
        alone_done = []
        # Price the same read alone for reference.
        model.read(128 * MB, device.device_id, False, node, node,
                   lambda: alone_done.append(sim.now()))
        sim.run()
        alone = alone_done[0]

        sim2, model2 = fair_model(topology)
        done = {}
        model2.read(128 * MB, device.device_id, False, node, node,
                    lambda: done.setdefault("first", sim2.now()))
        # Join halfway through the first flow's solo completion time.
        sim2.at(alone / 2, lambda: model2.read(
            128 * MB, device.device_id, False, node, node,
            lambda: done.setdefault("second", sim2.now())
        ))
        sim2.run()
        assert done["first"] > alone * 1.4  # re-priced, not snapshot
        assert model2.engine.active_flows == 0

    def test_finished_flows_leave_no_cyclic_garbage(self):
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        device = node_device(topology, 0, "HDD")
        node = topology.nodes[0].node_id
        done = []
        gc.collect()
        gc.disable()
        try:
            # Contending reads take the general re-solve, the empty read
            # the no-flow path; every finished flow must be freed by
            # refcount alone.
            for size in (64 * MB, 128 * MB, 0):
                model.read(size, device.device_id, False, node, node,
                           lambda: done.append(sim.now()))
            sim.run()
            assert len(done) == 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_remote_read_capped_by_network(self):
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        device = node_device(topology, 0, "MEMORY")
        reader = topology.nodes[1].node_id
        source = topology.nodes[0].node_id
        done = []
        model.read(1 * GB, device.device_id, True, reader, source,
                   lambda: done.append(sim.now()))
        sim.run()
        # Memory reads 3000 MB/s but the NIC caps the flow at 1250 MB/s.
        expected = device.profile.seek_latency + 1 * GB / model.network_bandwidth
        assert done == [pytest.approx(expected)]


class TestSharedRemoteEndpoint:
    def aggregate_remote_throughput(self, workers: int, conf=None) -> float:
        topology = build_tiered_cluster(num_workers=workers, tiers="remote5")
        sim, model = fair_model(topology, conf)
        size = 1 * GB
        done = []
        for i, node in enumerate(topology.nodes):
            tier = topology.hierarchy.tier("REMOTE")
            device = node.devices(tier)[0]
            model.read(size, device.device_id, False, node.node_id, node.node_id,
                       lambda: done.append(sim.now()))
        sim.run()
        assert len(done) == workers
        return workers * size / max(done)

    def test_aggregate_throughput_does_not_scale_with_workers(self):
        """The ROADMAP item this PR closes: the remote tier is a shared
        endpoint, so doubling the workers must not double cold-tier
        bandwidth."""
        t12 = self.aggregate_remote_throughput(12)
        t24 = self.aggregate_remote_throughput(24)
        assert t12 == pytest.approx(DEFAULT_REMOTE_ENDPOINT_BANDWIDTH, rel=0.01)
        assert t24 == pytest.approx(DEFAULT_REMOTE_ENDPOINT_BANDWIDTH, rel=0.01)
        assert t24 / t12 == pytest.approx(1.0, rel=0.02)

    def test_endpoint_bandwidth_configurable(self):
        conf = Configuration({"io.remote_endpoint_bandwidth": 220 * MB})
        t4 = self.aggregate_remote_throughput(4, conf)
        assert t4 == pytest.approx(220 * MB, rel=0.01)

    def test_local_tiers_unaffected_by_endpoint(self):
        topology = build_tiered_cluster(num_workers=12, tiers="remote5")
        sim, model = fair_model(topology)
        done = []
        for node in topology.nodes:
            tier = topology.hierarchy.tier("HDD")
            device = node.devices(tier)[0]
            model.read(1 * GB, device.device_id, False, node.node_id,
                       node.node_id, lambda: done.append(sim.now()))
        sim.run()
        hdd = topology.hierarchy.tier("HDD").media
        expected = hdd.seek_latency + 1 * GB / hdd.read_bw
        # Independent per-node devices: all finish at the solo time.
        assert max(done) == pytest.approx(expected)


class TestRackUplinks:
    def test_cross_rack_flows_share_the_uplink(self):
        topology = build_local_cluster(num_workers=8, rack_size=4)
        uplink = 200 * MB
        topology.set_rack_uplinks(uplink)
        sim, model = fair_model(topology)
        done = []
        # Four concurrent cross-rack memory reads: each would get the
        # full 1250 MB/s NIC, but the two rack uplinks cap the sum.
        for i in range(4):
            source = topology.nodes[i].node_id
            reader = topology.nodes[4 + i].node_id
            device = node_device(topology, i, "MEMORY")
            model.read(1 * GB, device.device_id, True, reader, source,
                       lambda: done.append(sim.now()))
        sim.run()
        aggregate = 4 * GB / max(done)
        assert aggregate == pytest.approx(uplink, rel=0.01)

    def test_same_rack_flows_skip_the_uplink(self):
        topology = build_local_cluster(num_workers=8, rack_size=4)
        topology.set_rack_uplinks(200 * MB)
        sim, model = fair_model(topology)
        done = []
        source = topology.nodes[0].node_id
        reader = topology.nodes[1].node_id  # same rack
        device = node_device(topology, 0, "MEMORY")
        model.read(1 * GB, device.device_id, True, reader, source,
                   lambda: done.append(sim.now()))
        sim.run()
        expected = device.profile.seek_latency + 1 * GB / model.network_bandwidth
        assert done == [pytest.approx(expected)]


class TestMonitorTransfersContend:
    def run_fb(self, io_model: str):
        trace = synthesize_trace(scaled_profile(PROFILES["FB"], 0.3), seed=42)
        config = SystemConfig(
            label=f"FB/{io_model}",
            placement="octopus",
            downgrade="lru",
            upgrade="osa",
            io_model=io_model,
            memory_per_node=1 * GB,  # tight memory forces tier transfers
            seed=42,
        )
        return run_workload(trace, config)

    def test_fairshare_transfers_priced_through_engine(self):
        result = self.run_fb("fairshare")
        assert result.transfers_committed > 0
        assert result.transfer_ideal_seconds > 0
        # Contention can only make transfers slower than standalone.
        assert (
            result.transfer_realized_seconds
            >= result.transfer_ideal_seconds * (1 - 1e-9)
        )
        assert result.io_stats["model"] == "fairshare"
        assert result.io_stats["flows_completed"] == result.io_stats["flows_started"]

    def test_io_network_bandwidth_conf_shapes_nic_resources(self):
        topology = build_local_cluster(num_workers=3)
        conf = Configuration({"io.network_bandwidth": 125 * MB})
        sim, model = fair_model(topology, conf)
        device = node_device(topology, 0, "MEMORY")
        done = []
        model.read(1 * GB, device.device_id, True,
                   topology.nodes[1].node_id, topology.nodes[0].node_id,
                   lambda: done.append(sim.now()))
        sim.run()
        expected = device.profile.seek_latency + 1 * GB / (125 * MB)
        assert done == [pytest.approx(expected)]

    def test_snapshot_transfers_keep_standalone_timing(self):
        result = self.run_fb("snapshot")
        assert result.transfers_committed > 0
        assert result.transfer_realized_seconds == pytest.approx(
            result.transfer_ideal_seconds
        )

    def test_transfer_flow_contends_with_foreground_read(self):
        topology = build_local_cluster(num_workers=3)
        sim, model = fair_model(topology)
        hdd = node_device(topology, 0, "HDD")
        ssd = node_device(topology, 0, "SSD")
        node = topology.nodes[0].node_id
        done = {}
        # Foreground read on the HDD...
        model.read(128 * MB, hdd.device_id, False, node, node,
                   lambda: done.setdefault("read", sim.now()))
        # ...and a concurrent HDD->SSD transfer of the same size.
        model.transfer(128 * MB, hdd.device_id, node, ssd.device_id, node,
                       lambda: done.setdefault("transfer", sim.now()))
        sim.run()
        solo = hdd.profile.seek_latency + 128 * MB / hdd.profile.read_bw
        assert done["read"] > solo * 1.5  # the migration slowed the read
