"""Contention-aware I/O timing: snapshot pricing or fair-share flows.

Every caller does its I/O through one API, :meth:`IoModel.read`,
:meth:`IoModel.write` and :meth:`IoModel.transfer`: each takes an
``on_complete`` callback plus an optional trailing delay, given as its
addends (a map task's CPU time and task overhead, say), and calls back
once the I/O and the delay are over.  Callers never learn which of the
two pricing models runs; it is selected per run with
``SystemConfig.io_model`` / ``--io-model``:

``snapshot`` (default, the pre-flow behaviour, bit-identical)
    Durations are computed when an operation starts, using the stream
    counts at that instant (a snapshot approximation of processor
    sharing): a device serving ``n`` concurrent streams gives each
    ``bw / n``; cross-node traffic is additionally capped by the
    per-node network bandwidth shared the same way.  This is what makes
    the DFSIO experiment (Fig 2) come out paper-shaped: writing 3 HDD
    replicas per block triples the HDD stream load and collapses
    per-node throughput relative to tiered placement.  An operation is
    one record of its open streams and callback, scheduled as one
    simulator event at its priced duration plus its delay; the event
    releases the streams, then calls back.  Tier transfers hold
    no stream and take their standalone :func:`transfer_seconds`.

``fairshare``
    Every operation becomes a flow with bytes remaining traversing a
    resource graph (devices, per-node NICs, shared resources); rates are
    re-solved max-min fair whenever any flow starts or finishes, and
    completion events are rescheduled (:mod:`repro.engine.flows`).  The
    callback fires when the last byte lands, or one event after the
    delay when there is one (the delay holds no resource).  Two
    *shared* resources exist only here: a cluster-wide endpoint cap in
    front of every remote tier (so ``remote5`` cold-tier throughput no
    longer scales with worker count) and optional per-rack uplinks
    (``Rack.uplink_bandwidth`` / ``io.rack_uplink_bandwidth``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.hardware import (
    DEFAULT_NETWORK_BANDWIDTH,
    DEFAULT_REMOTE_ENDPOINT_BANDWIDTH,
    StorageDevice,
    TierSpec,
    transfer_seconds,
)
from repro.cluster.topology import ClusterTopology
from repro.common.config import Configuration
from repro.engine.flows import FairShareEngine, Flow, Resource
from repro.sim.simulator import Simulator

IO_MODEL_NAMES = ("snapshot", "fairshare")


@dataclass(frozen=True)
class WriteLeg:
    """One replica destination of a pipelined block write."""

    device: StorageDevice
    remote: bool
    node_id: str


def _bottleneck_leg(legs: List[WriteLeg]) -> WriteLeg:
    """The write leg queue delay is attributed to: the slowest medium
    in the replica pipeline (shared by both pricing models so the
    attribution cannot drift between them)."""
    return min(legs, key=lambda leg: leg.device.profile.write_bw)


_SNAPSHOT_ONLY = (
    "start_read/start_write price a whole operation up front and only exist "
    "under the snapshot model; use read()/write()/transfer() with an "
    "on_complete callback"
)


class _SnapshotOp:
    """One snapshot read or write in flight: the device and NIC streams
    it holds open and the callback to run when it ends.

    :meth:`finish` is the operation's one simulator event: it releases
    the streams, then calls back.
    """

    __slots__ = ("io", "device_ids", "net_nodes", "on_complete", "released")

    def __init__(
        self, io: "IoModel", device_ids: Sequence[str], net_nodes: Sequence[str]
    ) -> None:
        self.io = io
        self.device_ids = device_ids
        self.net_nodes = net_nodes
        self.on_complete: Optional[Callable[[], None]] = None
        self.released = False

    def release(self) -> None:
        """Close the operation's streams (once; a second call raises)."""
        if self.released:
            raise RuntimeError("stream released twice")
        self.released = True
        device_streams = self.io._device_streams
        for device_id in self.device_ids:
            device_streams[device_id] -= 1
        net_streams = self.io._net_streams
        for node_id in self.net_nodes:
            net_streams[node_id] -= 1

    def finish(self) -> None:
        """Release the streams, then call back."""
        self.release()
        self.on_complete()


class IoModel:
    """Tracks active streams/flows and prices read/write/transfer ops.

    Under snapshot pricing, :meth:`read` and :meth:`write` take their
    duration and open streams from :meth:`start_read` and
    :meth:`start_write` and schedule the operation's record
    (:class:`_SnapshotOp`) as one completion event; under fair share
    they submit a flow (:meth:`_submit_tracked`).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        sim: Simulator,
        pricing: str = "snapshot",
        conf: Optional[Configuration] = None,
    ) -> None:
        if pricing not in IO_MODEL_NAMES:
            raise ValueError(
                f"unknown io model {pricing!r}; choose from {IO_MODEL_NAMES}"
            )
        self.topology = topology
        conf = conf if conf is not None else Configuration()
        #: Per-node NIC bandwidth, the one network knob: it caps every
        #: cross-node read, write and tier transfer under both models.
        self.network_bandwidth = conf.get_float(
            "io.network_bandwidth", DEFAULT_NETWORK_BANDWIDTH
        )
        self.pricing = pricing
        self.sim = sim
        self._device_streams: Dict[str, int] = {}
        self._net_streams: Dict[str, int] = {}
        self._devices: Dict[str, StorageDevice] = {}
        for node in topology.nodes:
            self._net_streams[node.node_id] = 0
            for device in node.devices():
                self._devices[device.device_id] = device
                self._device_streams[device.device_id] = 0
        # Snapshot-mode contention accounting (pure bookkeeping).
        self._ops_priced = 0
        self._priced_seconds = 0.0
        self._ideal_seconds = 0.0
        #: Queue-delay accounting, both models: simulation seconds each
        #: operation spent beyond its uncontended ideal, attributed to
        #: the tier of the bottleneck device (reads/transfers: the
        #: device served; writes: the slowest replica leg).  Pure
        #: bookkeeping — never feeds back into pricing.
        self.queue_delay_by_tier: Dict[str, float] = {
            tier.name: 0.0 for tier in topology.hierarchy
        }
        # -- fair-share resource graph --------------------------------------
        self.engine: Optional[FairShareEngine] = None
        self._dev_resource: Dict[str, Resource] = {}
        self._dev_write_weight: Dict[str, float] = {}
        self._nic_resource: Dict[str, Resource] = {}
        self._endpoint_resource: Dict[TierSpec, Resource] = {}
        self._uplink_resource: Dict[str, Resource] = {}
        if pricing == "fairshare":
            self.engine = FairShareEngine(sim)
            endpoint_bw = conf.get_float(
                "io.remote_endpoint_bandwidth", DEFAULT_REMOTE_ENDPOINT_BANDWIDTH
            )
            for device_id, device in self._devices.items():
                profile = device.profile
                self._dev_resource[device_id] = Resource(
                    f"dev:{device_id}", profile.read_bw
                )
                self._dev_write_weight[device_id] = profile.read_bw / profile.write_bw
            for node in topology.nodes:
                self._nic_resource[node.node_id] = Resource(
                    f"nic:{node.node_id}", self.network_bandwidth
                )
            for tier in topology.hierarchy:
                if tier.remote:
                    self._endpoint_resource[tier] = Resource(
                        f"endpoint:{tier.name}", endpoint_bw
                    )
            uplink_default = conf.get_float("io.rack_uplink_bandwidth", 0.0)
            for rack in topology.racks:
                uplink = (
                    rack.uplink_bandwidth
                    if rack.uplink_bandwidth is not None
                    else uplink_default
                )
                if uplink and uplink > 0:
                    self._uplink_resource[rack.name] = Resource(
                        f"uplink:{rack.name}", uplink
                    )

    @property
    def fairshare(self) -> bool:
        """Whether operations are priced as re-solved fair-share flows."""
        return self.pricing == "fairshare"

    def device(self, device_id: str) -> StorageDevice:
        """The storage device registered under ``device_id``."""
        return self._devices[device_id]

    # -- snapshot pricing steps ----------------------------------------------
    def start_read(
        self,
        size: int,
        device_id: str,
        remote: bool,
        reader_node: str,
        source_node: str,
    ) -> Tuple[float, Callable[[], None]]:
        """The snapshot pricing step of :meth:`read`.

        Prices a block read at the current stream counts and opens its
        streams; returns ``(duration, release)``.  ``release`` is the
        bound method of the operation's :class:`_SnapshotOp` record and
        must be called once, when the read ends (``read`` schedules the
        record's completion step, which does it).  A device serving
        ``n`` open streams gives the read ``read_bw / (n + 1)``; a remote
        read is further capped by both NICs' shares the same way.
        """
        if self.pricing != "snapshot":
            raise RuntimeError(_SNAPSHOT_ONLY)
        device = self._devices[device_id]
        profile = device.profile
        device_streams = self._device_streams
        bandwidth = profile.read_bw / (device_streams[device_id] + 1)
        ideal = profile.read_bw
        net_nodes: Tuple[str, ...] = ()
        net_streams = self._net_streams
        if remote:
            network_bandwidth = self.network_bandwidth
            bandwidth = min(
                bandwidth,
                network_bandwidth / (net_streams[source_node] + 1),
                network_bandwidth / (net_streams[reader_node] + 1),
            )
            ideal = min(ideal, network_bandwidth)
            net_nodes = (
                (source_node, reader_node)
                if source_node != reader_node
                else (source_node,)
            )
        duration = profile.seek_latency + size / bandwidth
        self._ops_priced += 1
        self._priced_seconds += duration
        ideal_duration = profile.seek_latency + size / ideal
        self._ideal_seconds += ideal_duration
        self.queue_delay_by_tier[device.tier.name] += duration - ideal_duration
        device_streams[device_id] += 1
        for node_id in net_nodes:
            net_streams[node_id] += 1
        return duration, _SnapshotOp(self, (device_id,), net_nodes).release

    def start_write(
        self, size: int, legs: List[WriteLeg], writer_node: Optional[str]
    ) -> Tuple[float, Callable[[], None]]:
        """The snapshot pricing step of :meth:`write`.

        Prices a pipelined write to all replica legs and opens its
        streams; returns ``(duration, release)`` as :meth:`start_read`
        does.  The pipeline streams at the minimum effective bandwidth
        across legs: each device's ``write_bw / (n + 1)``, and for a
        remote leg the leg's and the writer's NIC shares.
        """
        if self.pricing != "snapshot":
            raise RuntimeError(_SNAPSHOT_ONLY)
        if not legs:
            raise ValueError("write needs at least one leg")
        device_streams = self._device_streams
        net_streams = self._net_streams
        network_bandwidth = self.network_bandwidth
        bandwidth = float("inf")
        ideal = float("inf")
        latency = 0.0
        device_ids = []
        net_nodes = set()
        for leg in legs:
            device = leg.device
            profile = device.profile
            device_id = device.device_id
            bandwidth = min(
                bandwidth, profile.write_bw / (device_streams[device_id] + 1)
            )
            ideal = min(ideal, profile.write_bw)
            latency = max(latency, profile.seek_latency)
            device_ids.append(device_id)
            if leg.remote:
                bandwidth = min(
                    bandwidth, network_bandwidth / (net_streams[leg.node_id] + 1)
                )
                ideal = min(ideal, network_bandwidth)
                net_nodes.add(leg.node_id)
                if writer_node is not None:
                    bandwidth = min(
                        bandwidth, network_bandwidth / (net_streams[writer_node] + 1)
                    )
                    net_nodes.add(writer_node)
        duration = latency + size / bandwidth
        self._ops_priced += 1
        self._priced_seconds += duration
        ideal_duration = latency + size / ideal
        self._ideal_seconds += ideal_duration
        self.queue_delay_by_tier[_bottleneck_leg(legs).device.tier.name] += (
            duration - ideal_duration
        )
        for device_id in device_ids:
            device_streams[device_id] += 1
        nics = sorted(net_nodes)
        for node_id in nics:
            net_streams[node_id] += 1
        return duration, _SnapshotOp(self, device_ids, nics).release

    # -- fair-share link assembly --------------------------------------------
    class _LinkSet:
        """Dedups (resource, weight) pairs, keeping the highest weight."""

        def __init__(self) -> None:
            self._links: Dict[str, Tuple[Resource, float]] = {}

        def add(self, resource: Optional[Resource], weight: float = 1.0) -> None:
            if resource is None:
                return
            current = self._links.get(resource.name)
            if current is None or weight > current[1]:
                self._links[resource.name] = (resource, weight)

        def as_list(self) -> List[Tuple[Resource, float]]:
            return list(self._links.values())

    def _add_network_legs(
        self, links: "_LinkSet", src_node: str, dst_node: str
    ) -> None:
        """Cross-node traffic: both NICs, plus uplinks across racks."""
        if src_node == dst_node:
            return
        links.add(self._nic_resource.get(src_node))
        links.add(self._nic_resource.get(dst_node))
        if self._uplink_resource:
            src_rack = self.topology.rack_of(src_node).name
            dst_rack = self.topology.rack_of(dst_node).name
            if src_rack != dst_rack:
                links.add(self._uplink_resource.get(src_rack))
                links.add(self._uplink_resource.get(dst_rack))

    def _add_endpoint_leg(
        self, links: "_LinkSet", device: StorageDevice, accessing_node: str
    ) -> None:
        """Remote-tier access: the shared endpoint plus the accessor's NIC.

        The per-node remote device models this node's slice of the cold
        store; the data itself always crosses the cluster-wide endpoint
        and the accessing node's NIC, even for a nominally "local"
        replica.
        """
        endpoint = self._endpoint_resource.get(device.tier)
        if endpoint is None:
            return
        links.add(endpoint)
        links.add(self._nic_resource.get(accessing_node))

    # -- the I/O entry points -----------------------------------------------
    def _submit_tracked(
        self,
        tier_name: str,
        size: int,
        links: "IoModel._LinkSet",
        on_complete: Callable[[], None],
        delay: Tuple[float, ...],
        latency: float,
        name: str,
    ) -> None:
        """Submit a fair-share flow whose completion accounts realized-minus-
        ideal time, then calls back after ``delay``.

        The ideal is the flow's own ``ideal_duration``: its latency plus
        its bytes at the rate it would get running alone on its *actual*
        links (a lone flow on a resource of capacity ``C`` with weight
        ``w`` gets ``C / w``), which keeps the ideal honest about
        structural caps (remote endpoints, rack uplinks): only genuine
        contention counts as queue delay.  The wrapper only adds
        bookkeeping at the completion instant — flow rates, event order,
        and timing are untouched, so results stay bit-identical with the
        accounting in place.  A non-empty ``delay``, summed left to
        right, is one event after the last byte.
        """
        queue_delay_by_tier = self.queue_delay_by_tier
        sim = self.sim
        now = sim.now
        flow: Optional[Flow] = None
        wait: Optional[float] = None
        if delay:
            wait = delay[0]
            for addend in delay[1:]:
                wait += addend

        def done() -> None:
            nonlocal flow
            realized = now() - flow.submitted_at
            queue_delay_by_tier[tier_name] += max(0.0, realized - flow.ideal_duration)
            # The flow holds this wrapper; drop the way back so a finished
            # flow is freed by refcount, not the cyclic GC.
            flow = None
            if wait is None:
                on_complete()
            else:
                sim.after(wait, on_complete, name=name)

        flow = self.engine.submit(
            size, links.as_list(), done, latency=latency, name=name
        )

    def read(
        self,
        size: int,
        device_id: str,
        remote: bool,
        reader_node: str,
        source_node: str,
        on_complete: Callable[[], None],
        *delay: float,
        name: str = "read",
    ) -> None:
        """Read one block, then call ``on_complete`` after ``delay``.

        ``delay`` is given as its addends (a map task passes its CPU time
        and its overhead); the callback comes that long after the last
        byte.  Snapshot streams stay open until then: the one event is
        the operation record's release-then-call-back; a fair-share flow
        frees its links at the last byte.
        """
        if self.engine is None:
            duration, release = self.start_read(
                size, device_id, remote, reader_node, source_node
            )
            for addend in delay:
                duration += addend
            # The record behind ``release``; its ``finish`` is the one event.
            op = release.__self__
            op.on_complete = on_complete
            self.sim.after(duration, op.finish, name=name)
            return
        device = self._devices[device_id]
        links = self._LinkSet()
        links.add(self._dev_resource[device_id])
        if remote:
            self._add_network_legs(links, source_node, reader_node)
        self._add_endpoint_leg(links, device, reader_node)
        self._submit_tracked(
            device.tier.name,
            size,
            links,
            on_complete,
            delay,
            device.profile.seek_latency,
            name,
        )

    def write(
        self,
        size: int,
        legs: List[WriteLeg],
        writer_node: Optional[str],
        on_complete: Callable[[], None],
        *delay: float,
        name: str = "write",
    ) -> None:
        """Write ``size`` bytes through a pipeline to all replica legs,
        then call ``on_complete`` after ``delay`` (addends, as in
        :meth:`read`)."""
        if self.engine is None:
            duration, release = self.start_write(size, legs, writer_node)
            for addend in delay:
                duration += addend
            op = release.__self__
            op.on_complete = on_complete
            self.sim.after(duration, op.finish, name=name)
            return
        if not legs:
            raise ValueError("write needs at least one leg")
        links = self._LinkSet()
        latency = 0.0
        for leg in legs:
            device_id = leg.device.device_id
            links.add(self._dev_resource[device_id], self._dev_write_weight[device_id])
            latency = max(latency, leg.device.profile.seek_latency)
            if leg.remote and writer_node is not None:
                self._add_network_legs(links, writer_node, leg.node_id)
            elif leg.remote:
                links.add(self._nic_resource.get(leg.node_id))
            self._add_endpoint_leg(
                links, leg.device, writer_node if writer_node else leg.node_id
            )
        self._submit_tracked(
            _bottleneck_leg(legs).device.tier.name,
            size,
            links,
            on_complete,
            delay,
            latency,
            name,
        )

    def transfer(
        self,
        size: int,
        source_device_id: str,
        source_node: str,
        target_device_id: str,
        target_node: str,
        on_complete: Callable[[], None],
        name: str = "transfer",
    ) -> None:
        """Copy a replica between devices, then call ``on_complete``.

        Replication Monitor migrations: under fair share a flow that
        contends with task I/O, under snapshot the standalone
        :func:`transfer_seconds`, holding no stream.
        """
        src = self._devices[source_device_id]
        dst = self._devices[target_device_id]
        if self.engine is None:
            duration = transfer_seconds(
                size,
                src.tier,
                dst.tier,
                source_node != target_node,
                self.network_bandwidth,
            )
            self.sim.after(duration, on_complete, name=name)
            return
        links = self._LinkSet()
        links.add(self._dev_resource[source_device_id])
        links.add(
            self._dev_resource[target_device_id],
            self._dev_write_weight[target_device_id],
        )
        self._add_network_legs(links, source_node, target_node)
        # Reading from a remote tier lands the bytes on the target node;
        # writing to one sends them from the source node.
        self._add_endpoint_leg(links, src, target_node)
        self._add_endpoint_leg(links, dst, source_node)
        latency = src.profile.seek_latency + dst.profile.seek_latency
        self._submit_tracked(dst.tier.name, size, links, on_complete, (), latency, name)

    # -- introspection -------------------------------------------------------
    def active_streams(self, device_id: str) -> int:
        """Operations in flight on a device (flows crossing it under
        fair share, open streams under snapshot)."""
        if self.engine is not None:
            return self.engine.flows_crossing(self._dev_resource[device_id])
        return self._device_streams[device_id]

    def active_net_streams(self, node_id: str) -> int:
        """Operations in flight on a node's NIC (flows crossing it under
        fair share, open network streams under snapshot)."""
        if self.engine is not None:
            return self.engine.flows_crossing(self._nic_resource[node_id])
        return self._net_streams[node_id]

    def active_endpoint_streams(self, tier: TierSpec) -> int:
        """Active flows crossing a remote tier's shared endpoint."""
        if self.engine is None:
            return 0
        resource = self._endpoint_resource.get(tier)
        return 0 if resource is None else self.engine.flows_crossing(resource)

    def active_operations(self) -> int:
        """I/O operations currently in flight, whichever the model.

        Under fair share this is the engine's live flow count; under
        snapshot it is the number of open device streams (a pipelined
        write counts once per replica leg it holds open, so the gauge
        slightly over-counts operations in exchange for O(devices)
        sampling).  The timeseries recorder samples this as its
        in-flight-I/O gauge.
        """
        if self.engine is not None:
            return self.engine.active_flows
        return sum(self._device_streams.values())

    def assert_drained(self) -> None:
        """Raise unless every stream count and flow has drained to zero.

        The invariant every end-to-end run must satisfy: leaked streams
        mean some operation never released its bandwidth share (snapshot)
        or a flow never completed (fairshare).
        """
        if self.engine is not None:
            if self.engine.active_flows:
                leaked = list(self.engine._flows.values())
                raise RuntimeError(f"flows leaked: {leaked[:5]!r}")
            return
        leaked_devices = {d: n for d, n in self._device_streams.items() if n != 0}
        leaked_nics = {n: c for n, c in self._net_streams.items() if c != 0}
        if leaked_devices or leaked_nics:
            raise RuntimeError(
                f"streams leaked: devices={leaked_devices} nics={leaked_nics}"
            )

    def io_stats(self) -> Dict[str, Any]:
        """Cumulative contention statistics (benchmark-friendly)."""
        queue_delays = {
            name: round(delay, 6)
            for name, delay in self.queue_delay_by_tier.items()
        }
        if self.engine is not None:
            return {
                "model": "fairshare",
                "queue_delay_by_tier": queue_delays,
                "flows_started": self.engine.flows_started,
                "flows_completed": self.engine.flows_completed,
                "recomputes": self.engine.recomputes,
                "peak_concurrency": self.engine.peak_concurrency,
                "max_component": self.engine.max_component,
                "vector_solves": self.engine.vector_solves,
                "events_rescheduled": self.engine.events_rescheduled,
                "realized_io_seconds": self.engine.realized_seconds,
                "ideal_io_seconds": self.engine.ideal_seconds,
                "contention_seconds": self.engine.contention_seconds,
            }
        return {
            "model": "snapshot",
            "queue_delay_by_tier": queue_delays,
            "ops_priced": self._ops_priced,
            "realized_io_seconds": self._priced_seconds,
            "ideal_io_seconds": self._ideal_seconds,
            "contention_seconds": max(
                0.0, self._priced_seconds - self._ideal_seconds
            ),
        }
