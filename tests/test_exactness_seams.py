"""Fast paths on the per-task path must equal the forms they replace.

Each test drives one shortcut against its reference with hypothesis:

* ``normalize_path`` / ``split_path`` return already-normal paths
  without splitting; the reference is the split-and-join form, and
  every input must give the same value or the same error.
* ``Master.choose_replica`` picks in one keyed loop over the topology's
  node-to-rack table; the reference is a keyed ``min`` over
  ``(topology.distance, tier, replica_id)`` with a reader, and over
  ``(tier, load_score, replica_id)`` without one.  Layouts include a
  node that joins after the ``Master`` is built, so the table must
  follow ``add_node``.
* ``Simulator`` orders ``(time, priority, seq, event)`` heap tuples; the
  reference is sorting the events by ``Event.__lt__``, across same-time
  ties, priorities, cancels and heap compaction.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology, build_local_cluster
from repro.cluster.node import Node, TierProvision
from repro.common.config import Configuration
from repro.common.errors import InvalidPathError
from repro.common.units import GB, MB
from repro.dfs import Master, NodeManager, OctopusPlacementPolicy
from repro.dfs.block import BlockInfo
from repro.dfs.namespace import normalize_path, split_path
from repro.sim import ManualClock, Simulator
from repro.sim.simulator import Event

# -- paths -----------------------------------------------------------------


def reference_normalize(path):
    if not path or not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidPathError(f"relative components not allowed: {path!r}")
    return "/" + "/".join(parts)


def reference_split(path):
    return [p for p in reference_normalize(path).split("/") if p]


def outcome(fn, path):
    try:
        return ("value", fn(path))
    except Exception as exc:  # the error type and message must match too
        return ("error", type(exc), str(exc))


_PATH_CASES = (
    "/",
    "//",
    "//a",
    "/a/",
    "/a//b",
    "/a/./b",
    "/a/../b",
    "/.",
    "/..",
    "/a/.",
    "/a/..",
    "/.hidden",
    "/a/.hidden/b",
    "/a/b..c",
    "/a.b/c.",
    "a",
    "a/b",
    "./a",
    "",
)


def _with_path_cases(test):
    for case in _PATH_CASES:
        test = example(path=case)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(path=st.text(alphabet="/.ab", max_size=12))
@_with_path_cases
def test_normalize_path_equals_split_and_join(path):
    assert outcome(normalize_path, path) == outcome(reference_normalize, path)


@settings(max_examples=500, deadline=None)
@given(path=st.text(alphabet="/.ab", max_size=12))
@_with_path_cases
def test_split_path_equals_split_and_join(path):
    assert outcome(split_path, path) == outcome(reference_split, path)


@pytest.mark.parametrize("path", [None, 0, b"/a"])
def test_non_string_paths_fail_as_before(path):
    assert outcome(normalize_path, path) == outcome(reference_normalize, path)
    assert outcome(split_path, path) == outcome(reference_split, path)


# -- replica choice -----------------------------------------------------------


def reference_choose(master, block, reader_node):
    replicas = block.replica_list()
    topology = master.topology
    if reader_node is not None and reader_node in topology:
        reader = topology.node(reader_node)

        def key(replica):
            distance = topology.distance(reader, topology.node(replica.node_id))
            return (distance, replica.tier, replica.replica_id)

        chosen = min(replicas, key=key)
        distance = topology.distance(reader, topology.node(chosen.node_id))
        return chosen, distance, distance == ClusterTopology.SAME_NODE
    chosen = min(
        replicas,
        key=lambda r: (
            r.tier,
            master.node_manager.load_score(r.node_id),
            r.replica_id,
        ),
    )
    return chosen, ClusterTopology.OFF_RACK, False


@st.composite
def replica_layouts(draw):
    topology = build_local_cluster(
        num_workers=6,
        memory_per_node=1 * GB,
        ssd_per_node=1 * GB,
        hdd_per_node=3 * GB,
        rack_size=2,
    )
    node_manager = NodeManager(topology)
    placement = OctopusPlacementPolicy(topology, node_manager, Configuration())
    master = Master(topology, placement, ManualClock())
    file = master.fs.create_file("/f", creation_time=0.0, size=MB)
    block = master.blocks.allocate_block(file, 0, MB)
    nodes = topology.nodes
    hierarchy = list(topology.hierarchy)
    # A reader that joins after the Master exists, in an old rack or a
    # new one.
    late_rack = draw(st.sampled_from(["rack0", "rack2", "rack-late"]))
    late = Node("late000", late_rack, [TierProvision(t, GB) for t in hierarchy])
    topology.add_node(late)
    holders = draw(
        st.lists(
            st.tuples(st.integers(0, len(nodes) - 1), st.sampled_from(hierarchy)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    # Replica ids follow insertion order, so shuffled holders also cover
    # a slower tier holding the smaller replica id.
    for index, tier in holders:
        node = nodes[index]
        device = node.devices(tier)[0]
        master.blocks.add_replica(block, node.node_id, tier, device.device_id)
    for node in nodes:
        for _ in range(draw(st.integers(0, 2))):
            node_manager.transfer_started(node.node_id)
    reader = draw(
        st.one_of(
            st.none(),
            st.just("not-a-node"),
            st.sampled_from([n.node_id for n in nodes]),
            st.just(late.node_id),
        )
    )
    return master, block, reader


@settings(max_examples=300, deadline=None)
@given(layout=replica_layouts())
def test_choose_replica_equals_keyed_min(layout):
    master, block, reader = layout
    read = master.choose_replica(block, reader)
    chosen, distance, local = reference_choose(master, block, reader)
    assert read.replica is chosen
    assert read.distance == distance
    assert read.local == local
    assert read.block is block


def test_choose_replica_without_replicas_raises():
    topology = build_local_cluster(num_workers=2)
    placement = OctopusPlacementPolicy(topology, NodeManager(topology), Configuration())
    master = Master(topology, placement, ManualClock())
    with pytest.raises(InvalidPathError):
        master.choose_replica(BlockInfo(7, 0, 0, MB), None)


# -- event order ----------------------------------------------------------------


@st.composite
def schedules(draw):
    """Events as (time, priority) and the indexes cancelled before and
    after a partial run; many cancels push the heap through compaction."""
    count = draw(st.integers(1, 300))
    times = st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0])
    priorities = st.sampled_from([-1, 0, 1])
    events = draw(
        st.lists(st.tuples(times, priorities), min_size=count, max_size=count)
    )
    cancel_rate = draw(st.sampled_from([0.0, 0.3, 0.8]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cancelled = [i for i in range(count) if rng.random() < cancel_rate]
    split = draw(st.sampled_from([None, 0.5, 1.0, 1.5]))
    offsets = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    late = draw(st.lists(st.tuples(offsets, priorities), max_size=40))
    return events, cancelled, split, late


@settings(max_examples=200, deadline=None)
@given(schedule=schedules())
def test_simulator_pop_order_equals_event_lt(schedule):
    events, cancelled, split, late = schedule
    sim = Simulator()
    log = []
    handles = [
        sim.at(time, functools.partial(log.append, i), priority=priority)
        for i, (time, priority) in enumerate(events)
    ]
    for i in cancelled:
        handles[i].cancel()
    live = [h for h in handles if not h.cancelled]
    if split is not None:
        sim.run(until=split)
        first = sorted(h for h in live if h.time <= split)
        rest = [h for h in live if h.time > split]
        # Late events are scheduled at or after the clock; every other
        # one of them is cancelled straight away.
        base = len(handles)
        for j, (offset, priority) in enumerate(late):
            handle = sim.at(
                sim.now() + offset,
                functools.partial(log.append, base + j),
                priority=priority,
            )
            handles.append(handle)
            if j % 2:
                handle.cancel()
            else:
                rest.append(handle)
        order = first + sorted(rest)
    else:
        order = sorted(live)
    sim.run()
    index = {id(h): i for i, h in enumerate(handles)}
    assert log == [index[id(h)] for h in order]
    assert sim.pending == 0
    assert sim.events_processed == len(order)
    assert sim.events_cancelled == sum(1 for h in handles if h.cancelled)


def test_compaction_keeps_event_lt_order():
    sim = Simulator()
    log = []
    handles = []
    for i in range(400):
        time = float(i % 7)
        priority = (i % 3) - 1
        handles.append(
            sim.at(time, functools.partial(log.append, i), priority=priority)
        )
    for handle in handles[::4] + handles[1::4] + handles[2::4]:
        handle.cancel()
    assert sim.heap_compactions > 0
    live = [h for h in handles if not h.cancelled]
    sim.run()
    index = {id(h): i for i, h in enumerate(handles)}
    assert log == [index[id(h)] for h in sorted(live)]


def test_event_lt_orders_time_then_priority_then_seq():
    a = Event(1.0, 5, lambda: None, priority=0)
    b = Event(1.0, 2, lambda: None, priority=1)
    c = Event(1.0, 9, lambda: None, priority=-1)
    d = Event(0.5, 99, lambda: None, priority=1)
    assert sorted([a, b, c, d]) == [d, c, a, b]
