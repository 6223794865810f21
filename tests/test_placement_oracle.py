"""OctopusFS placement's indexed scoring must equal its reference form.

``OctopusPlacementPolicy`` keeps a ``_CandidateIndex`` of (node, tier)
cells: each caches its emptiest device and the replica-independent
score prefix, refreshed only when a device allocate/release or a
transfer start/finish marks it dirty.  ``_CandidateIndex.best`` scores
the preferred node on its own, then walks each tier's cells in prefix
order, adds the fault and locality terms, and stops a tier once no later
cell can reach the best score.  ``place_block`` and
``select_transfer_target`` both choose through it.  The oracle here is
the slow form: score every live, non-excluded (node, tier) pair with
``_score`` and take the highest score, breaking ties on the smallest
``(node_id, tier)``; whole ``place_block`` calls are replayed replica by
replica against it, with the fresh-tier preference and fallback.  Random
cluster states cover the 3-device HDD tier, dead and excluded nodes,
full devices and forced equal utilizations (score ties).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.dfs import NodeManager, OctopusPlacementPolicy
from repro.dfs.block import BlockInfo, ReplicaInfo

WORKERS = 5

#: Fill levels as fractions of a device: equal levels force equal
#: utilizations (and score ties); 0.75 leaves exactly 256 MB free on
#: memory and HDD devices, 1.0 leaves the device full.
_FILLS = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)

_SIZES = (1 * MB, 64 * MB, 256 * MB, 600 * MB)


def oracle(policy, size, tiers, excluded, used_racks, used_tiers, prefer):
    candidates = []
    for node in policy.topology.nodes:
        if not node.alive or node.node_id in excluded:
            continue
        for tier in tiers:
            if not node.has_tier(tier):
                continue
            score = policy._score(node, tier, size, used_racks, used_tiers, prefer)
            if score is None:
                continue
            device = node.best_device_for(tier, size)
            candidates.append((score, node.node_id, tier, device.device_id))
    if not candidates:
        return None
    best = min(candidates, key=lambda c: (-c[0], c[1], c[2]))
    return best[1], best[2], best[3]


def oracle_place_block(policy, size, replication, writer_node):
    """``place_block`` replayed replica by replica through the oracle."""
    hierarchy = list(policy.hierarchy)
    chosen = []
    used_nodes, used_racks, used_tiers = set(), set(), set()
    for i in range(replication):
        prefer = writer_node if i == 0 else None
        fresh = [t for t in hierarchy if t not in used_tiers]
        target = None
        if fresh:
            target = oracle(
                policy, size, fresh, used_nodes, used_racks, used_tiers, prefer
            )
        if target is None:
            target = oracle(
                policy, size, hierarchy, used_nodes, used_racks, used_tiers, prefer
            )
        if target is None:
            break
        chosen.append(target)
        node_id, tier, _device = target
        used_nodes.add(node_id)
        used_racks.add(policy.topology.node(node_id).rack)
        used_tiers.add(tier)
    return chosen


def as_tuples(targets):
    return [(t.node_id, t.tier, t.device_id) for t in targets]


def pick(policy, size, tiers, excluded, used_racks, used_tiers, prefer):
    """The index walk's choice of one candidate, for the same arguments."""
    policy._index.refresh()
    return policy._index.best(size, tiers, excluded, used_racks, used_tiers, prefer)


@st.composite
def clusters(draw):
    topo = build_local_cluster(
        num_workers=WORKERS,
        memory_per_node=1 * GB,
        ssd_per_node=2 * GB,
        hdd_per_node=3 * GB,
        rack_size=2,
    )
    nm = NodeManager(topo)
    # One shared fill level for every device (forced equal utilizations
    # across nodes) or an independent level per device.
    shared = draw(st.one_of(st.none(), st.sampled_from(_FILLS)))
    replica_id = 0
    for node in topo.nodes:
        for device in node.devices():
            fill = shared if shared is not None else draw(st.sampled_from(_FILLS))
            if fill:
                replica_id += 1
                device.allocate(replica_id, int(device.capacity * fill))
        for _ in range(draw(st.integers(0, 2))):
            nm.transfer_started(node.node_id)
        node.alive = draw(st.booleans()) or node is topo.nodes[0]
    return OctopusPlacementPolicy(topo, nm, Configuration())


@st.composite
def cluster_states(draw):
    policy = draw(clusters())
    topo = policy.topology
    hierarchy = list(topo.hierarchy)
    node_ids = [n.node_id for n in topo.nodes]
    racks = sorted({n.rack for n in topo.nodes})
    tiers = [t for t in hierarchy if draw(st.booleans())] or hierarchy
    args = (
        draw(st.sampled_from(_SIZES)),
        tiers,
        set(draw(st.lists(st.sampled_from(node_ids), max_size=3))),
        set(draw(st.lists(st.sampled_from(racks), max_size=2))),
        set(draw(st.lists(st.sampled_from(hierarchy), max_size=2))),
        draw(st.one_of(st.none(), st.sampled_from(node_ids))),
    )
    return policy, args


@settings(max_examples=200, deadline=None)
@given(state=cluster_states())
def test_best_candidate_equals_scored_argmax(state):
    policy, args = state
    target = pick(policy, *args)
    expected = oracle(policy, *args)
    if expected is None:
        assert target is None
    else:
        assert (target.node_id, target.tier, target.device_id) == expected


@settings(max_examples=200, deadline=None)
@given(
    policy=clusters(),
    size=st.sampled_from(_SIZES),
    replication=st.integers(1, 4),
    writer=st.one_of(st.none(), st.integers(0, WORKERS - 1)),
)
def test_place_block_equals_replayed_oracle(policy, size, replication, writer):
    writer_node = None if writer is None else policy.topology.nodes[writer].node_id
    targets = policy.place_block(size, replication, writer_node)
    assert as_tuples(targets) == oracle_place_block(
        policy, size, replication, writer_node
    )


@st.composite
def transfer_states(draw):
    policy = draw(clusters())
    topo = policy.topology
    hierarchy = list(topo.hierarchy)
    block = BlockInfo(0, 0, 0, draw(st.sampled_from(_SIZES)))
    holders = draw(
        st.lists(
            st.tuples(st.integers(0, WORKERS - 1), st.sampled_from(hierarchy)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    for replica_id, (index, tier) in enumerate(holders):
        node = topo.nodes[index]
        block.replicas[replica_id] = ReplicaInfo(
            replica_id, block, node.node_id, tier, f"{node.node_id}:held"
        )
    source = block.replicas[draw(st.integers(0, len(holders) - 1))]
    tiers = draw(st.lists(st.sampled_from(hierarchy), min_size=1, max_size=3))
    return policy, block, source, tiers


@settings(max_examples=200, deadline=None)
@given(state=transfer_states())
def test_select_transfer_target_equals_oracle(state):
    policy, block, source, tiers = state
    others = [r for r in block.replicas.values() if r.replica_id != source.replica_id]
    expected = oracle(
        policy,
        block.size,
        tiers,
        policy._nodes_excluded_for(block, source),
        {policy.topology.node(r.node_id).rack for r in others},
        {r.tier for r in others},
        source.node_id,
    )
    target = policy.select_transfer_target(block, source, tiers)
    if expected is None:
        assert target is None
    else:
        assert (target.node_id, target.tier, target.device_id) == expected


def _policy(**cluster):
    topo = build_local_cluster(**cluster)
    return OctopusPlacementPolicy(topo, NodeManager(topo), Configuration())


def test_hdd_device_choice_keeps_first_on_ties():
    policy = _policy(num_workers=1, memory_per_node=1 * GB)
    node = policy.topology.nodes[0]
    hdd = policy.hierarchy.tier("HDD")
    first, second, third = node.devices(hdd)
    first.allocate(1, first.capacity // 2)
    # second and third are equally empty: the first of them wins.
    target = pick(policy, 64 * MB, [hdd], set(), set(), set(), None)
    assert target.device_id == second.device_id
    second.allocate(2, second.capacity)  # full: skipped
    target = pick(policy, 64 * MB, [hdd], set(), set(), set(), None)
    assert target.device_id == third.device_id


def test_writer_node_gets_the_first_replica():
    policy = _policy(num_workers=4, rack_size=2)
    writer = policy.topology.nodes[3].node_id
    targets = policy.place_block(64 * MB, 3, writer)
    assert targets[0].node_id == writer
    assert [t.tier for t in targets] == list(policy.hierarchy)
    assert as_tuples(targets) == oracle_place_block(policy, 64 * MB, 3, writer)


def test_equal_scores_break_on_smallest_node_then_tier():
    policy = _policy(num_workers=4, rack_size=4)
    ids = sorted(n.node_id for n in policy.topology.nodes)
    targets = policy.place_block(64 * MB, 3, None)
    # An empty, idle, one-rack cluster scores every node alike per tier.
    assert [t.node_id for t in targets] == ids[:3]
    assert as_tuples(targets) == oracle_place_block(policy, 64 * MB, 3, None)


def test_full_fresh_tiers_fall_back_to_a_used_tier():
    policy = _policy(num_workers=3, memory_per_node=1 * GB, ssd_per_node=1 * GB)
    hierarchy = list(policy.hierarchy)
    memory, ssd, hdd = hierarchy
    for node in policy.topology.nodes:
        for device in node.devices(memory) + node.devices(ssd):
            device.allocate(1, device.capacity)
    targets = policy.place_block(64 * MB, 3, None)
    assert [t.tier for t in targets] == [hdd, hdd, hdd]
    assert len({t.node_id for t in targets}) == 3
    assert as_tuples(targets) == oracle_place_block(policy, 64 * MB, 3, None)


def test_dead_and_excluded_nodes_are_never_chosen():
    policy = _policy(num_workers=4, rack_size=2)
    nodes = policy.topology.nodes
    nodes[0].alive = False
    targets = policy.place_block(64 * MB, 4, nodes[0].node_id)
    assert nodes[0].node_id not in {t.node_id for t in targets}
    assert len(targets) == 3  # one replica per live node
    assert as_tuples(targets) == oracle_place_block(
        policy, 64 * MB, 4, nodes[0].node_id
    )
    excluded = {nodes[1].node_id, nodes[2].node_id}
    target = pick(policy, 64 * MB, list(policy.hierarchy), excluded, set(), set(), None)
    assert target.node_id == nodes[3].node_id


# -- a long-lived index under interleaved events ------------------------------

#: 3 GB + 2 bytes of HDD: the first of the three devices holds 2 bytes
#: more than its siblings, so after a 1-byte allocation on it an empty
#: sibling is the emptiest device yet too small for ``GB + 1`` bytes.
_HDD_ODD = 3 * GB + 2

_EVENT_SIZES = (1, 64 * MB, 256 * MB, 600 * MB, GB + 1)

#: Allocation amounts; ``None`` fills the device to the brim.
_AMOUNTS = (1, 64 * MB, 256 * MB, 512 * MB, None)

_node = st.integers(0, WORKERS - 1)
_tier = st.integers(0, 2)
_events = st.one_of(
    st.tuples(st.just("alloc"), _node, _tier, st.integers(0, 2), st.integers(0, 4)),
    st.tuples(st.just("release"), st.integers(0, 63)),
    st.tuples(st.just("start"), _node),
    st.tuples(st.just("finish"), _node),
    st.tuples(st.just("alive"), _node, st.booleans()),
    st.tuples(
        st.just("place"),
        st.integers(0, 4),
        st.integers(1, 4),
        st.one_of(st.none(), _node),
    ),
    st.tuples(
        st.just("transfer"),
        st.integers(0, 4),
        st.lists(st.tuples(_node, _tier), min_size=1, max_size=4, unique=True),
        st.integers(0, 3),
        st.lists(_tier, min_size=1, max_size=3),
    ),
)

#: The HDD fallback: node 0's first HDD device gets 1 byte, then a
#: ``GB + 1`` block moves off node 0's memory and may only go to HDD.
_FALLBACK_EVENTS = [
    ("alloc", 0, 2, 0, 0),
    ("transfer", 4, [(0, 0)], 0, [2]),
    ("place", 4, 3, 0),
    ("transfer", 4, [(1, 0), (2, 1)], 1, [2]),
]

#: A release, then a transfer finish, each between two placements that
#: would tie but for the event: a cell left stale picks another node.
_RELEASE_EVENTS = [("place", 1, 1, None), ("release", 0), ("place", 1, 1, None)]
_FINISH_EVENTS = [
    ("start", 0),
    ("place", 1, 1, None),
    ("finish", 0),
    ("place", 1, 1, None),
]


@settings(max_examples=150, deadline=None)
@given(
    w_data=st.sampled_from([0.4, -0.4]),
    events=st.lists(_events, max_size=40),
)
@example(w_data=0.4, events=_FALLBACK_EVENTS)
@example(w_data=-0.4, events=_FALLBACK_EVENTS)
@example(w_data=0.4, events=_RELEASE_EVENTS)
@example(w_data=0.4, events=_FINISH_EVENTS)
def test_long_lived_index_tracks_every_event(w_data, events):
    """One policy lives through allocations, releases, transfer counts,
    node deaths and its own placements; every decision must equal the
    oracle over the cluster as it stands."""
    topo = build_local_cluster(
        num_workers=WORKERS,
        memory_per_node=1 * GB,
        ssd_per_node=2 * GB,
        hdd_per_node=_HDD_ODD,
        rack_size=2,
    )
    nm = NodeManager(topo)
    policy = OctopusPlacementPolicy(
        topo, nm, Configuration({"placement.weight.data_balance": w_data})
    )
    nodes = topo.nodes
    hierarchy = list(topo.hierarchy)
    devices = {d.device_id: d for n in nodes for d in n.devices()}
    held = []  # (device, replica_id, bytes) still allocated
    next_id = iter(range(1, 10**6))

    def allocate(device, amount):
        if amount > 0 and device.has_space(amount):
            replica_id = next(next_id)
            device.allocate(replica_id, amount)
            held.append((device, replica_id, amount))

    for event in events:
        kind = event[0]
        if kind == "alloc":
            _, index, tier, slot, amount = event
            tier_devices = nodes[index].devices(hierarchy[tier])
            device = tier_devices[slot % len(tier_devices)]
            amount = _AMOUNTS[amount]
            allocate(device, device.free if amount is None else amount)
        elif kind == "release" and held:
            device, replica_id, amount = held.pop(event[1] % len(held))
            device.release(replica_id, amount)
        elif kind == "start":
            nm.transfer_started(nodes[event[1]].node_id)
        elif kind == "finish":
            node_id = nodes[event[1]].node_id
            if nm.stats(node_id).active_transfers:
                nm.transfer_finished(node_id)
        elif kind == "alive":
            nodes[event[1]].alive = event[2]
        elif kind == "place":
            _, size, replication, writer = event
            size = _EVENT_SIZES[size]
            writer_node = None if writer is None else nodes[writer].node_id
            expected = oracle_place_block(policy, size, replication, writer_node)
            targets = policy.place_block(size, replication, writer_node)
            assert as_tuples(targets) == expected
            for target in targets:
                allocate(devices[target.device_id], size)
        elif kind == "transfer":
            _, size, holders, source, tiers = event
            block = BlockInfo(0, 0, 0, _EVENT_SIZES[size])
            for replica_id, (index, tier) in enumerate(holders):
                node_id = nodes[index].node_id
                block.replicas[replica_id] = ReplicaInfo(
                    replica_id, block, node_id, hierarchy[tier], f"{node_id}:held"
                )
            source = block.replicas[source % len(holders)]
            tiers = [hierarchy[t] for t in tiers]
            others = [
                r for r in block.replicas.values() if r.replica_id != source.replica_id
            ]
            expected = oracle(
                policy,
                block.size,
                tiers,
                policy._nodes_excluded_for(block, source),
                {topo.node(r.node_id).rack for r in others},
                {r.tier for r in others},
                source.node_id,
            )
            target = policy.select_transfer_target(block, source, tiers)
            if expected is None:
                assert target is None
            else:
                assert (target.node_id, target.tier, target.device_id) == expected
