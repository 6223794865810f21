"""OctopusFS placement's inlined hot loop must equal its reference scoring.

``OctopusPlacementPolicy._best_candidate`` chooses the device and the
data-balance term inline instead of calling ``has_tier``,
``best_device_for`` and ``StorageDevice.utilization``.  The oracle here
is the slow form: score every live, non-excluded (node, tier) pair with
``_score`` and take the highest score, breaking ties on the smallest
``(node_id, tier)``.  Random cluster states cover the 3-device HDD tier,
dead and excluded nodes, full devices and forced equal utilizations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.dfs import NodeManager, OctopusPlacementPolicy

WORKERS = 5

#: Fill levels as fractions of a device: equal levels force equal
#: utilizations (and score ties); 0.75 leaves exactly 256 MB free on
#: memory and HDD devices, 1.0 leaves the device full.
_FILLS = (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)


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


@st.composite
def cluster_states(draw):
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
    policy = OctopusPlacementPolicy(topo, nm, Configuration())
    hierarchy = list(topo.hierarchy)
    node_ids = [n.node_id for n in topo.nodes]
    racks = sorted({n.rack for n in topo.nodes})
    tiers = [t for t in hierarchy if draw(st.booleans())] or hierarchy
    args = (
        draw(st.sampled_from([1 * MB, 64 * MB, 256 * MB, 600 * MB])),
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
    target = policy._best_candidate(*args)
    expected = oracle(policy, *args)
    if expected is None:
        assert target is None
    else:
        assert (target.node_id, target.tier, target.device_id) == expected


def test_hdd_device_choice_keeps_first_on_ties():
    topo = build_local_cluster(num_workers=1, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    policy = OctopusPlacementPolicy(topo, nm, Configuration())
    node = topo.nodes[0]
    hdd = topo.hierarchy.tier("HDD")
    first, second, third = node.devices(hdd)
    first.allocate(1, first.capacity // 2)
    # second and third are equally empty: the first of them wins.
    target = policy._best_candidate(64 * MB, [hdd], set(), set(), set(), None)
    assert target.device_id == second.device_id
    second.allocate(2, second.capacity)  # full: skipped
    target = policy._best_candidate(64 * MB, [hdd], set(), set(), set(), None)
    assert target.device_id == third.device_id
