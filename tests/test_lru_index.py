"""The LRU recency index must pick what a full min-scan picks.

``LruDowngradePolicy`` walks ``StatisticsRegistry``'s recency index
instead of scanning the namespace.  The oracle below is the scan it
replaced: the minimum of ``(last_access_or_creation, inode_id)`` over
``files_on_tier``, with statistics created on demand.  Random sequences
of creates, opens, deletes, same-timestamp accesses, replica moves and
in-flight / temporarily excluded files are replayed, and after every
step the index pick must equal the oracle pick on every tier, both for
the manager-fed registry and for a registry no listener feeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager
from repro.core.context import PolicyContext
from repro.core.downgrade import LruDowngradePolicy
from repro.core.policy import DowngradeAction
from repro.core.stats import StatisticsRegistry
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def oracle_pick(ctx, tier):
    """The reference min-scan over the tier's candidates."""
    candidates = ctx.files_on_tier(tier)
    if not candidates:
        return None
    stats = ctx.stats
    return min(
        candidates,
        key=lambda f: (stats.get_or_create(f).last_access_or_creation, f.inode_id),
    )


def build():
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    master = Master(topo, OctopusPlacementPolicy(topo, nm, Configuration()), sim)
    # No policies on the manager: it only feeds statistics and owns the
    # monitor, so every downgrade below is one the test asked for.
    manager = ReplicationManager(master, sim)
    detached = PolicyContext(
        master, StatisticsRegistry(), sim, in_flight=manager._in_flight_union
    )
    return sim, master, DFSClient(master), manager, detached


_OPS = st.one_of(
    st.tuples(st.just("create"), st.integers(1, 6)),
    st.tuples(st.just("open"), st.integers(0, 50)),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 3.0, 60.0])),
    st.tuples(st.just("down"), st.integers(0, 50), st.integers(0, 1)),
    st.tuples(st.just("up"), st.integers(0, 50)),
    st.tuples(st.just("exclude"), st.integers(0, 50)),
    st.tuples(st.just("unexclude"), st.integers(0, 50)),
)

_TIERS = (MEMORY, SSD, HDD)


def _apply(op, sim, master, client, manager, counter):
    kind = op[0]
    files = master.files()
    if kind == "create":
        counter[0] += 1
        client.create(f"/d{counter[0] % 3}/f{counter[0]}", op[1] * 16 * MB)
        return
    if kind == "advance":
        sim.run(until=sim.now() + op[1])
        return
    if not files:
        return
    file = files[op[1] % len(files)]
    if kind == "open":
        client.open(file.path)
    elif kind == "delete":
        if file.inode_id not in manager.monitor.in_flight_files():
            client.delete(file.path)
    elif kind == "down":
        manager.monitor.submit_downgrade(file, _TIERS[op[2]], DowngradeAction.MOVE)
    elif kind == "up":
        manager.monitor.submit_upgrade(file, [MEMORY, SSD])
    elif kind == "exclude":
        manager._temp_excluded.add(file.inode_id)
    elif kind == "unexclude":
        manager._temp_excluded.discard(file.inode_id)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, min_size=12, max_size=60))
def test_index_pick_equals_min_scan(ops):
    sim, master, client, manager, detached = build()
    policies = [
        (LruDowngradePolicy(manager.ctx), manager.ctx),
        (LruDowngradePolicy(detached), detached),
    ]
    counter = [0]
    for op in ops:
        _apply(op, sim, master, client, manager, counter)
        for tier in _TIERS:
            for policy, ctx in policies:
                # The policy picks first: the oracle's get_or_create must
                # not hand the index entries it would otherwise lack.
                assert policy.select_file_to_downgrade(tier) is oracle_pick(ctx, tier)


def test_same_timestamp_ties_break_on_inode_id():
    sim, master, client, manager, _ = build()
    policy = LruDowngradePolicy(manager.ctx)
    a = client.create("/a", 16 * MB)
    b = client.create("/b", 16 * MB)
    sim.run(until=10.0)
    client.open("/b")
    client.open("/a")  # same timestamp as /b: the lower inode id wins
    assert policy.select_file_to_downgrade(MEMORY) is a
    manager._temp_excluded.add(a.inode_id)
    assert policy.select_file_to_downgrade(MEMORY) is b
