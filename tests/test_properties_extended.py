"""Property-based tests across the newer framework pieces.

Complements ``test_properties.py`` with invariants on the feature
pipeline, the SLRU-K ranking, the GDS credit algebra, the monitor's
capacity accounting under cache copies, and the fault injector.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core import ReplicationManager, configure_policies
from repro.core.slruk import backward_k_distance, eviction_rank
from repro.core.stats import FileStatistics
from repro.dfs import (
    DFSClient,
    FaultInjector,
    Master,
    NodeManager,
    OctopusPlacementPolicy,
)
from repro.dfs.namespace import INodeFile
from repro.dfs.placement import HdfsPlacementPolicy
from repro.ml.features import FeatureSpec, build_feature_vector
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


# -- feature pipeline ---------------------------------------------------------

sizes = st.integers(min_value=0, max_value=8 * GB)
time_points = st.floats(min_value=0.0, max_value=1e7)


@given(
    size=sizes,
    creation=time_points,
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=20
    ),
    horizon=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=60)
def test_feature_vector_bounded_and_shaped(size, creation, gaps, horizon):
    """Every present feature lies in [0, 1]; missing ones are NaN."""
    spec = FeatureSpec()
    accesses = []
    t = creation
    for gap in gaps:
        t += gap
        accesses.append(t)
    reference = (accesses[-1] if accesses else creation) + horizon
    vec = build_feature_vector(spec, size, creation, accesses, reference)
    assert vec.shape == (spec.num_features,)
    present = vec[~np.isnan(vec)]
    assert np.all(present >= 0.0)
    assert np.all(present <= 1.0)


@given(
    k=st.integers(min_value=6, max_value=18),
    include_size=st.booleans(),
    include_creation=st.booleans(),
)
def test_feature_spec_length_matches_vector(k, include_size, include_creation):
    spec = FeatureSpec(
        k=k, include_size=include_size, include_creation=include_creation
    )
    vec = build_feature_vector(spec, 1 * MB, 0.0, [1.0, 2.0], 10.0)
    assert len(vec) == spec.num_features


# -- SLRU-K ranking ---------------------------------------------------------------


def _stats_with(accesses, k=12):
    file = INodeFile(inode_id=1, name="f", creation_time=0.0, size=MB)
    stats = FileStatistics(file, k=k)
    for t in accesses:
        stats.record_access(t)
    return stats


@given(
    accesses=st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=0, max_size=12
    ),
    k=st.integers(min_value=1, max_value=12),
    dt=st.floats(min_value=0.0, max_value=1e5),
)
@settings(max_examples=60)
def test_k_distance_monotone_in_time(accesses, k, dt):
    """Waiting longer never makes a file look K-younger."""
    stats = _stats_with(sorted(accesses))
    now = 2e5
    d1 = backward_k_distance(stats, now, k)
    d2 = backward_k_distance(stats, now + dt, k)
    assert d2 >= d1 or (math.isinf(d1) and math.isinf(d2))


@given(
    accesses=st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=12
    ),
)
@settings(max_examples=60)
def test_extra_access_never_raises_rank(accesses):
    """Another access can only make a file less evictable (k=2)."""
    ordered = sorted(accesses)
    now = 2e5
    before = eviction_rank(_stats_with(ordered), now, 2)
    after = eviction_rank(_stats_with(ordered + [1.5e5]), now, 2)
    assert after <= before


# -- monitor capacity accounting under cache copies ----------------------------------


@given(n_files=st.integers(min_value=1, max_value=8))
@settings(max_examples=10, deadline=None)
def test_cache_copies_never_overcommit_memory(n_files):
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=512 * MB)
    nm = NodeManager(topo)
    conf = Configuration({"manager.cache_mode": True, "downgrade.action": "delete"})
    master = Master(topo, HdfsPlacementPolicy(topo, nm, conf), sim, conf)
    client = DFSClient(master)
    manager = ReplicationManager(master, sim, conf)
    configure_policies(manager, downgrade="lru", upgrade="osa")
    for i in range(n_files):
        client.create(f"/f{i}", 256 * MB)
        client.open(f"/f{i}")
        sim.run(until=sim.now() + 30)
    sim.run(until=sim.now() + 600)
    for node in topo.nodes:
        for device in node.devices(MEMORY):
            assert 0 <= device.used <= device.capacity


# -- fault injector ----------------------------------------------------------------


@given(
    fail_order=st.permutations([0, 1, 2]),
)
@settings(max_examples=10, deadline=None)
def test_replication_invariant_after_any_single_failure(fail_order):
    """After one failure + repair, every block is back to 3 replicas."""
    sim = Simulator()
    topo = build_local_cluster(num_workers=5, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    conf = Configuration({"monitor.health_checks_enabled": True})
    master = Master(topo, OctopusPlacementPolicy(topo, nm, conf), sim, conf)
    client = DFSClient(master)
    ReplicationManager(master, sim, conf)  # registers the health monitor
    injector = FaultInjector(sim, master)
    for i in range(3):
        client.create(f"/f{i}", 128 * MB)
    victim = f"worker{fail_order[0]:03d}"
    injector.fail(victim)
    sim.run(until=sim.now() + 400)
    for file in master.files():
        for block in master.blocks.blocks_of(file):
            assert block.replica_count == file.replication
            assert victim not in block.nodes()
