"""Tests for the PolicyContext candidate queries."""


from repro.cluster import DEFAULT_HIERARCHY, build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB
from repro.core.context import PolicyContext
from repro.core.stats import StatisticsRegistry
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.dfs.placement import SingleTierPlacementPolicy
from repro.sim import Simulator

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def build_ctx(placement_cls=OctopusPlacementPolicy, in_flight=None):
    sim = Simulator()
    topo = build_local_cluster(num_workers=3, memory_per_node=1 * GB)
    nm = NodeManager(topo)
    master = Master(topo, placement_cls(topo, nm, Configuration()), sim)
    stats = StatisticsRegistry()
    ctx = PolicyContext(master, stats, sim, in_flight=in_flight)
    return ctx, DFSClient(master), master


class TestCandidateQueries:
    def test_files_on_tier(self):
        ctx, client, _ = build_ctx()
        client.create("/a", 64 * MB)
        names = [f.path for f in ctx.files_on_tier(MEMORY)]
        assert names == ["/a"]

    def test_in_flight_exclusion(self):
        busy = set()
        ctx, client, master = build_ctx(in_flight=lambda: busy)
        file = client.create("/a", 64 * MB)
        busy.add(file.inode_id)
        assert ctx.files_on_tier(MEMORY) == []

    def test_files_below_tier(self):
        ctx, client, _ = build_ctx(placement_cls=SingleTierPlacementPolicy)
        client.create("/hdd-only", 64 * MB)
        below = [f.path for f in ctx.files_below_tier(MEMORY)]
        assert below == ["/hdd-only"]
        assert ctx.files_below_tier(HDD) == []

    def test_file_best_tier_helpers(self):
        ctx, client, master = build_ctx()
        file = client.create("/a", 64 * MB)
        assert ctx.file_best_tier(file) is MEMORY
        assert ctx.file_in_tier_or_better(file, SSD)

    def test_tier_state_passthrough(self):
        ctx, client, master = build_ctx()
        client.create("/a", 512 * MB)
        assert 0 < ctx.tier_utilization(MEMORY) < 1
        assert ctx.tier_free(MEMORY) < master.tier_capacity(MEMORY)

    def test_now_tracks_clock(self):
        ctx, _, master = build_ctx()
        assert ctx.now() == 0.0
