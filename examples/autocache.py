"""AutoCache: the framework managing the HDFS centralized cache.

The same Replication Manager/Monitor that move replicas between tiers
can run the HDFS cache (paper Sec 3.3): upgrades *copy* hot files into
memory on top of their 3 HDD replicas, and downgrades *delete* cached
copies instead of moving them.  This example contrasts the static
centralized cache (caches everything until memory fills, then silently
stops — the paper's Fig 2 flatline) with the automated one that keeps
rotating the cache toward the files being re-read.

Run:  python examples/autocache.py
"""

from repro.cluster import build_local_cluster
from repro.common.config import Configuration
from repro.common.units import GB, MB, format_bytes
from repro.core import ReplicationManager, configure_policies
from repro.dfs import DFSClient, Master, NodeManager
from repro.dfs.placement import HdfsCachePlacementPolicy, HdfsPlacementPolicy
from repro.sim import Simulator


def build(cache_mode: bool):
    sim = Simulator()
    topology = build_local_cluster(num_workers=4, memory_per_node=1 * GB)
    nm = NodeManager(topology)
    if cache_mode:
        conf = Configuration({"manager.cache_mode": True, "downgrade.action": "delete"})
        master = Master(topology, HdfsPlacementPolicy(topology, nm, conf), sim, conf)
        manager = ReplicationManager(master, sim, conf)
        configure_policies(manager, downgrade="lru", upgrade="osa")
    else:
        conf = Configuration()
        master = Master(
            topology, HdfsCachePlacementPolicy(topology, nm, conf), sim, conf
        )
        manager = None
    return sim, master, DFSClient(master), manager


def drive(sim, master, client) -> float:
    """Write + re-read a rotating working set; return the memory hit rate."""
    hits = reads = 0
    for i in range(30):
        client.create(f"/data/f{i:02d}.bin", 256 * MB)
        # Re-read a recent window of files: the live working set.
        for j in range(max(0, i - 2), i + 1):
            path = f"/data/f{j:02d}.bin"
            file = master.get_file(path)
            reads += 1
            if master.blocks.file_has_tier(file, master.hierarchy.highest):
                hits += 1
            client.open(path)
        sim.run(until=sim.now() + 60)
    sim.run(until=sim.now() + 300)
    return hits / reads


def main() -> None:
    sim, master, client, _ = build(cache_mode=False)
    static_hr = drive(sim, master, client)
    static_mem = master.tier_used(master.hierarchy.highest)

    sim, master, client, manager = build(cache_mode=True)
    auto_hr = drive(sim, master, client)
    memory = master.hierarchy.highest
    auto_mem = master.tier_used(memory)

    print("static HDFS cache (caches at write until memory fills):")
    print(f"  memory-location hit rate: {static_hr:.1%}")
    print(f"  memory in use at end:     {format_bytes(static_mem)}")
    print("AutoCache (admission on access, eviction by deletion):")
    print(f"  memory-location hit rate: {auto_hr:.1%}")
    print(f"  memory in use at end:     {format_bytes(auto_mem)}")
    print(
        f"  cached {format_bytes(manager.monitor.bytes_upgraded[memory])}, "
        f"evicted {format_bytes(manager.monitor.bytes_deleted[memory])}"
    )
    if auto_hr > static_hr:
        print(
            "-> the automated cache keeps serving the live working set "
            "after the static cache has flatlined"
        )


if __name__ == "__main__":
    main()
