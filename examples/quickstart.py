"""Quickstart: a tiered DFS with automated data movement in ~60 lines.

Builds the paper's 11-worker cluster, attaches the tiering framework with
the LRU downgrade + OSA upgrade pair, writes files until the memory tier
crosses its proactive threshold, and watches replicas move down — and
back up when a cold file is read again.

Run:  python examples/quickstart.py
"""

from repro.cluster import build_local_cluster
from repro.common.units import GB, MB, format_bytes
from repro.core import ReplicationManager, configure_policies
from repro.dfs import DFSClient, Master, NodeManager, OctopusPlacementPolicy
from repro.sim import Simulator


def main() -> None:
    # 1. Assemble the stack: simulator clock, cluster, master, client.
    sim = Simulator()
    topology = build_local_cluster(num_workers=11, memory_per_node=4 * GB)
    placement = OctopusPlacementPolicy(topology, NodeManager(topology))
    master = Master(topology, placement, sim)
    client = DFSClient(master)

    # 2. Attach the tiering framework (paper Fig 3) with a policy pair.
    manager = ReplicationManager(master, sim)
    configure_policies(manager, downgrade="lru", upgrade="osa")

    # 3. Write data: OctopusFS places one replica per tier while space
    #    lasts (memory + SSD + HDD).
    client.create("/data/first.bin", 512 * MB)
    print("fresh file tiers:", [t.name for t in client.file_tiers("/data/first.bin")])

    # 4. Keep writing until the memory tier passes its 90% threshold;
    #    the LRU policy proactively moves cold replicas down.
    for i in range(100):
        client.create(f"/data/bulk{i:03d}.bin", 512 * MB)
        sim.run(until=sim.now() + 30)
    sim.run(until=sim.now() + 600)

    memory = master.hierarchy.highest
    mem = master.tier_utilization(memory)
    moved = manager.monitor.bytes_downgraded[memory]
    print(f"memory utilization: {mem:.1%} (held between the 85%/90% thresholds)")
    print(f"downgraded from memory: {format_bytes(moved)}")
    print(
        "first file tiers now:",
        [t.name for t in client.file_tiers("/data/first.bin")],
    )

    # 5. Read the (now cold) first file: OSA pulls it back into memory.
    client.open("/data/first.bin")
    sim.run(until=sim.now() + 300)
    print(
        "after re-access:",
        [t.name for t in client.file_tiers("/data/first.bin")],
    )
    upgraded = manager.monitor.bytes_upgraded[memory]
    print(f"upgraded into memory: {format_bytes(upgraded)}")


if __name__ == "__main__":
    main()
