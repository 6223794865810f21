"""Extend the framework with a custom downgrade policy.

The paper's framework is explicitly pluggable (Sec 3.3): a policy
implements the four decision points plus the file-event callbacks.  This
example adds **GDS** — a Greedy-Dual-Size-flavoured policy that evicts
the file with the lowest (frequency / size) density, so large rarely-used
files leave memory first — and races it against LRU on the FB workload.

Run:  python examples/custom_policy.py
"""

from typing import Optional

from repro.cluster import TierSpec
from repro.core import ReplicationManager
from repro.core.policy import DowngradePolicy
from repro.core.registry import configure_policies
from repro.dfs.namespace import INodeFile
from repro.engine import SystemConfig, WorkloadRunner, completion_reduction
from repro.workload import FB_PROFILE, scaled_profile, synthesize_trace


class GreedyDualSizePolicy(DowngradePolicy):
    """Evict the file with the lowest access density (accesses per GB).

    Implements only decision point 2; the shared base class provides the
    proactive start/stop thresholds, and the monitor resolves the "how"
    through the multi-objective placement — exactly the plug-in surface
    the paper describes.
    """

    name = "gds"

    def select_file_to_downgrade(self, tier: TierSpec) -> Optional[INodeFile]:
        candidates = self.ctx.files_on_tier(tier)
        if not candidates:
            return None
        stats = self.ctx.stats

        def density(file: INodeFile) -> float:
            accesses = stats.get_or_create(file).total_accesses
            return (accesses + 1.0) / max(file.size, 1)

        return min(candidates, key=lambda f: (density(f), f.inode_id))


#: Memory scaled to the 0.25x workload so tiering pressure is preserved.
MEMORY_PER_NODE = 1 * 2**30


def run(label: str, trace, downgrade_policy=None, downgrade_name=None):
    config = SystemConfig(label=label, placement="octopus", upgrade="osa",
                          downgrade=downgrade_name,
                          memory_per_node=MEMORY_PER_NODE)
    runner = WorkloadRunner(trace, config)
    if downgrade_policy is not None:
        # Manual wiring for a policy class the registry doesn't know.
        if runner.manager is None:
            runner.manager = ReplicationManager(runner.master, runner.sim)
            configure_policies(runner.manager, upgrade="osa")
        runner.manager.set_downgrade_policy(downgrade_policy(runner.manager.ctx))
    return runner.run()


def main() -> None:
    trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.25), seed=42)
    baseline = run("HDFS-baseline", trace)
    # Replace placement with plain HDFS for the baseline comparison.
    from repro.engine import run_workload

    baseline = run_workload(trace, SystemConfig(label="HDFS", placement="hdfs"))
    lru = run("LRU", trace, downgrade_name="lru")
    gds = run("GDS", trace, downgrade_policy=GreedyDualSizePolicy)

    print(f"{'policy':<6} {'HR':>6} {'BHR':>6}  mean completion reduction")
    for label, result in (("LRU", lru), ("GDS", gds)):
        gains = completion_reduction(baseline.metrics, result.metrics)
        mean = sum(gains.values()) / len(gains)
        print(
            f"{label:<6} {result.metrics.hit_ratio():>6.2f} "
            f"{result.metrics.byte_hit_ratio():>6.2f}  {mean:5.1f}%"
        )


if __name__ == "__main__":
    main()
