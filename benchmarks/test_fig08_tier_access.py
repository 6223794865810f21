"""Fig 8: storage tier access distribution per bin."""

from repro.cluster.hardware import DEFAULT_HIERARCHY
from repro.experiments.endtoend import render_fig08

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


def test_fig08_tier_access(benchmark, endtoend_fb, endtoend_cmu):
    def regenerate():
        return render_fig08(endtoend_fb), render_fig08(endtoend_cmu)

    fb_table, cmu_table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(fb_table)
    print()
    print(cmu_table)
    for result in (endtoend_fb, endtoend_cmu):
        # HDFS serves everything from HDD; XGB shifts reads to memory.
        hdfs = result.runs["HDFS"].metrics.tier_access_distribution()
        xgb = result.runs["XGB"].metrics.tier_access_distribution()
        for bin_name in ("B", "D"):
            assert hdfs[bin_name][HDD] == 1.0
            assert xgb[bin_name][MEMORY] > 0.3
