"""End-to-end smoke tests for degenerate and deep tier hierarchies.

The paper's experiments all run on the 3-tier testbed; these tests run
the same workload pipeline over a 2-tier (mem-hdd) and a 4-tier (nvme4)
hierarchy with deliberately tight capacities, asserting that the
policy machinery — proactive downgrades, access-triggered upgrades,
tier-ordered placement — flows through *every* adjacent tier pair and
that the hit-ratio accounting stays sane.
"""

import dataclasses

import pytest

from repro.cluster.hardware import (
    TierHierarchy,
    _hdd_spec,
    _memory_spec,
    _nvme_spec,
    _ssd_spec,
    get_hierarchy,
    hierarchy_names,
    register_hierarchy,
)
from repro.common.units import GB
from repro.engine.runner import SystemConfig, run_workload
from repro.workload.profiles import PROFILES, scaled_profile
from repro.workload.synthesis import synthesize_trace


def _tight(spec, capacity, devices=1):
    return dataclasses.replace(
        spec, default_capacity=capacity, default_devices=devices
    )


def _ensure_smoke_presets():
    """Register tightly-provisioned variants so every tier saturates."""
    if "smoke-mem-hdd" not in hierarchy_names():
        register_hierarchy(
            "smoke-mem-hdd",
            lambda: TierHierarchy(
                "smoke-mem-hdd",
                [_tight(_memory_spec(), 1 * GB), _tight(_hdd_spec(), 400 * GB, 3)],
            ),
        )
    if "smoke-nvme4" not in hierarchy_names():
        register_hierarchy(
            "smoke-nvme4",
            lambda: TierHierarchy(
                "smoke-nvme4",
                [
                    _tight(_memory_spec(), 1 * GB),
                    _tight(_nvme_spec(), 2 * GB),
                    _tight(_ssd_spec(), 3 * GB),
                    _tight(_hdd_spec(), 400 * GB, 3),
                ],
            ),
        )


@pytest.fixture(scope="module")
def fb_trace():
    return synthesize_trace(scaled_profile(PROFILES["FB"], 0.3), seed=42)


def _run(trace, tiers):
    _ensure_smoke_presets()
    config = SystemConfig(
        label=tiers,
        placement="octopus",
        downgrade="lru",
        upgrade="osa",
        tiers=tiers,
        memory_per_node=1 * GB,
    )
    return run_workload(trace, config)


def _assert_flow_through_all_pairs(result, tiers):
    hierarchy = get_hierarchy(tiers)
    # Downgrades: every tier except the lowest sheds bytes downward, so
    # each adjacent (higher, lower) boundary is crossed at least once.
    for higher, _lower in hierarchy.adjacent_pairs():
        assert result.bytes_downgraded_by_tier[higher.name] > 0, (
            f"no downgrades left tier {higher.name}"
        )
    assert result.bytes_downgraded_by_tier[hierarchy.lowest.name] == 0
    # Upgrades: accessed files get pulled back into the highest tier.
    assert result.bytes_upgraded_by_tier[hierarchy.highest.name] > 0
    # Hit-ratio accounting stays sane under pressure.
    assert 0.0 < result.metrics.hit_ratio() < 1.0
    assert 0.0 < result.metrics.byte_hit_ratio() < 1.0
    assert 0.0 <= result.metrics.location_hit_ratio() <= 1.0


class TestTwoTierEndToEnd:
    def test_mem_hdd_flow(self, fb_trace):
        result = _run(fb_trace, "smoke-mem-hdd")
        assert result.jobs_finished == len(fb_trace.jobs)
        _assert_flow_through_all_pairs(result, "smoke-mem-hdd")

    def test_mem_hdd_movement_is_memory_bound(self, fb_trace):
        result = _run(fb_trace, "smoke-mem-hdd")
        # Only one boundary exists: everything that moved crossed it.
        assert set(result.bytes_downgraded_by_tier) == {"MEMORY", "HDD"}
        assert result.bytes_upgraded_by_tier["HDD"] == 0


class TestFourTierEndToEnd:
    def test_nvme4_flow(self, fb_trace):
        result = _run(fb_trace, "smoke-nvme4")
        assert result.jobs_finished == len(fb_trace.jobs)
        _assert_flow_through_all_pairs(result, "smoke-nvme4")

    def test_nvme4_downgrade_volume_decreases_down_the_stack(self, fb_trace):
        # The cascade attenuates: each lower tier only receives what the
        # one above shed, so the downgraded-out volume shrinks with depth.
        result = _run(fb_trace, "smoke-nvme4")
        volumes = [
            result.bytes_downgraded_by_tier[t.name]
            for t in get_hierarchy("smoke-nvme4")
        ]
        assert volumes == sorted(volumes, reverse=True)


class TestDeterminism:
    def test_same_seed_same_metrics(self, fb_trace):
        a = _run(fb_trace, "smoke-nvme4")
        b = _run(fb_trace, "smoke-nvme4")
        assert a.fingerprint() == b.fingerprint()
