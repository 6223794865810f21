"""Tests for the data-driven tier model (TierSpec / TierHierarchy)."""

import pytest

from repro.cluster import (
    DEFAULT_HIERARCHY,
    TierHierarchy,
    TierSpec,
    build_tiered_cluster,
    get_hierarchy,
    hierarchy_names,
    register_hierarchy,
)
from repro.cluster.hardware import HDD_MEDIA, MEMORY_MEDIA, MediaProfile
from repro.common.units import GB
from repro.ml.features import FeatureSpec, build_feature_vector, feature_names

MEMORY, SSD, HDD = DEFAULT_HIERARCHY.tiers


class TestTierSpec:
    def test_levels_follow_declaration_order(self):
        h = get_hierarchy("nvme4")
        assert [t.name for t in h] == ["MEMORY", "NVME", "SSD", "HDD"]
        assert [t.level for t in h] == [0, 1, 2, 3]

    def test_ordering_and_extremes(self):
        h = get_hierarchy("nvme4")
        assert h.tier("MEMORY") < h.tier("NVME") < h.tier("SSD") < h.tier("HDD")
        assert min(h) is h.highest
        assert max(h) is h.lowest
        assert h.highest.is_highest and not h.highest.is_lowest
        assert h.lowest.is_lowest and not h.lowest.is_highest

    def test_navigation(self):
        h = get_hierarchy("nvme4")
        nvme = h.tier("NVME")
        assert nvme.higher is h.tier("MEMORY")
        assert nvme.lower is h.tier("SSD")
        assert nvme.higher_tiers() == (h.tier("MEMORY"),)
        assert nvme.lower_tiers() == (h.tier("SSD"), h.tier("HDD"))
        assert h.highest.higher is None
        assert h.lowest.lower is None

    def test_unbound_spec_rejects_navigation(self):
        loose = TierSpec(name="X", media=HDD_MEDIA, default_capacity=GB)
        with pytest.raises(ValueError):
            loose.hierarchy

    def test_str_and_index(self):
        hdd = DEFAULT_HIERARCHY.tier("hdd")
        assert str(hdd) == "HDD"
        assert hdd.level == 2


class TestTierHierarchy:
    def test_lookup_is_case_insensitive(self):
        assert DEFAULT_HIERARCHY.tier("memory") is MEMORY

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_HIERARCHY.tier("TAPE")

    def test_contains_names_and_specs(self):
        assert "ssd" in DEFAULT_HIERARCHY
        assert SSD in DEFAULT_HIERARCHY
        assert "NVME" not in DEFAULT_HIERARCHY

    def test_adjacent_pairs(self):
        pairs = get_hierarchy("mem-hdd").adjacent_pairs()
        assert [(a.name, b.name) for a, b in pairs] == [("MEMORY", "HDD")]

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            TierHierarchy("empty", [])

    def test_duplicate_names_rejected(self):
        spec = TierSpec(name="X", media=HDD_MEDIA, default_capacity=GB)
        with pytest.raises(ValueError):
            TierHierarchy("dup", [spec, spec])

    def test_remote_tier_excluded_from_local(self):
        h = get_hierarchy("remote5")
        assert h.lowest.name == "REMOTE"
        assert h.lowest.remote
        assert h.lowest_local.name == "HDD"
        assert all(not t.remote for t in h.local_tiers)

    def test_presets_are_shared_singletons(self):
        assert get_hierarchy("default3") is get_hierarchy("default3")
        assert get_hierarchy("default3") is DEFAULT_HIERARCHY

    def test_registry_names_and_unknown(self):
        for name in ("default3", "mem-hdd", "nvme4", "remote5"):
            assert name in hierarchy_names()
        with pytest.raises(KeyError):
            get_hierarchy("no-such-hierarchy")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_hierarchy("default3", lambda: TierHierarchy("default3", []))

    def test_default3_cannot_be_replaced(self):
        # DEFAULT_HIERARCHY is bound to the default3 specs at import;
        # replacing the preset would orphan them.
        with pytest.raises(ValueError, match="cannot be replaced"):
            register_hierarchy(
                "default3",
                lambda: TierHierarchy("default3", []),
                replace=True,
            )

    def test_media_profiles_faster_up_the_stack(self):
        tiers = list(get_hierarchy("remote5"))
        for higher, lower in zip(tiers, tiers[1:]):
            assert higher.media.read_bw > lower.media.read_bw
            assert higher.media.seek_latency < lower.media.seek_latency
            assert higher.score > lower.score


class TestBuildTieredCluster:
    def test_default3_matches_local_cluster_shape(self):
        topo = build_tiered_cluster(3)
        node = topo.nodes[0]
        assert node.tier_capacity(MEMORY) == 4 * GB
        assert node.tier_capacity(SSD) == 64 * GB
        assert node.tier_capacity(HDD) == 400 * GB
        assert len(node.devices(HDD)) == 3
        assert topo.hierarchy is DEFAULT_HIERARCHY

    def test_capacity_overrides_by_name(self):
        topo = build_tiered_cluster(2, capacity_overrides={"memory": 8 * GB})
        assert topo.nodes[0].tier_capacity(MEMORY) == 8 * GB

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            build_tiered_cluster(2, capacity_overrides={"TAPE": GB})

    def test_four_tier_nodes(self):
        h = get_hierarchy("nvme4")
        topo = build_tiered_cluster(2, tiers="nvme4")
        node = topo.nodes[0]
        assert node.tiers() == list(h)
        assert node.tier_capacity(h.tier("NVME")) == 32 * GB

    def test_default_scores_derived_from_bandwidth(self):
        # Specs registered without explicit scores must not zero the
        # placement throughput term.
        h = TierHierarchy(
            "noscores",
            [
                TierSpec("A", MEMORY_MEDIA, GB),
                TierSpec("B", HDD_MEDIA, GB),
            ],
        )
        assert h.tier("A").score == pytest.approx(1.0)
        assert 0.0 < h.tier("B").score < h.tier("A").score

    def test_foreign_hierarchy_spec_raises(self):
        # A spec from a different hierarchy must raise, not silently
        # report an empty tier.
        topo = build_tiered_cluster(1, tiers="mem-hdd")
        foreign = get_hierarchy("nvme4").tier("SSD")
        with pytest.raises(KeyError):
            topo.nodes[0].tier_capacity(foreign)

    def test_mixed_hierarchy_nodes_rejected(self):
        topo = build_tiered_cluster(1, tiers="mem-hdd")
        from repro.cluster import Node, TierProvision

        other = get_hierarchy("nvme4")
        stranger = Node(
            "worker999",
            "rack0",
            [TierProvision(other.tier("HDD"), GB)],
        )
        with pytest.raises(ValueError):
            topo.add_node(stranger)


class TestTierFeature:
    def test_default_spec_unchanged(self):
        spec = FeatureSpec()
        assert not spec.include_tier
        assert "tier_level" not in feature_names(spec)

    def test_for_hierarchy_sizes_the_feature(self):
        spec = FeatureSpec.for_hierarchy(get_hierarchy("remote5"))
        assert spec.include_tier
        assert spec.num_tiers == 5
        assert spec.num_features == FeatureSpec().num_features + 1
        assert "tier_level" in feature_names(spec)

    def test_tier_level_normalized(self):
        spec = FeatureSpec.for_hierarchy(get_hierarchy("nvme4"))
        names = feature_names(spec)
        idx = names.index("tier_level")
        vec = build_feature_vector(spec, GB, 0.0, [10.0], 20.0, tier_level=3)
        assert vec[idx] == pytest.approx(1.0)
        vec = build_feature_vector(spec, GB, 0.0, [10.0], 20.0, tier_level=0)
        assert vec[idx] == pytest.approx(0.0)

    def test_missing_tier_is_nan(self):
        import numpy as np

        spec = FeatureSpec.for_hierarchy(get_hierarchy("nvme4"))
        idx = feature_names(spec).index("tier_level")
        vec = build_feature_vector(spec, GB, 0.0, [], 20.0)
        assert np.isnan(vec[idx])

    def test_vector_alignment_with_names(self):
        spec = FeatureSpec.for_hierarchy(get_hierarchy("mem-hdd"))
        vec = build_feature_vector(spec, GB, 0.0, [5.0, 10.0], 20.0, tier_level=1)
        assert len(vec) == len(feature_names(spec)) == spec.num_features

    def test_for_hierarchy_accepts_field_overrides(self):
        # Regression: overriding a field for_hierarchy also sets must not
        # raise "got multiple values".
        spec = FeatureSpec.for_hierarchy(get_hierarchy("nvme4"), num_tiers=7, k=6)
        assert spec.num_tiers == 7
        assert spec.k == 6
        assert spec.include_tier

    def test_tier_level_at_is_reference_consistent(self):
        # Training features must use the tier recorded at or before the
        # reference time, never the current tier (which the upgrade
        # policy's reaction to in-window accesses already influenced).
        from repro.core.stats import FileStatistics
        from repro.dfs.namespace import INodeFile

        file = INodeFile(inode_id=1, name="f", creation_time=0.0, size=GB)
        stats = FileStatistics(file, k=4)
        stats.record_access(10.0, tier_level=2)  # on HDD at t=10
        stats.record_access(50.0, tier_level=0)  # upgraded by t=50
        assert stats.tier_level_at(5.0) is None  # no access yet
        assert stats.tier_level_at(10.0) == 2
        assert stats.tier_level_at(49.9) == 2  # upgrade not visible yet
        assert stats.tier_level_at(50.0) == 0

    def test_tier_feature_is_fed_end_to_end(self):
        # Regression: with features.include_tier the tier column must
        # carry real values (not all-NaN) in the generated training data.
        import numpy as np

        from repro.engine.runner import SystemConfig, WorkloadRunner
        from repro.workload.profiles import PROFILES, scaled_profile
        from repro.workload.synthesis import synthesize_trace

        trace = synthesize_trace(scaled_profile(PROFILES["FB"], 0.1), seed=42)
        config = SystemConfig(
            label="tier-feature",
            placement="octopus",
            downgrade="xgb",
            upgrade="xgb",
            conf={"features.include_tier": True},
        )
        runner = WorkloadRunner(trace, config)
        runner.run()
        trainer = runner.manager.trainer
        for model in (trainer.upgrade_model, trainer.downgrade_model):
            assert model.spec.include_tier
            idx = feature_names(model.spec).index("tier_level")
            X, _, _ = model.dataset()
            tier_col = X[:, idx]
            finite = tier_col[~np.isnan(tier_col)]
            assert finite.size > 0, "tier feature never fed"
            assert ((finite >= 0.0) & (finite <= 1.0)).all()


class TestMediaProfile:
    def test_profiles_standalone(self):
        profile = MediaProfile(read_bw=100.0, write_bw=50.0, seek_latency=0.5)
        assert profile.read_time(100) == pytest.approx(1.5)
        assert profile.write_time(100) == pytest.approx(2.5)
        assert MEMORY_MEDIA.read_bw > HDD_MEDIA.read_bw
