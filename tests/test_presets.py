"""Tests for scenario-aware policy presets and their SystemConfig wiring."""

import pytest

from repro.core.presets import (
    PRESETS,
    PolicyPreset,
    get_preset,
    preset_for_scenario,
    preset_names,
    register_preset,
)
from repro.engine.runner import SystemConfig
from repro.experiments.preset_tuning import run_preset_tuning
from repro.workload.scenarios import scenario_names


class TestRegistry:
    def test_every_scenario_has_a_preset(self):
        assert set(preset_names()) == set(scenario_names())

    def test_get_preset_known(self):
        preset = get_preset("flashcrowd")
        assert isinstance(preset, PolicyPreset)
        assert preset.conf["downgrade.start_threshold"] < 0.90

    def test_get_preset_unknown(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("nope")

    def test_preset_for_scenario(self):
        assert preset_for_scenario("mlscan") is PRESETS["mlscan"]
        assert preset_for_scenario(None) is None
        assert preset_for_scenario("not-registered") is None

    def test_thresholds_are_valid_pairs(self):
        # Policy construction enforces 0 < stop <= start <= 1; presets
        # must never ship values that blow up at configure time.
        for preset in PRESETS.values():
            start = preset.conf.get("downgrade.start_threshold")
            stop = preset.conf.get("downgrade.stop_threshold")
            if start is not None or stop is not None:
                assert 0 < stop <= start <= 1.0, preset.name

    def test_register_round_trip(self):
        try:
            register_preset("tmp-test", "temporary", **{"stats.k": 4})
            assert get_preset("tmp-test").conf == {"stats.k": 4}
        finally:
            PRESETS.pop("tmp-test", None)


class TestSystemConfigWiring:
    def test_no_scenario_resolves_no_preset(self):
        # Every pre-preset configuration: auto + no scenario = no-op.
        config = SystemConfig(label="x")
        assert config.resolve_preset() is None
        assert config.effective_conf() == {}

    def test_auto_selects_scenario_preset(self):
        config = SystemConfig(label="x", scenario="flashcrowd")
        assert config.resolve_preset() is PRESETS["flashcrowd"]
        conf = config.effective_conf()
        assert conf["downgrade.start_threshold"] == 0.80

    def test_explicit_preset_overrides_scenario(self):
        config = SystemConfig(label="x", scenario="flashcrowd", preset="mlscan")
        assert config.resolve_preset() is PRESETS["mlscan"]

    def test_none_disables(self):
        for off in (None, "none"):
            config = SystemConfig(label="x", scenario="flashcrowd", preset=off)
            assert config.resolve_preset() is None
            assert config.effective_conf() == {}

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            SystemConfig(label="x", preset="nope").effective_conf()

    def test_explicit_conf_wins_over_preset(self):
        config = SystemConfig(
            label="x",
            scenario="flashcrowd",
            conf={"downgrade.start_threshold": 0.99},
        )
        conf = config.effective_conf()
        assert conf["downgrade.start_threshold"] == 0.99
        # Untouched preset keys still apply.
        assert conf["downgrade.stop_threshold"] == 0.70

    def test_cache_mode_keys_still_folded_in(self):
        config = SystemConfig(label="x", scenario="fb", cache_mode=True)
        conf = config.effective_conf()
        assert conf["manager.cache_mode"] is True
        assert conf["downgrade.action"] == "delete"


class TestPresetEffect:
    def test_preset_changes_figures_for_flashcrowd(self):
        # The acceptance-level property: presets measurably move at
        # least one scenario's figure-level metric on identical streams.
        deltas = run_preset_tuning(
            scale=0.5, workers=5, scenarios=["flashcrowd"]
        )
        assert len(deltas) == 1
        d = deltas[0]
        moved = (
            d.hit_delta != 0.0
            or d.task_hours_delta != 0.0
            or d.preset.transfers_committed != d.default.transfers_committed
        )
        assert moved, "flashcrowd preset left every figure-level metric unchanged"

    def test_sweep_covers_all_presets(self):
        # Registry-level sanity without running the heavy sweep.
        assert sorted(PRESETS) == preset_names()
