"""Fast engine mode must reproduce the reference results exactly.

The fast engine (``SystemConfig(engine_mode="fast")``) changes only how
events are stored, which may not alter a single simulated metric.  These
tests run every registered scenario under both engines and both I/O
models and require identical outcomes, plus targeted checks for the
engine selection and the simulator-core equivalence under randomized
schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.sim.fastsim import FastSimulator
from repro.sim.simulator import Simulator
from repro.workload.scenarios import build_scenario, scenario_names

#: Tiny builds: classic traces (fb/cmu) scale by job count, the
#: generator scenarios by duration.
_SCALE = {"fb": 0.05, "cmu": 0.05}
_DEFAULT_SCALE = 0.1


def _run(scenario: str, io_model: str, engine: str):
    """One tiny scenario run under ``engine``."""
    stream = build_scenario(
        scenario, seed=17, scale=_SCALE.get(scenario, _DEFAULT_SCALE)
    )
    config = SystemConfig(
        label=f"{scenario}/{io_model}/{engine}",
        placement="octopus",
        downgrade="lru",
        upgrade="osa",
        io_model=io_model,
        seed=17,
        engine_mode=engine,
    )
    return WorkloadRunner(stream, config).run()


class TestScenarioEquivalence:
    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    @pytest.mark.parametrize("io_model", ["snapshot", "fairshare"])
    def test_fast_matches_reference(self, scenario, io_model):
        reference = _run(scenario, io_model, "reference")
        fast = _run(scenario, io_model, "fast")
        assert fast.fingerprint() == reference.fingerprint()

    def test_fast_uses_fast_simulator(self):
        stream = build_scenario("fb", seed=1, scale=0.05)
        fast = WorkloadRunner(stream, SystemConfig(engine_mode="fast"))
        assert isinstance(fast.sim, FastSimulator)
        reference = WorkloadRunner(
            build_scenario("fb", seed=1, scale=0.05), SystemConfig()
        )
        assert not isinstance(reference.sim, FastSimulator)


class TestConfRouting:
    def test_fast_mode_defaults(self):
        # engine_mode alone selects the simulator (see
        # test_fast_uses_fast_simulator); fast mode adds no conf keys.
        assert SystemConfig(engine_mode="fast").effective_conf() == {}

    def test_reference_mode_sets_no_fast_keys(self):
        conf = SystemConfig().effective_conf()
        assert conf == {}
        assert "manager.coarse_ticks" not in conf

    def test_unknown_engine_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown engine_mode"):
            SystemConfig(engine_mode="turbo").effective_conf()


class TestSimulatorCoreEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.sampled_from([-1, 0, 1]),
                st.booleans(),  # cancel this event before running?
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_random_schedules_fire_identically(self, schedule):
        logs = {}
        for cls in (Simulator, FastSimulator):
            sim = cls()
            log = logs.setdefault(cls.__name__, [])
            handles = []
            for i, (t, prio, _cancel) in enumerate(schedule):
                handles.append(
                    sim.at(t, lambda i=i: log.append((i, sim.now())), priority=prio)
                )
            for handle, (_t, _prio, cancel) in zip(handles, schedule):
                if cancel:
                    handle.cancel()
            sim.run()
            log.append(
                ("counters", sim.events_processed, sim.events_cancelled, sim.now())
            )
        assert logs["Simulator"] == logs["FastSimulator"]
