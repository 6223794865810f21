"""The observability layer's two determinism contracts.

1. **Zero observer effect**: enabling ``obs.trace`` must leave every
   simulated metric of a run bit-identical — tracing only appends to a
   Python list, schedules no simulator events, and consumes no RNG.
   Checked across both engines and both I/O pricing models.
2. **Byte determinism**: the same seed must produce the byte-identical
   JSONL trace, run after run (the canonical encoding sorts keys and
   strips whitespace, and records carry only simulated time + seq).

Timeseries sampling (``obs.sample_interval``) is read-only for the
*workload* but does schedule simulator events, so its contract is
weaker: workload metrics identical, simulator perf counters exempt.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.runner import SystemConfig, WorkloadRunner
from repro.obs.export import trace_line
from repro.workload.scenarios import build_scenario


def _run(io_model="snapshot", engine="reference", seed=17, conf=None, scale=0.05):
    stream = build_scenario("fb", seed=seed, scale=scale)
    config = SystemConfig(
        label="obs-determinism",
        placement="octopus",
        downgrade="lru",
        upgrade="osa",
        io_model=io_model,
        seed=seed,
        engine_mode=engine,
        conf=dict(conf or {}),
    )
    runner = WorkloadRunner(stream, config)
    result = runner.run()
    return runner, result


class TestTraceObserverEffect:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("io_model", ["snapshot", "fairshare"])
    def test_trace_on_changes_no_metric(self, engine, io_model):
        plain_runner, plain = _run(io_model=io_model, engine=engine)
        traced_runner, traced = _run(
            io_model=io_model, engine=engine, conf={"obs.trace": True}
        )
        assert traced.fingerprint() == plain.fingerprint()
        assert plain_runner.tracer is None
        assert traced_runner.tracer is not None
        assert traced_runner.tracer.records

    def test_timeseries_changes_no_workload_metric(self):
        plain_runner, plain = _run()
        sampled_runner, sampled = _run(conf={"obs.sample_interval": 600.0})
        # Sampling schedules its own timer events, so only ``sim`` may move.
        expected, actual = plain.fingerprint(), sampled.fingerprint()
        del expected["sim"], actual["sim"]
        assert actual == expected
        assert sampled_runner.timeseries is not None
        assert sampled_runner.timeseries.samples >= 2


class TestTraceByteDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_same_seed_same_bytes(self, seed):
        runs = [
            _run(seed=seed, conf={"obs.trace": True})[0] for _ in range(2)
        ]
        payloads = [
            "\n".join(trace_line(r) for r in runner.tracer.records)
            for runner in runs
        ]
        assert payloads[0].encode() == payloads[1].encode()

    def test_engines_agree_on_trace_bytes(self):
        # The fast engine changes event storage but not decision order,
        # so the decision trace must match too.
        reference = _run(engine="reference", conf={"obs.trace": True})[0]
        fast = _run(engine="fast", conf={"obs.trace": True})[0]
        assert [trace_line(r) for r in reference.tracer.records] == [
            trace_line(r) for r in fast.tracer.records
        ]

    def test_trace_unaffected_by_timeseries(self):
        traced = _run(conf={"obs.trace": True})[0]
        both = _run(
            conf={"obs.trace": True, "obs.sample_interval": 600.0}
        )[0]
        assert [trace_line(r) for r in traced.tracer.records] == [
            trace_line(r) for r in both.tracer.records
        ]
