"""Opt-in checks of the end-to-end benchmark harness (``pytest benchmarks/e2e``).

Not part of tier-1.  Everything runs at the harness's ``--smoke`` scale
except the anchor test, which replays the full-size first input of the
two LRU workloads and checks it against the committed engine baseline.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import probes  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _smoke(name: str) -> bench.Workload:
    return bench.WORKLOADS_BY_NAME[name].scaled(True)


def _specs(section: str) -> list:
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[section]]


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in bench.WORKLOADS]
    assert _specs("end_to_end") == list(bench.END_TO_END)
    assert _specs("per_layer") == bench.per_layer_specs()
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", [w.name for w in bench.WORKLOADS])
def test_every_metric_is_emitted_with_its_unit(name):
    workload = _smoke(name)
    runner = bench.Runner(workload, 42, bench._now() + 120.0)
    untraced = runner.run_pass()
    report = bench.summarize(workload, untraced, runner.run_pass(traced=True))
    assert report["correct"], bench.failed_checks({name: report})
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.contract_result(report, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    metrics = report["metrics"]
    assert metrics["trace.self_sum_error"] < 0.01
    assert metrics["trace.overhead"] > 0
    assert metrics["sim.loop.share"] > 0


def test_probes_restore_the_originals():
    import importlib

    def targets():
        found = {}
        for module_name, path, _, _ in probes.PROBES:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found[(owner, name)] = owner.__dict__[name]
        return found

    before = targets()
    recorder = probes.Recorder().install()
    try:
        for (owner, name), fn in before.items():
            assert owner.__dict__[name] is not fn
    finally:
        recorder.uninstall()
    assert targets() == before
    from repro.dfs import placement

    for cls in vars(placement).values():
        if isinstance(cls, type):
            for name in probes.PLACEMENT_METHODS:
                fn = cls.__dict__.get(name)
                assert fn is None or not hasattr(fn, "__wrapped__")


@pytest.mark.parametrize("name", ["fb-lru-snap", "fb-lru-fair"])
def test_fb_x3_matches_the_engine_baseline(name):
    """The harness's child reproduces the committed x3, 11-worker rows."""
    baseline = json.loads((bench.ROOT / "BENCH_engine.json").read_text())
    params = {**bench.WORKLOADS_BY_NAME[name].params, "scale": 3.0}
    row = next(
        r
        for r in baseline["runs"]
        if r["engine"] == "reference"
        and r["workers"] == params["workers"]
        and r["scale"] == params["scale"]
        and r["io_model"] == params["io_model"]
    )
    result = bench.run_trace_input(
        params, baseline["seed"], traced=False, deadline=bench._now() + 60.0
    )
    assert result["ok"], result["checks"]
    counters = result["counters"]
    assert round(counters["hit_ratio"], 6) == row["hit_ratio"]
    assert round(counters["task_hours"], 4) == row["task_hours"]
    assert counters["events"] == row["events_processed"]


def _truncated(payload: bytes) -> bytes:
    cut = payload.index(b"\n", len(payload) // 2) + 10
    return payload[:cut]


def _malformed(payload: bytes) -> bytes:
    lines = payload.splitlines(keepends=True)
    lines[len(lines) // 2] = b"{not json\n"
    return b"".join(lines)


@pytest.mark.parametrize("corrupt", [_truncated, _malformed])
def test_corrupt_stream_fails_cleanly(corrupt):
    workload = _smoke("pipe-served")
    deadline = bench._now() + 60.0
    rendered = bench.render_payload(workload.params, 42, deadline)
    rendered = {**rendered, "payload": corrupt(rendered["payload"])}
    start = time.monotonic()
    result = bench.run_served_input(workload.params, rendered, False, deadline)
    assert time.monotonic() - start < 60.0
    assert result["failed"] / result["attempted"] > 0
    checks = {name: ok for name, ok, _ in result["checks"]}
    assert checks["daemon exit code 0"]
    assert not checks["tenant finished"]
