"""End-to-end benchmark: four workloads, end-to-end and per-layer metrics.

Every simulation runs in a fresh child process (``child.py``), one
process at a time.  A workload's inputs are a seeded sequence: input
``i`` of seed ``s`` is synthesized from seed ``s + 1000 i``.  See
``README.md`` for the workload and metric glossary.

Two ways to run it, both from the repository root::

    # one workload for a fixed time (the BENCHMARK.json contract)
    python3 benchmarks/e2e/bench.py --workload fb-lru-snap --seed 1 \\
        --seconds 25 --trace 0

    # the full set: interleaved untraced passes over each workload's
    # first inputs, then one traced pass each; a table and a JSON report
    python3 benchmarks/e2e/bench.py --seed 42 --out results.json

The first form simulates the seed's inputs in order until ``--seconds``
have passed (``--trace 1`` then replays the workload's first inputs with
the layer probes on) and prints one JSON object as its last stdout line:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
``--smoke`` shrinks every input for a quick harness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from probes import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: A driver run must end within 180 s: no child outlives this deadline.
RUN_DEADLINE_S = 170.0

#: Control-plane poll period, and the latency above which a control
#: request counts as failed.
POLL_S = 0.05
CTL_LIMIT_S = 1.0

#: Input ``i`` of seed ``s`` uses seed ``s + 1000 i`` for both the trace
#: and the system, so input 0 is the seed itself.
INPUT_SEED_STRIDE = 1000

#: Seconds one calibration sample (``child.calibrate``) takes on the
#: reference host, an otherwise idle 2-core x86_64 VM with CPython 3.11.
#: Host times are scaled by ``CALIBRATION_REF_S / calibration`` so that a
#: spell in which the shared host runs slow does not read as a slower
#: program.
CALIBRATION_REF_S = 0.015


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a system configuration and its inputs."""

    name: str
    why: str
    #: ``trace``: in-process replay of a synthesized FB-profile trace;
    #: ``served``: a scenario streamed into a ``repro serve`` daemon.
    kind: str
    #: Inputs in one pass of the full set and in a traced pass.
    inputs: int
    #: Untraced passes in a full set.
    repeats: int
    params: dict
    smoke: dict = field(default_factory=dict)

    def scaled(self, smoke: bool) -> "Workload":
        """This workload, shrunk to its smoke inputs when ``smoke``."""
        if not smoke:
            return self
        params = {**self.params, **self.smoke}
        return Workload(self.name, self.why, self.kind, 1, 2, params)

    def input_seed(self, seed: int, index: int) -> int:
        return seed + INPUT_SEED_STRIDE * index


_LRU = {"downgrade": "lru", "upgrade": "osa", "workers": 11}

WORKLOADS = (
    Workload(
        name="fb-lru-snap",
        why=(
            "LRU+OSA tiering of FB traces under snapshot pricing: time spreads "
            "over sim, scheduler, dfs and core; no solver, no ML"
        ),
        kind="trace",
        inputs=8,
        repeats=5,
        params={"scale": 1.0, "hours": None, "io_model": "snapshot", **_LRU},
        smoke={"scale": 0.3},
    ),
    Workload(
        name="fb-lru-fair",
        why=(
            "the same traces under fairshare pricing: max-min re-solves on "
            "every flow start and finish make engine.flows the top layer"
        ),
        kind="trace",
        inputs=6,
        repeats=5,
        params={"scale": 0.5, "hours": None, "io_model": "fairshare", **_LRU},
        smoke={"scale": 0.2},
    ),
    Workload(
        name="fb-xgb",
        why=(
            "the paper's XGB downgrade and upgrade policies on short FB "
            "traces: the only workload where incremental tree training runs"
        ),
        kind="trace",
        inputs=6,
        repeats=3,
        params={
            "scale": 0.5,
            "hours": 1.25,
            "io_model": "snapshot",
            "downgrade": "xgb",
            "upgrade": "xgb",
            "workers": 11,
        },
        smoke={"scale": 0.2, "hours": 0.75},
    ),
    Workload(
        name="pipe-served",
        why=(
            "a create/read/delete pipeline streamed over TCP into repro "
            "serve: JSONL decode, tenant mux, threads and the control plane"
        ),
        kind="served",
        inputs=4,
        repeats=3,
        params={"scenario": "pipeline", "scale": 4.0, **_LRU},
        smoke={"scale": 1.0},
    ),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

#: End-to-end metrics: name, unit, which direction is better.  Bounds
#: live in BENCHMARK.json.
END_TO_END = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers that run inside ``run()``, reported as ``<layer>.calls`` and
#: ``<layer>.share``: self time as a share of the traced ``run()`` wall
#: time.  A share, not seconds, because a layer a workload never enters
#: reads 0 on every run, and a time that never changes cannot be told
#: from a constant; the seconds are in the full-set report.  The two
#: set-up layers are reported as ``workload.gen_s`` and ``engine.build_s``.
RUN_LAYERS = tuple(x for x in LAYERS if x not in ("workload.gen", "engine.build"))

#: Per-layer metrics beside the calls/share pairs: name, unit, better.
LAYER_SCALARS = (
    ("sim.events", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.heap_peak", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("workload.gen_s", "s", "lower"),
    ("engine.build_s", "s", "lower"),
    ("engine.flows.recomputes", "count", "lower"),
    ("engine.flows.max_component", "count", "lower"),
    ("engine.flows.vector_solves", "count", "lower"),
    ("engine.iomodel.queue_delay_s", "sim_s", "lower"),
    ("engine.task_hours", "h", "lower"),
    ("core.hit_ratio", "fraction", "higher"),
    ("core.transfers_committed", "count", "lower"),
    ("core.transfer_submits", "count", "lower"),
    ("core.transfer_yield", "ratio", "higher"),
    ("ml.points", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.self_sum_error", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_specs() -> list:
    """Every declared per-layer metric as ``(name, unit, better)``."""
    specs = []
    for layer in RUN_LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.share", "fraction", "lower"))
    return specs + list(LAYER_SCALARS)


# -- child processes ---------------------------------------------------------
def _now() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


def _child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _spawn(args: list, deadline: float):
    """Start a child with its stdout piped; kill it at ``deadline``."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], stdout=subprocess.PIPE, env=_child_env()
    )
    watchdog = threading.Timer(max(0.0, deadline - _now()), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    return proc, watchdog


def _stop(proc: subprocess.Popen, watchdog: threading.Timer) -> None:
    """Cancel the watchdog; kill and reap ``proc`` if it is still running."""
    watchdog.cancel()
    watchdog.join()
    if proc.returncode is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _reap(proc: subprocess.Popen):
    """Wait for ``proc`` with ``os.wait4``: ``(exit code, peak RSS MB)``."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _result_line(text: str):
    """The child's ``RESULT`` payload, or None when it never printed one."""
    for line in reversed(text.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT ") :])
    return None


def _speeds(counters: dict) -> tuple:
    """Host speed, relative to the reference, just before the measured
    phase (for set-up) and averaged around it (for the run)."""
    before, after = (c["sample_s"] for c in counters["calibration"])
    return CALIBRATION_REF_S / before, 2.0 * CALIBRATION_REF_S / (before + after)


def _failed_input(expected_jobs: int, error: str) -> dict:
    return {
        "ok": False,
        "jobs_finished": 0,
        "attempted": expected_jobs,
        "failed": expected_jobs,
        "checks": [("child completed", False, error)],
    }


def _measured(counters: dict, expected: int, run_s: float, setup_s: float, rss_mb):
    """The result of one simulated input that ran to completion."""
    setup_speed, speed = _speeds(counters)
    return {
        "ok": True,
        "counters": counters,
        "jobs_finished": counters["jobs_finished"],
        "attempted": expected,
        "failed": max(0, expected - counters["jobs_finished"]),
        "speed": speed,
        "raw_run_s": run_s,
        "run_s": run_s * speed,
        "raw_setup_s": setup_s,
        "setup_s": setup_s * setup_speed,
        "rss_mb": rss_mb,
        "checks": [
            (
                "jobs finished == submitted",
                counters["jobs_finished"] == counters["jobs_submitted"],
                f"{counters['jobs_finished']} / {counters['jobs_submitted']}",
            ),
            ("no live events pending", counters["pending"] == 0, counters["pending"]),
        ],
    }


def fingerprint(counters: dict) -> tuple:
    """The simulated outcome that must repeat exactly for a given input."""
    return (
        counters["hit_ratio"],
        counters["byte_hit_ratio"],
        counters["task_hours"],
        counters["transfers_committed"],
        counters["events"],
    )


def run_trace_input(params: dict, seed: int, traced: bool, deadline: float):
    """Simulate one synthesized trace in a fresh child process."""
    keys = ("scale", "hours", "io_model", "downgrade", "upgrade", "workers")
    spec = {key: params[key] for key in keys}
    spec.update(seed=seed, traced=traced)
    expected = max(1, round(1000 * params["scale"]))
    spawn = _now()
    proc, watchdog = _spawn(["run", json.dumps(spec)], deadline)
    try:
        out = proc.stdout.read().decode()
        code, rss_mb = _reap(proc)
    finally:
        _stop(proc, watchdog)
    counters = _result_line(out)
    if code != 0 or counters is None:
        return _failed_input(expected, f"child exited {code}")
    run_s = (counters["end_ns"] - counters["start_ns"]) / 1e9
    setup_s = counters["start_ns"] / 1e9 - spawn
    setup_s -= counters["calibration"][0]["took_s"]
    return _measured(counters, expected, run_s, setup_s, rss_mb)


# -- the served workload -----------------------------------------------------
def render_payload(params: dict, seed: int, deadline: float) -> dict:
    """Render the served workload's scenario to JSONL.

    Outside the end-to-end metrics; its wall time is the served
    workload's ``workload.gen_s``.
    """
    command = ["scenario", "run", params["scenario"], "--scale", repr(params["scale"])]
    start = _now()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *command, "--seed", str(seed), "--out", "-"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_child_env(),
        timeout=max(1.0, deadline - _now()),
        check=True,
    )
    gen_s = _now() - start
    kinds = {}
    for line in proc.stdout.splitlines():
        kind = json.loads(line)["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "payload": proc.stdout,
        "gen_s": gen_s,
        "jobs": kinds.get("job", 0),
        "events": sum(kinds.get(k, 0) for k in ("create", "job", "delete")),
    }


def _control(port: int, method: str, path: str, body=None):
    """One control-plane request: ``(ok, seconds, decoded JSON or None)``."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method=method,
        headers={"Content-Type": "application/json"},
    )
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            status, data = response.status, response.read()
    except OSError:
        return False, time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    return 200 <= status < 300 and seconds <= CTL_LIMIT_S, seconds, json.loads(data)


def _send(sock: socket.socket, payload: bytes, errors: list) -> None:
    try:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
    except OSError as exc:
        errors.append(f"{type(exc).__name__}: {exc}")


def _parse_ports(line: str):
    """Data and control ports from the daemon's ``serving ...`` line."""
    fields = dict(part.split("=", 1) for part in line.split()[1:])
    data = int(fields["data"].rsplit(":", 1)[1])
    control = int(fields["control"].rsplit(":", 1)[1])
    return data, control


def _terminal_state(counts: dict):
    """The tenant's end state once it has one, else None."""
    if not counts.get("total") or counts.get("pending") or counts.get("streaming"):
        return None
    return next(s for s in ("finished", "failed", "closed") if counts.get(s))


def run_served_input(params: dict, rendered: dict, traced: bool, deadline: float):
    """Stream one rendered payload into a fresh ``repro serve`` daemon.

    One sender thread writes the JSONL over one TCP connection while the
    main thread polls ``GET /metrics`` (closed loop, one request at a
    time, every ``POLL_S``) until the tenant reaches a terminal state,
    then drains the daemon with ``POST /shutdown``.  The daemon binds
    ephemeral ports, is killed in ``finally`` whatever happens, and every
    wait is bounded by ``deadline``.
    """
    expected = rendered["jobs"]
    serve_args = ["--downgrade", params["downgrade"], "--upgrade", params["upgrade"]]
    serve_args += ["--workers", str(params["workers"])]
    spec = json.dumps({"traced": traced})
    spawn = _now()
    proc, watchdog = _spawn(["serve", spec, "--", *serve_args], deadline)
    sock = sender = None
    send_errors = []
    latencies = []
    ctl_failed = 0
    state = None
    try:
        line = proc.stdout.readline().decode()
        ready = _now()
        if not line.startswith("serving "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        data_port, control_port = _parse_ports(line)
        sock = socket.create_connection(("127.0.0.1", data_port), timeout=10.0)
        sock.settimeout(max(1.0, deadline - _now()))
        first_byte = _now()
        sender = threading.Thread(
            target=_send, args=(sock, rendered["payload"], send_errors)
        )
        sender.start()
        while state is None:
            if _now() > deadline:
                raise TimeoutError("tenant did not finish before the deadline")
            ok, seconds, body = _control(control_port, "GET", "/metrics")
            latencies.append(seconds)
            ctl_failed += not ok
            state = _terminal_state((body or {}).get("tenants", {}))
            if state is None:
                time.sleep(POLL_S)
        ingest_lag = _now() - first_byte
        ok, seconds, _ = _control(control_port, "POST", "/shutdown", {"mode": "drain"})
        latencies.append(seconds)
        ctl_failed += not ok
        out = proc.stdout.read().decode()
        code, rss_mb = _reap(proc)
    except (OSError, RuntimeError, ValueError) as exc:
        return _failed_input(expected, f"{type(exc).__name__}: {exc}")
    finally:
        _stop(proc, watchdog)
        if sock is not None:
            # shutdown() wakes a sender still blocked in sendall().
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if sender is not None:
            sender.join()
    counters = _result_line(out)
    if code != 0 or counters is None:
        return _failed_input(expected, f"daemon exited {code}")
    run_s = counters["end_ns"] / 1e9 - first_byte
    setup_s = ready - spawn - counters["calibration"][0]["took_s"]
    result = _measured(counters, expected, run_s, setup_s, rss_mb)
    received = (counters["live_stats"] or {}).get("events_received")
    result["checks"] += [
        ("daemon exit code 0", code == 0, code),
        ("tenant finished", state == "finished", state),
        (
            "events received == lines sent",
            received == rendered["events"],
            f"{received} / {rendered['events']}",
        ),
        ("jobs submitted == jobs sent", counters["jobs_submitted"] == expected, ""),
        ("control requests ok", ctl_failed == 0, f"{ctl_failed} failed"),
        ("sender ok", not send_errors, "; ".join(send_errors)),
    ]
    result["attempted"] += len(latencies)
    result["failed"] += ctl_failed
    result["ctl_latencies"] = latencies
    result["ingest_lag_s"] = ingest_lag * result["speed"]
    result["gen_s"] = rendered["gen_s"]
    return result


# -- runs --------------------------------------------------------------------
class Runner:
    """Simulates the inputs of one workload, one child at a time."""

    def __init__(self, workload: Workload, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self._rendered = {}

    def run_input(self, index: int, traced: bool = False) -> dict:
        """Simulate input ``index``; its measurements and checks."""
        params = self.workload.params
        seed = self.workload.input_seed(self.seed, index)
        if self.workload.kind == "served":
            if seed not in self._rendered:
                self._rendered[seed] = render_payload(params, seed, self.deadline)
            rendered = self._rendered[seed]
            result = run_served_input(params, rendered, traced, self.deadline)
        else:
            result = run_trace_input(params, seed, traced, self.deadline)
        result.update(index=index, traced=traced)
        return result

    def run_pass(self, traced: bool = False, number: int = 0) -> list:
        """The workload's first ``inputs`` inputs, once each, as pass
        ``number``."""
        results = [self.run_input(i, traced) for i in range(self.workload.inputs)]
        for result in results:
            result["pass"] = number
        return results

    def run_for(self, seconds: float, budget_end: float) -> list:
        """Inputs 0, 1, 2, ... until ``seconds`` have passed (at least one)."""
        results = []
        start = _now()
        while True:
            begin = _now()
            results.append(self.run_input(len(results)))
            now = _now()
            if not results[-1]["ok"] or now - start >= seconds:
                return results
            if now + (now - begin) > budget_end:
                return results


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def end_to_end_samples(results: list) -> dict:
    """One sample per pass for every end-to-end metric: the median over
    the pass's inputs.  The passes of a full set replay the same inputs,
    so their samples differ by noise alone, not by input."""
    passes = {}
    for result in results:
        if result["ok"]:
            passes.setdefault(result.get("pass", 0), []).append(result)
    samples = {name: [] for name, _, _ in END_TO_END}
    for group in passes.values():
        samples["jobs_per_s"].append(
            _median([r["jobs_finished"] / r["run_s"] for r in group])
        )
        samples["setup_s"].append(_median([r["setup_s"] for r in group]))
        samples["peak_rss_mb"].append(_median([r["rss_mb"] for r in group]))
    return samples


def correctness(results: list) -> list:
    """Every input's own checks, plus: each input repeats exactly."""
    checks = []
    by_index = {}
    for result in results:
        label = f"input {result['index']}" + (" traced" if result["traced"] else "")
        for name, ok, detail in result["checks"]:
            checks.append((f"{label}: {name}", ok, detail))
        if result["ok"]:
            prints = by_index.setdefault(result["index"], set())
            prints.add(fingerprint(result["counters"]))
    for index, prints in sorted(by_index.items()):
        checks.append((f"input {index}: identical on every run", len(prints) == 1, ""))
    return checks


def exact_metrics(results: list) -> dict:
    """Hit ratio and task hours averaged over distinct inputs; failures."""
    first = {}
    for result in results:
        if result["ok"]:
            first.setdefault(result["index"], result["counters"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "hit_ratio": _mean(c["hit_ratio"] for c in first.values()),
        "task_hours": _mean(c["task_hours"] for c in first.values()),
        "failed_frac": failed / attempted if attempted else 1.0,
    }


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics of the traced inputs, pooled.

    ``metrics`` holds every declared per-layer metric plus the served-only
    scalars; ``layers`` the pooled calls and seconds of every layer;
    ``edges`` the ``caller -> callee`` table.
    """
    counters = [r["counters"] for r in traced]
    layers = {}
    edges = {}
    tree_self = tree_total = 0.0
    for counter in counters:
        probes = counter["probes"]
        for layer, values in probes["layers"].items():
            acc = layers.setdefault(layer, dict.fromkeys(values, 0))
            for key, value in values.items():
                acc[key] += value
        for edge in probes["edges"]:
            acc = edges.setdefault((edge["caller"], edge["callee"]), [0, 0.0])
            acc[0] += edge["calls"]
            acc[1] += edge["seconds"]
        tree_self += probes["tree_self"].get("sim.loop", 0.0)
        tree_total += probes["tree_total"].get("sim.loop", 0.0)
    base = {r["index"]: r for r in untraced if r["ok"]}
    matched = [r for r in traced if r["index"] in base]
    submits = sum(
        edges.get((caller, "core.monitor"), [0])[0]
        for caller in ("core.downgrade", "core.upgrade")
    )
    committed = sum(c["transfers_committed"] for c in counters)
    # Served inputs are rendered by the harness, not synthesized in-child.
    gen_s = layers["workload.gen"]["total_s"] + sum(r.get("gen_s", 0) for r in traced)
    latencies = [1000.0 * s for r in untraced for s in r.get("ctl_latencies", ())]
    metrics = {}
    for layer in RUN_LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        share = layers[layer]["self_s"] / tree_total if tree_total else 0.0
        metrics[f"{layer}.share"] = share
    metrics.update(
        {
            "sim.events": sum(c["events"] for c in counters),
            "sim.events_cancelled": sum(c["events_cancelled"] for c in counters),
            "sim.heap_peak": max(c["heap_peak"] for c in counters),
            "sim.events_per_s": _median(
                [r["counters"]["events"] / r["run_s"] for r in base.values()]
            ),
            "workload.gen_s": gen_s,
            "engine.build_s": layers["engine.build"]["total_s"],
            "engine.flows.recomputes": sum(c["recomputes"] for c in counters),
            "engine.flows.max_component": max(c["max_component"] for c in counters),
            "engine.flows.vector_solves": sum(c["vector_solves"] for c in counters),
            "engine.iomodel.queue_delay_s": sum(c["queue_delay_s"] for c in counters),
            "engine.task_hours": _mean(c["task_hours"] for c in counters),
            "core.hit_ratio": _mean(c["hit_ratio"] for c in counters),
            "core.transfers_committed": committed,
            "core.transfer_submits": submits,
            "core.transfer_yield": committed / submits if submits else 0.0,
            "ml.points": sum(c["ml_points"] for c in counters),
            # Served-only times: they read 0 on every run of the other
            # workloads, so BENCHMARK.json does not declare them.
            "service.ctl_p50_ms": _percentile(latencies, 0.50),
            "service.ctl_p95_ms": _percentile(latencies, 0.95),
            "service.ingest_lag_s": _median(
                [r["ingest_lag_s"] for r in untraced if "ingest_lag_s" in r]
            ),
            "trace.run_s": tree_total,
            "trace.self_sum_error": (
                abs(tree_self - tree_total) / tree_total if tree_total else 0.0
            ),
            "trace.overhead": (
                sum(r["run_s"] for r in matched)
                / sum(base[r["index"]]["run_s"] for r in matched)
                if matched
                else 0.0
            ),
        }
    )
    edge_rows = [
        {"caller": a, "callee": b, "calls": c, "seconds": s}
        for (a, b), (c, s) in sorted(edges.items(), key=lambda kv: -kv[1][1])
    ]
    return {"metrics": metrics, "layers": layers, "edges": edge_rows}


#: Per-input measurements kept in the report, raw and calibrated.
INPUT_FIELDS = (
    "pass",
    "index",
    "traced",
    "jobs_finished",
    "run_s",
    "raw_run_s",
    "setup_s",
    "raw_setup_s",
    "speed",
    "rss_mb",
)


def summarize(workload: Workload, untraced: list, traced: list) -> dict:
    """Everything reported for one workload: metrics, checks, counts."""
    results = untraced + traced
    checks = correctness(results)
    report = {
        "why": workload.why,
        "inputs_run": len(untraced),
        "end_to_end": {},
        "exact": exact_metrics(untraced),
        "correct": bool(results) and all(ok for _, ok, _ in checks),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "checks": [
            {"name": name, "ok": ok, "detail": str(detail)}
            for name, ok, detail in checks
        ],
        "inputs": [
            {key: r.get(key) for key in INPUT_FIELDS} for r in results if r["ok"]
        ],
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, samples in end_to_end_samples(untraced).items():
        q1, q3 = _quartiles(samples)
        report["end_to_end"][name] = {
            "unit": units[name],
            "value": _median(samples),
            "q1": q1,
            "q3": q3,
            "samples": samples,
        }
    if traced and all(r["ok"] for r in traced):
        report.update(layer_metrics(traced, untraced))
    return report


# -- output ------------------------------------------------------------------
def contract_result(report: dict, trace: bool) -> dict:
    """The one-line JSON the time-bounded mode prints last."""
    if trace:
        units = {name: unit for name, unit, _ in per_layer_specs()}
        values = report.get("metrics", {})
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = {k: v["value"] for k, v in report["end_to_end"].items()}
    return {
        "correct": report["correct"] and all(name in values for name in units),
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def print_table(reports: dict) -> None:
    """End-to-end metrics per workload, then the layer self-time split."""
    header = f"{'workload':<13} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12}"
    print(header + "  unit")
    for name, report in reports.items():
        for metric, entry in report["end_to_end"].items():
            print(
                f"{name:<13} {metric:<12} {entry['value']:>12.4f} "
                f"{entry['q1']:>12.4f} {entry['q3']:>12.4f}  {entry['unit']}"
            )
        for metric, value in report["exact"].items():
            print(f"{name:<13} {metric:<12} {value:>12.6f} {'':>25}  exact")
        print(f"{name:<13} {'correct':<12} {str(report['correct']):>12}")
    print()
    print("layer self time as a share of the traced run() wall time")
    print(f"{'layer':<22}" + "".join(f"{n:>14}" for n in reports))
    for layer in RUN_LAYERS:
        shares = [
            r.get("metrics", {}).get(f"{layer}.share", 0.0) for r in reports.values()
        ]
        print(f"{layer:<22}" + "".join(f"{v:>14.1%}" for v in shares))
    for label in ("trace.run_s", "trace.overhead", "trace.self_sum_error"):
        values = [r.get("metrics", {}).get(label, 0.0) for r in reports.values()]
        print(f"{label:<22}" + "".join(f"{v:>14.4f}" for v in values))


def failed_checks(reports: dict) -> list:
    return [
        f"{name}: {check['name']} ({check['detail']})"
        for name, report in reports.items()
        for check in report["checks"]
        if not check["ok"]
    ]


# -- modes -------------------------------------------------------------------
def run_one(args) -> int:
    """Time-bounded run of one workload (the BENCHMARK.json contract)."""
    start = _now()
    workload = WORKLOADS_BY_NAME[args.workload].scaled(args.smoke)
    runner = Runner(workload, args.seed, start + RUN_DEADLINE_S)
    budget_end = start + RUN_DEADLINE_S * (0.5 if args.trace else 0.9)
    untraced = runner.run_for(args.seconds, budget_end)
    traced = runner.run_pass(traced=True) if args.trace else []
    report = summarize(workload, untraced, traced)
    for problem in failed_checks({workload.name: report}):
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name}: {len(untraced)} input(s) in {_now() - start:.1f}s")
    print(json.dumps(contract_result(report, bool(args.trace))))
    return 0


def run_set(args) -> int:
    """The full set: interleaved untraced passes, then traced passes."""
    start = _now()
    workloads = [w.scaled(args.smoke) for w in WORKLOADS]
    runners = {w.name: Runner(w, args.seed, start + 3600.0) for w in workloads}
    untraced = {w.name: [] for w in workloads}
    # Round-robin interleaving: a slow spell on the shared host then hits
    # every workload, instead of all repeats of one.
    for index in range(max(w.repeats for w in workloads)):
        for w in workloads:
            if index < w.repeats:
                print(f"[{_now() - start:6.1f}s] {w.name} pass {index + 1}")
                untraced[w.name] += runners[w.name].run_pass(number=index)
    reports = {}
    for w in workloads:
        print(f"[{_now() - start:6.1f}s] {w.name} traced pass", flush=True)
        traced = runners[w.name].run_pass(traced=True)
        reports[w.name] = summarize(w, untraced[w.name], traced)
    wall = _now() - start
    print()
    print_table(reports)
    problems = failed_checks(reports)
    for problem in problems:
        print(f"check failed: {problem}")
    verdict = "all checks pass" if not problems else "FAILED"
    print(f"\nfull set: {wall:.1f}s wall, {verdict}")
    document = {
        "benchmark": "e2e",
        "seed": args.seed,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "wall_s": wall,
        "workloads": reports,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if not problems else 1


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that kill the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full set: write the JSON report here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    return run_one(args) if args.workload else run_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
