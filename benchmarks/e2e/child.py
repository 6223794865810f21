"""One simulating process of the end-to-end benchmark.

``bench.py`` spawns this script once per simulation, so every
measurement starts from a fresh interpreter.  Two modes:

``child.py run SPEC``
    Synthesize one FB-profile trace and replay it in-process through
    ``WorkloadRunner(trace, config).run()``.  ``SPEC`` is a JSON object
    with ``scale``, ``hours`` (null keeps the profile's duration),
    ``io_model``, ``downgrade``, ``upgrade``, ``workers``, ``seed`` and
    ``traced``.

``child.py serve SPEC -- SERVE_ARGS...``
    Run ``repro serve SERVE_ARGS`` (the daemon's own CLI entry point)
    in this process.  ``SPEC`` carries ``traced``.

With ``traced`` true the layer probes (``probes.py``) are installed
before the system is built.  The host is calibrated (:func:`calibrate`)
just before and just after the measured phase, in this process, so the
parent can scale host times by the host's speed at that moment.  The
last stdout line is ``RESULT <json>`` with the simulated outcome, the
simulator counters, the calibration, ``CLOCK_MONOTONIC`` stamps of the
measured phase, and, when traced, the layer timings.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probes import Recorder  # noqa: E402

CALIBRATION_SAMPLES = 7


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _calibration_work(n: int = 20000) -> float:
    """Fixed interpreter work shaped like the simulator's inner loop:
    heap pushes and pops, dict updates, tuple allocation."""
    heap = []
    table = {}
    total = 0.0
    for i in range(n):
        key = i % 997
        table[key] = table.get(key, 0) + 1
        heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 512:
            total += heappop(heap)[0]
    return total


def calibrate() -> dict:
    """The host's current speed, and the wall seconds calibrating took.

    The speed is the fastest of a few short samples: a slow spell of the
    shared host lasts seconds and slows every sample, while a burst that
    slows only some of them would barely touch a multi-second run.  The
    garbage collector is paused so the samples do not depend on how many
    objects the process holds.
    """
    start = time.perf_counter()
    samples = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_SAMPLES):
            begin = time.perf_counter()
            _calibration_work()
            samples.append(time.perf_counter() - begin)
    finally:
        gc.enable()
    return {"sample_s": min(samples), "took_s": time.perf_counter() - start}


def _counters(runner, result) -> dict:
    """Simulated outcome plus the engine counters the layers report."""
    sim = runner.sim
    io_stats = result.io_stats
    trainer = runner.manager.trainer if runner.manager is not None else None
    metrics = result.metrics
    return {
        "jobs_submitted": result.jobs_submitted,
        "jobs_finished": result.jobs_finished,
        "pending": sim.pending,
        "hit_ratio": metrics.hit_ratio(),
        "byte_hit_ratio": metrics.byte_hit_ratio(),
        "task_hours": metrics.total_task_seconds() / 3600.0,
        "transfers_committed": result.transfers_committed,
        "events": sim.events_processed,
        "events_cancelled": sim.events_cancelled,
        "heap_peak": sim.max_heap_size,
        "recomputes": io_stats.get("recomputes", 0),
        "max_component": io_stats.get("max_component", 0),
        "vector_solves": io_stats.get("vector_solves", 0),
        "queue_delay_s": sum(result.queue_delay_by_tier.values()),
        "ml_points": trainer.points_generated if trainer is not None else 0,
        "live_stats": result.live_stats,
    }


def run_trace(spec: dict) -> dict:
    """Synthesize and replay one trace; the ``RESULT`` payload."""
    from dataclasses import replace

    from repro.common.units import HOURS
    from repro.engine import runner as runner_module
    from repro.workload import synthesis
    from repro.workload.profiles import PROFILES, scaled_profile

    profile = scaled_profile(PROFILES["FB"], spec["scale"])
    if spec["hours"] is not None:
        profile = replace(profile, duration=spec["hours"] * HOURS)
    trace = synthesis.synthesize_trace(profile, seed=spec["seed"])
    config = runner_module.SystemConfig(
        downgrade=spec["downgrade"],
        upgrade=spec["upgrade"],
        workers=spec["workers"],
        io_model=spec["io_model"],
        seed=spec["seed"],
    )
    runner = runner_module.WorkloadRunner(trace, config)
    before = calibrate()
    start_ns = _now_ns()
    result = runner.run()
    end_ns = _now_ns()
    after = calibrate()
    payload = _counters(runner, result)
    payload.update(start_ns=start_ns, end_ns=end_ns, calibration=[before, after])
    return payload


def run_serve(serve_args: list) -> dict:
    """Run the daemon's CLI in-process; the ``RESULT`` payload.

    The measured phase ends when the engine thread's ``run()`` returns,
    not when the daemon exits: stopping the control plane then waits up
    to the HTTP server's 0.5 s poll interval, a random delay that is no
    simulation work.
    """
    from repro import cli
    from repro.engine.runner import WorkloadRunner

    runners = []
    end_ns = []
    original_init = WorkloadRunner.__dict__["__init__"]
    original_run = WorkloadRunner.__dict__["run"]

    def capture_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        runners.append(self)

    def capture_run(self, *args, **kwargs):
        try:
            return original_run(self, *args, **kwargs)
        finally:
            end_ns.append(_now_ns())

    before = calibrate()
    WorkloadRunner.__init__ = capture_init
    WorkloadRunner.run = capture_run
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        WorkloadRunner.__init__ = original_init
        WorkloadRunner.run = original_run
    sys.stdout.flush()
    after = calibrate()
    if code != 0 or len(runners) != 1 or len(end_ns) != 1:
        raise SystemExit(f"serve exited {code} with {len(runners)} runner(s)")
    runner = runners[0]
    payload = _counters(runner, runner.snapshot())
    payload.update(exit_code=code, end_ns=end_ns[0], calibration=[before, after])
    return payload


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    recorder = Recorder().install() if spec.get("traced") else None
    if mode == "run":
        payload = run_trace(spec)
    elif mode == "serve":
        payload = run_serve(argv[argv.index("--") + 1 :])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if recorder is not None:
        payload["probes"] = recorder.snapshot()
        recorder.uninstall()
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
