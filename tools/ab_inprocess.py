"""Alternated in-process A/B timing of two revisions of the simulator.

Both revisions run in one interpreter, so they share the host's state
(CPU frequency, caches, neighbours) far more closely than two separate
benchmark runs do.  Each revision's ``src/repro`` is exported with
``git archive`` into a temporary directory as its own package
(``repro_a`` and ``repro_b``; every ``repro`` import is rewritten), and
the two are timed in pairs whose run order alternates.

A pair replays the same inputs on both revisions.  Only
``WorkloadRunner.run()`` is timed; building the input and the runner is
not.  Every input's outcome fingerprint (``RunResult.fingerprint()``)
must be identical between the revisions, or the tool stops, naming per
input the top-level fingerprint keys that differ: a speedup that moves
a simulated value is not a speedup.  Under the XGB policies
the two final access models (``model_to_dict``) must hash the same too,
so a learner change that alters one tree stops the tool even when the
run's outcome matches.  A revision whose ``RunResult`` has no
``fingerprint()`` is refused with exit status 2.

Workloads (a run replays three inputs; input ``i`` of seed ``s`` uses
seed ``s + 1000 i``, which is also the system seed):

* ``snap`` -- FB profile x1, LRU + OSA, snapshot pricing;
* ``fair`` -- FB profile x0.5, LRU + OSA, fair-share pricing;
* ``pipe`` -- the ``pipeline`` scenario x2, LRU + OSA, snapshot pricing;
* ``xgb`` -- FB profile x0.5 cut to 1.25 h, XGB downgrade and upgrade,
  snapshot pricing (the incremental tree learner's workload).

Usage::

    python tools/ab_inprocess.py HEAD~1 HEAD --workload pipe
    python tools/ab_inprocess.py HEAD WORKTREE --workload snap --pairs 14

``WORKTREE`` stands for the checkout's uncommitted ``src/repro``.  The
last line is the median paired ratio B/A of ``run()`` time and the
number of pairs B won.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The working tree instead of a committed revision.
WORKTREE = "WORKTREE"

_IMPORT_RE = re.compile(r"\b(from|import)(\s+)repro\b")

#: Inputs replayed per run.
INPUTS = 3

#: Downgrade and upgrade policies.
LRU = ("lru", "osa")
XGB = ("xgb", "xgb")

#: ``(scenario or None, scale, hours or None, io_model, policies)`` per
#: workload; ``hours`` cuts an FB profile short.
WORKLOADS = {
    "snap": (None, 1.0, None, "snapshot", LRU),
    "fair": (None, 0.5, None, "fairshare", LRU),
    "pipe": ("pipeline", 2.0, None, "snapshot", LRU),
    "xgb": (None, 0.5, 1.25, "snapshot", XGB),
}


def export(rev: str, package: str, dest: Path) -> None:
    """Write ``rev``'s ``src/repro`` to ``dest/package`` with its imports
    renamed to ``package``."""
    target = dest / package
    if rev == WORKTREE:
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            target,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev, "src/repro"],
            cwd=REPO_ROOT,
            check=True,
            stdout=subprocess.PIPE,
        ).stdout
        staging = dest / f"{package}-src"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(staging)
        (staging / "src" / "repro").rename(target)
        shutil.rmtree(staging)
    for path in target.rglob("*.py"):
        text = path.read_text()
        path.write_text(_IMPORT_RE.sub(rf"\1\2{package}", text))


class Revision:
    """One exported revision: builds inputs and times one replay."""

    def __init__(self, package: str, workload: str) -> None:
        self.package = package
        spec = WORKLOADS[workload]
        self.scenario, self.scale, self.hours, self.io_model, policies = spec
        self.downgrade, self.upgrade = policies
        self.runner = importlib.import_module(f"{package}.engine.runner")
        self.serialize = importlib.import_module(f"{package}.ml.serialize")

    def build(self, seed: int):
        """A fresh runner for input ``seed`` (not timed)."""
        config = self.runner.SystemConfig(
            label="ab",
            downgrade=self.downgrade,
            upgrade=self.upgrade,
            workers=11,
            io_model=self.io_model,
            seed=seed,
        )
        if self.scenario is not None:
            scenarios = importlib.import_module(f"{self.package}.workload.scenarios")
            workload = scenarios.build_scenario(
                self.scenario, seed=seed, scale=self.scale
            )
        else:
            profiles = importlib.import_module(f"{self.package}.workload.profiles")
            synthesis = importlib.import_module(f"{self.package}.workload.synthesis")
            profile = profiles.scaled_profile(profiles.PROFILES["FB"], self.scale)
            if self.hours is not None:
                units = importlib.import_module(f"{self.package}.common.units")
                profile = dataclasses.replace(
                    profile, duration=self.hours * units.HOURS
                )
            workload = synthesis.synthesize_trace(profile, seed=seed)
        return self.runner.WorkloadRunner(workload, config)

    def run(self, seed: int):
        """``(run() seconds, outcome fingerprint, models hash)`` for input
        ``seed``; the hash is None unless the policies are XGB."""
        runner = self.build(seed)
        gc.collect()
        start = time.perf_counter()
        result = runner.run()
        seconds = time.perf_counter() - start
        models = None
        if (self.downgrade, self.upgrade) == XGB:
            trainer = runner.manager.trainer
            payload = [
                self.serialize.model_to_dict(access.model)
                for access in (trainer.downgrade_model, trainer.upgrade_model)
            ]
            text = json.dumps(payload, sort_keys=True)
            models = hashlib.sha256(text.encode()).hexdigest()
        return seconds, result.fingerprint(), models


def differing(a, b) -> str:
    """What differs between two outcomes of one input: the names of the
    top-level fingerprint keys that differ, or both model hashes."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return f"A {a}, B {b}"
    absent = object()
    keys = [k for k in {**a, **b} if a.get(k, absent) != b.get(k, absent)]
    return "keys " + ", ".join(keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("rev_a", help="baseline revision (or WORKTREE)")
    parser.add_argument("rev_b", help="changed revision (or WORKTREE)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    seeds = [args.seed + 1000 * i for i in range(INPUTS)]
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        dest = Path(tmp)
        export(args.rev_a, "repro_a", dest)
        export(args.rev_b, "repro_b", dest)
        sys.path.insert(0, str(dest))
        revisions = {
            "A": Revision("repro_a", args.workload),
            "B": Revision("repro_b", args.workload),
        }
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            if not hasattr(revisions[side].runner.RunResult, "fingerprint"):
                print(
                    f"{rev}: RunResult has no fingerprint(); "
                    "revisions older than it cannot be compared",
                    file=sys.stderr,
                )
                return 2
        ratios = []
        wins = 0
        for pair in range(args.pairs):
            order = "AB" if pair % 2 == 0 else "BA"
            seconds = {}
            fingerprints = {}
            models = {}
            for side in order:
                runs = [revisions[side].run(seed) for seed in seeds]
                seconds[side] = sum(s for s, _, _ in runs)
                fingerprints[side] = [f for _, f, _ in runs]
                models[side] = [m for _, _, m in runs]
            for what, outcomes in (("fingerprints", fingerprints), ("models", models)):
                if outcomes["A"] != outcomes["B"]:
                    print(f"pair {pair}: {what} differ", file=sys.stderr)
                    for seed, a, b in zip(seeds, outcomes["A"], outcomes["B"]):
                        if a != b:
                            print(
                                f"  input seed {seed}: {differing(a, b)}",
                                file=sys.stderr,
                            )
                    return 1
            ratio = seconds["B"] / seconds["A"]
            ratios.append(ratio)
            wins += ratio < 1.0
            print(
                f"pair {pair:2d} ({order}): A {seconds['A']:.3f} s  "
                f"B {seconds['B']:.3f} s  B/A {ratio:.3f}",
                flush=True,
            )
    median = statistics.median(ratios)
    same = "fingerprints and models" if args.workload == "xgb" else "fingerprints"
    print(
        f"{args.workload}: median B/A {median:.3f} ({(median - 1) * 100:+.1f}%), "
        f"B won {wins}/{args.pairs} pairs; {same} identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
