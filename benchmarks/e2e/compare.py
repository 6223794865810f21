"""Compare two full-set reports of ``bench.py`` against the benchmark bounds.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change.  For every
workload and end-to-end metric it prints both sides' median and
quartiles, the relative delta of the medians, the bound from
``BENCHMARK.json`` and a verdict:

``within``
    B's median is no worse than A's by more than the bound.
``worse``
    B's median is worse than A's by more than the bound.
``better``
    Each side has at least ten samples, B beats A in at least nine
    tenths of all (A, B) sample pairs, and the medians differ by more
    than A's own quartile spread.  With fewer samples a gain reads
    ``within``: the 3 to 5 passes of one full set cannot support a claim.
``unresolved``
    A side's quartile spread is wider than the bound, so a change of
    the bound's size cannot be told from noise (unless there are enough
    samples and every B sample beats every A sample, which is
    ``better``).

The exact metrics (hit ratio, task hours, failed fraction) are
deterministic for a seed: any difference is ``better`` or ``worse`` by
direction, and equality is ``within``.  Exits 1 when any verdict is
``worse`` or either side failed its correctness checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Deterministic per-seed outcomes and which direction is better.
EXACT_BETTER = {"hit_ratio": "higher", "task_hours": "lower", "failed_frac": "lower"}

#: Samples each side needs before a gain may be claimed.
MIN_CLAIM_SAMPLES = 10


def _summary(values: list) -> tuple:
    """``(median, q1, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _wins(a: list, b: list, better: str) -> float:
    """Share of (a, b) pairs in which ``b`` reads better; ties count for none."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x in a for y in b if sign * (y - x) > 0)
    return wins / (len(a) * len(b))


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """``(verdict, relative delta of medians)`` for one metric."""
    med_a, q1_a, q3_a = _summary(a)
    med_b, q1_b, q3_b = _summary(b)
    delta = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = -delta if better == "higher" else delta
    spread_a = (q3_a - q1_a) / med_a if med_a else 0.0
    spread_b = (q3_b - q1_b) / med_b if med_b else 0.0
    wins = _wins(a, b, better)
    enough = min(len(a), len(b)) >= MIN_CLAIM_SAMPLES
    if max(spread_a, spread_b) > bound:
        return ("better" if enough and wins == 1.0 else "unresolved"), delta
    if worse_by > bound:
        return "worse", delta
    if enough and -worse_by > spread_a and wins >= 0.9:
        return "better", delta
    return "within", delta


def exact_verdict(a: float, b: float, better: str) -> tuple:
    if a == b:
        return "within", 0.0
    delta = (b - a) / a if a else float("inf")
    improved = (b > a) if better == "higher" else (b < a)
    return ("better" if improved else "worse"), delta


def compare(doc_a: dict, doc_b: dict, spec: dict) -> list:
    """One row per (workload, metric): names, summaries, delta, verdict."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        wa, wb = doc_a["workloads"][name], doc_b["workloads"][name]
        for metric, entry in wa["end_to_end"].items():
            if metric not in bounds or metric not in wb["end_to_end"]:
                continue
            a = entry["samples"]
            b = wb["end_to_end"][metric]["samples"]
            meta = bounds[metric]
            result, delta = verdict(a, b, meta["better"], meta["bound"])
            rows.append(
                (name, metric, _summary(a), _summary(b), delta, meta["bound"], result)
            )
        for metric, better in EXACT_BETTER.items():
            a, b = wa["exact"][metric], wb["exact"][metric]
            result, delta = exact_verdict(a, b, better)
            rows.append((name, metric, (a, a, a), (b, b, b), delta, 0.0, result))
    return rows


def _fmt(summary: tuple) -> str:
    median, q1, q3 = summary
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(docs[0], docs[1], spec)
    print(
        f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict"
    )
    for name, metric, sa, sb, delta, bound, result in rows:
        print(
            f"{name:<13} {metric:<12} {_fmt(sa):<34} {_fmt(sb):<34} "
            f"{delta:>+8.2%} {bound:>6.0%}  {result}"
        )
    incorrect = [
        f"{label}:{name}"
        for label, doc in zip("AB", docs)
        for name, report in doc["workloads"].items()
        if not report["correct"]
    ]
    for item in incorrect:
        print(f"correctness checks failed: {item}")
    worse = any(row[-1] == "worse" for row in rows)
    return 1 if worse or incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
