"""Deterministic random-number helpers for workload synthesis.

Everything that involves randomness in the library goes through a seeded
``numpy.random.Generator`` so experiments are exactly reproducible.  The
distributions here are the ones production-trace studies use to describe
analytics workloads: Zipf file popularity, heavy-tailed (log-normal /
bounded Pareto) sizes, and Poisson arrivals.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.common.floats import fold_sum

#: Anything ``numpy.random.default_rng`` accepts as entropy.  Sequences
#: of ints derive independent sub-streams deterministically — workload
#: generators use ``[seed, source_index]`` so per-tenant / per-dataset
#: streams stay decoupled under composition.
Seed = Union[None, int, Sequence[int]]


def make_rng(seed: Seed) -> np.random.Generator:
    """Create a generator from ``seed`` (``None`` → non-deterministic)."""
    return np.random.default_rng(seed)


def zipf_probabilities(n: int, skew: float) -> np.ndarray:
    """Return the Zipf(``skew``) probability vector over ranks ``1..n``.

    ``skew`` = 0 gives the uniform distribution; larger values concentrate
    mass on low ranks (popular items), matching the skewed file popularity
    observed in the Facebook/CMU traces (Sec 7.1).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), skew)
    return weights / weights.sum()


def sample_zipf_ranks(
    rng: np.random.Generator, n: int, skew: float, count: int
) -> np.ndarray:
    """Sample ``count`` ranks in ``[0, n)`` from a Zipf(``skew``) law."""
    probs = zipf_probabilities(n, skew)
    return rng.choice(n, size=count, p=probs)


def bounded_pareto(
    rng: np.random.Generator,
    low: float,
    high: float,
    alpha: float,
    size: int,
) -> np.ndarray:
    """Sample from a Pareto law truncated to ``[low, high]``.

    Heavy-tailed job input sizes in MapReduce traces are commonly modelled
    with bounded Pareto distributions.
    """
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = rng.random(size)
    la = low**alpha
    ha = high**alpha
    return (-(u * (ha - la) - ha) / (ha * la)) ** (-1.0 / alpha)


def poisson_arrivals(
    rng: np.random.Generator, rate_per_second: float, horizon_seconds: float
) -> List[float]:
    """Generate Poisson-process arrival times over ``[0, horizon)``.

    Returns a sorted list of timestamps.  ``rate_per_second`` is the mean
    arrival rate; inter-arrival gaps are exponential.
    """
    if rate_per_second <= 0:
        raise ValueError("rate must be positive")
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_per_second)
        if t >= horizon_seconds:
            break
        arrivals.append(t)
    return arrivals


def weighted_choice(
    rng: np.random.Generator, items: Sequence[object], weights: Sequence[float]
) -> object:
    """Pick one of ``items`` with the given (unnormalized) weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(fold_sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    probs = np.asarray(weights, dtype=float) / total
    index = rng.choice(len(items), p=probs)
    return items[int(index)]
