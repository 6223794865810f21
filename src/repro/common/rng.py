"""Deterministic random-number helpers for workload synthesis.

Everything that involves randomness in the library goes through a seeded
``numpy.random.Generator`` so experiments are exactly reproducible.  The
Zipf law here is the file-popularity model production-trace studies use
to describe analytics workloads; the synthesizers draw everything else
(sizes, gaps, picks) from the generator directly.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

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
