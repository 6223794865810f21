"""Tests for deterministic RNG distribution helpers."""

import math

import numpy as np
import pytest

from repro.common import rng as rng_module
from repro.common.rng import (
    bounded_pareto,
    make_rng,
    poisson_arrivals,
    sample_zipf_ranks,
    weighted_choice,
    zipf_probabilities,
)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        probs = zipf_probabilities(100, 1.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_skew_zero_is_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(50, 1.2)
        assert np.all(np.diff(probs) <= 0)

    def test_higher_skew_concentrates_head(self):
        low = zipf_probabilities(100, 0.5)
        high = zipf_probabilities(100, 1.5)
        assert high[0] > low[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -1.0)

    def test_sampling_determinism(self):
        a = sample_zipf_ranks(make_rng(5), 100, 1.0, 50)
        b = sample_zipf_ranks(make_rng(5), 100, 1.0, 50)
        assert np.array_equal(a, b)


class TestBoundedPareto:
    def test_within_bounds(self):
        rng = make_rng(1)
        samples = bounded_pareto(rng, 10.0, 1000.0, 1.1, 500)
        assert samples.min() >= 10.0
        assert samples.max() <= 1000.0

    def test_heavy_tail_skews_low(self):
        rng = make_rng(2)
        samples = bounded_pareto(rng, 1.0, 10000.0, 1.5, 2000)
        assert np.median(samples) < np.mean(samples)

    def test_invalid_args(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            bounded_pareto(rng, 10.0, 5.0, 1.0, 10)
        with pytest.raises(ValueError):
            bounded_pareto(rng, 1.0, 10.0, 0.0, 10)


class TestPoissonArrivals:
    def test_sorted_and_bounded(self):
        rng = make_rng(3)
        arrivals = poisson_arrivals(rng, 1.0, 100.0)
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 100.0 for t in arrivals)

    def test_rate_roughly_matches(self):
        rng = make_rng(4)
        arrivals = poisson_arrivals(rng, 5.0, 1000.0)
        assert 4000 < len(arrivals) < 6000

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(make_rng(0), 0.0, 10.0)


class TestWeightedChoice:
    def test_deterministic_with_seed(self):
        items = ["a", "b", "c"]
        assert weighted_choice(make_rng(9), items, [1, 1, 1]) == weighted_choice(
            make_rng(9), items, [1, 1, 1]
        )

    def test_zero_weight_never_chosen(self):
        rng = make_rng(10)
        picks = {weighted_choice(rng, ["x", "y"], [0.0, 1.0]) for _ in range(50)}
        assert picks == {"y"}

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a"], [1, 2])

    def test_non_positive_total(self):
        with pytest.raises(ValueError):
            weighted_choice(make_rng(0), ["a", "b"], [0, 0])


class TestFoldedSums:
    """The weight total folds left to right, whatever ``sum()`` does."""

    #: A left-to-right fold gives 3.3636363636363633; a compensated sum
    #: (Python >= 3.12 ``sum()``) rounds it to 3.3636363636363638.
    TRIPLE = (1.0, 1.1818181818181819, 1.1818181818181819)

    def test_weighted_choice_normalizes_by_the_fold(self, monkeypatch):
        # Shadow the builtin inside the module, as Python 3.12 would.
        monkeypatch.setattr(rng_module, "sum", math.fsum, raising=False)
        seen = []

        class Recorder:
            def choice(self, n, p):
                seen.append(p)
                return 0

        weighted_choice(Recorder(), ["a", "b", "c"], self.TRIPLE)
        weights = np.asarray(self.TRIPLE)
        assert np.array_equal(seen[0], weights / 3.3636363636363633)
        assert not np.array_equal(seen[0], weights / math.fsum(self.TRIPLE))
