"""Tests for the Zipf popularity law of the RNG helpers."""

import numpy as np
import pytest

from repro.common.rng import zipf_probabilities


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
