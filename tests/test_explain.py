"""Tests for per-prediction path attribution."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ml import explain as explain_module
from repro.ml.explain import explain_prediction, tree_contributions
from repro.ml.gbt import GBTParams, GradientBoostedTrees


def make_model(seed=0, rounds=5):
    rng = np.random.default_rng(seed)
    X = rng.random((500, 4))
    # Feature 0 dominates; feature 3 is pure noise.
    y = (X[:, 0] > 0.5).astype(int)
    model = GradientBoostedTrees(GBTParams(num_rounds=rounds, max_depth=4)).fit(X, y)
    return model, X


class TestAttribution:
    def test_contributions_sum_to_margin(self):
        model, X = make_model()
        for row in X[:20]:
            explanation = explain_prediction(model, row)
            margin = model.predict_margin(row.reshape(1, -1))[0]
            reconstructed = explanation.bias + sum(
                explanation.contributions.values()
            )
            assert reconstructed == pytest.approx(margin, abs=1e-9)
            assert explanation.probability == pytest.approx(
                model.predict_proba(row.reshape(1, -1))[0], abs=1e-9
            )

    def test_dominant_feature_gets_most_credit(self):
        model, X = make_model()
        credit = {}
        for row in X[:50]:
            for feature, value in explain_prediction(model, row).contributions.items():
                credit[feature] = credit.get(feature, 0.0) + abs(value)
        assert max(credit, key=credit.get) == 0

    def test_direction_matches_prediction(self):
        model, _ = make_model()
        high = explain_prediction(model, np.array([0.95, 0.5, 0.5, 0.5]))
        low = explain_prediction(model, np.array([0.05, 0.5, 0.5, 0.5]))
        assert high.contributions.get(0, 0.0) > low.contributions.get(0, 0.0)
        assert high.probability > low.probability

    def test_missing_values_follow_default_direction(self):
        model, _ = make_model()
        explanation = explain_prediction(
            model, np.array([np.nan, 0.5, 0.5, 0.5])
        )
        # Still decomposes exactly.
        margin = model.predict_margin(
            np.array([[np.nan, 0.5, 0.5, 0.5]])
        )[0]
        assert explanation.bias + sum(
            explanation.contributions.values()
        ) == pytest.approx(margin, abs=1e-9)

    def test_top_features_named_and_sorted(self):
        model, X = make_model()
        explanation = explain_prediction(model, X[0])
        top = explanation.top_features(names=["a", "b", "c", "d"], limit=2)
        assert len(top) <= 2
        assert all(isinstance(name, str) for name, _ in top)
        magnitudes = [abs(v) for _, v in top]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_unfitted_tree_rejected(self):
        from repro.ml.tree import RegressionTree

        with pytest.raises(ValueError):
            tree_contributions(RegressionTree(), np.zeros(3))


class TestFoldedSums:
    """The margin folds contributions left to right, whatever ``sum()``
    does (Python >= 3.12 compensates it)."""

    def test_margin_is_a_left_to_right_fold(self, monkeypatch):
        # Contributions whose fold and compensated sum differ by 1.0:
        # the fold loses the middle term, ``math.fsum`` keeps it.
        contributions = {0: 1e16, 1: 1.0, 2: -1e16}
        monkeypatch.setattr(explain_module, "sum", math.fsum, raising=False)
        monkeypatch.setattr(explain_module, "_mean_value", lambda node: 0.0)
        monkeypatch.setattr(
            explain_module, "tree_contributions", lambda tree, x: contributions
        )
        model = SimpleNamespace(
            base_margin=0.0,
            params=SimpleNamespace(learning_rate=1.0),
            trees=[SimpleNamespace(_root=None)],
        )
        explanation = explain_prediction(model, np.zeros(3))
        assert explanation.probability == 0.5  # sigmoid(0.0), not sigmoid(1.0)
