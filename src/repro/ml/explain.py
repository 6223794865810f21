"""Per-prediction explanations via tree-path attribution.

The paper (Sec 4.3) notes ensembles are harder to interpret and points
at feature-importance / per-prediction explanation methods.  This module
implements Saabas-style path attribution, the tree-native version of
those ideas: walking a sample down each tree, every split's change in
expected leaf value is credited to the split feature.  Contributions sum
exactly to ``margin - bias``, so explanations are faithful by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.floats import fold_sum
from repro.ml.gbt import GradientBoostedTrees, sigmoid
from repro.ml.tree import RegressionTree, _Node


def _mean_value(node: _Node) -> float:
    """Expected leaf value of the subtree (unweighted leaf average).

    An unweighted average over leaves is a standard approximation when
    training-sample counts are not stored per node; attribution still
    telescopes exactly because both child and parent use the same
    definition.
    """
    if node.is_leaf:
        return node.value
    assert node.left is not None and node.right is not None
    return 0.5 * (_mean_value(node.left) + _mean_value(node.right))


def tree_contributions(tree: RegressionTree, x: np.ndarray) -> Dict[int, float]:
    """Per-feature margin contributions of one tree for sample ``x``."""
    contributions: Dict[int, float] = {}
    node = tree._root
    if node is None:
        raise ValueError("tree is not fitted")
    current = _mean_value(node)
    while not node.is_leaf:
        value = x[node.feature]
        missing = np.isnan(value)
        goes_left = (value < node.threshold) or (missing and node.default_left)
        if missing and not node.default_left:
            goes_left = False
        child = node.left if goes_left else node.right
        assert child is not None
        child_value = _mean_value(child)
        contributions[node.feature] = (
            contributions.get(node.feature, 0.0) + child_value - current
        )
        current = child_value
        node = child
    return contributions


@dataclass
class Explanation:
    """One explained prediction."""

    probability: float
    bias: float  # margin before any feature contribution
    contributions: Dict[int, float]  # feature index -> margin delta

    def top_features(
        self, names: Optional[Sequence[str]] = None, limit: int = 5
    ) -> List[tuple]:
        """(name, contribution) pairs sorted by |contribution|."""
        items = sorted(
            self.contributions.items(), key=lambda kv: -abs(kv[1])
        )[:limit]
        if names is None:
            return [(f"f{index}", value) for index, value in items]
        return [(names[index], value) for index, value in items]


def explain_prediction(
    model: GradientBoostedTrees, x: np.ndarray
) -> Explanation:
    """Decompose one prediction into per-feature margin contributions.

    The invariant ``bias + sum(contributions) == margin`` holds exactly
    (up to float error); the probability is ``sigmoid(margin)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    bias = model.base_margin
    total: Dict[int, float] = {}
    lr = model.params.learning_rate
    for tree in model.trees:
        root_mean = _mean_value(tree._root)
        bias += lr * root_mean
        for feature, value in tree_contributions(tree, x).items():
            total[feature] = total.get(feature, 0.0) + lr * value
    margin = bias + fold_sum(total.values())
    return Explanation(
        probability=float(sigmoid(np.array([margin]))[0]),
        bias=bias,
        contributions=total,
    )
