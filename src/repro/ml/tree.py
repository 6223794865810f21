"""Regression trees grown with XGBoost-style second-order statistics.

Each tree fits gradient/hessian pairs: leaf weight ``-G / (H + lambda)``
and split gain ``1/2 [G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)] - gamma``
(Chen & Guestrin 2016, Eq. 6-7).  Missing feature values (NaN) are routed
through a learned *default direction* per split, exactly like XGBoost's
sparsity-aware algorithm: both directions are evaluated and the one with
higher gain wins.

The split search is the exact greedy algorithm, vectorized across
features so that a node costs a few dozen numpy calls however many
features there are:

* **Presort once per fit.**  ``fit`` argsorts every feature column once
  (stable, NaN last) and hands each node an ``(F, n)`` matrix holding the
  node's row ids in per-feature sorted order.  A stable sort restricted
  to a subset is the stable sort of that subset, so splitting the matrix
  with one boolean lookup per node keeps every row exactly where a
  per-node argsort would put it.
* **All candidates at once.**  A node takes prefix sums along the sorted
  axis, the gains of every (feature, default direction, boundary)
  candidate, and one flat ``argmax`` over them.  Its first-maximum
  tie-break is the per-feature loop's: lower feature first, then
  default-left before default-right, then the leftmost boundary.
* **Pairwise-sum exactness.**  The gradient mass of the missing values is
  ``G - G_present``, where ``G_present`` is numpy's *pairwise* sum of the
  present prefix, not its last prefix sum.  Row sums over C-contiguous
  rows (``a[rows][:, :count].sum(axis=1)``) reproduce the 1-D ``.sum()``
  of each row bit for bit; Fortran-ordered rows would not.
* **Hessian prune.**  A split needs ``H_L >= min_child_weight`` and
  ``H_R >= min_child_weight``.  Hessians are non-negative, so ``H_L +
  H_R`` is the node's ``H`` up to rounding, and a node whose ``H`` falls
  short of ``2 * min_child_weight`` by more than the rounding slack cannot
  split: it becomes a leaf without a search.  The logistic hessian
  ``p (1 - p)`` is at most 0.25, so small boosting nodes often end here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Relative slack of the hessian prune: ``H_L + H_R`` can exceed the
#: node's ``H`` only by rounding, about ``n`` ulps for ``n`` rows.
_PRUNE_SLACK = 1e-9

#: Sorted values one block of the split search covers: large nodes are
#: searched a few features at a time, so scratch memory stays bounded.
_BLOCK_CELLS = 2048


@dataclass(frozen=True)
class TreeParams:
    """Growth hyperparameters (defaults match XGBoost's)."""

    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    min_split_samples: int = 2


class _Node:
    """One tree node; leaves carry a weight, internal nodes a split."""

    __slots__ = (
        "feature",
        "threshold",
        "default_left",
        "left",
        "right",
        "value",
        "is_leaf",
    )

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.default_left = True
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value = 0.0
        self.is_leaf = True


@dataclass
class _SplitResult:
    gain: float
    feature: int
    threshold: float
    default_left: bool


def _leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    return -grad_sum / (hess_sum + reg_lambda)


def _score(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    return grad_sum * grad_sum / (hess_sum + reg_lambda)


class _Grower:
    """The state of one ``fit``: data, scratch space, training-row leaves.

    Discarded when the fit returns, so a fitted tree holds its nodes only.
    """

    def __init__(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, params: TreeParams
    ) -> None:
        m, n_features = X.shape
        self.params = params
        self.X = X
        self.grad = grad
        self.hess = hess
        # Feature-major copies: row f of each is feature f, C-contiguous.
        self.values_by_feature = np.ascontiguousarray(X.T)
        self.grad_hess = np.stack((grad, hess))
        self.offsets = (np.arange(n_features) * m)[:, None]
        # Row ids sorted by each feature (stable, NaN last).  Every node
        # owns a column range of it, partitioned in place when it splits.
        self.order = np.argsort(self.values_by_feature, axis=1, kind="stable")
        self.goes_left = np.zeros(m, dtype=bool)
        self.leaf_values = np.empty(m)
        self.node_count = 0

    def build(self, indices: np.ndarray, start: int, depth: int) -> _Node:
        """Grow the subtree over ``indices`` (ascending row ids).

        The same rows fill columns ``start:start + len(indices)`` of
        ``order``, sorted once per feature.
        """
        params = self.params
        node = _Node()
        self.node_count += 1
        g_sum = float(self.grad[indices].sum())
        h_sum = float(self.hess[indices].sum())
        node.value = _leaf_weight(g_sum, h_sum, params.reg_lambda)
        segment = self.order[:, start : start + len(indices)]
        can_split = (
            depth < params.max_depth
            and len(indices) >= params.min_split_samples
            and h_sum >= 2.0 * params.min_child_weight * (1.0 - _PRUNE_SLACK)
        )
        split = self._best_split(segment, g_sum, h_sum) if can_split else None
        children = None
        if split is not None and split.gain > 0.0:
            children = self._partition(indices, segment, split)
        if children is None:
            self.leaf_values[indices] = node.value
            return node
        left_idx, right_idx = children
        node.is_leaf = False
        node.feature = split.feature
        node.threshold = split.threshold
        node.default_left = split.default_left
        node.left = self.build(left_idx, start, depth + 1)
        node.right = self.build(right_idx, start + len(left_idx), depth + 1)
        return node

    def _partition(
        self, indices: np.ndarray, segment: np.ndarray, split: _SplitResult
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Route a node's rows; the children's row ids, or None if one is empty.

        Partitions ``segment`` in place: each feature's sorted run becomes
        the left rows, then the right rows, each keeping its sorted order.
        """
        values = self.X[indices, split.feature]
        missing = np.isnan(values)
        goes_left = values < split.threshold
        if split.default_left:
            goes_left = goes_left | missing
        else:
            goes_left = goes_left & ~missing
        left_idx = indices[goes_left]
        right_idx = indices[~goes_left]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return None
        self.goes_left[indices] = goes_left
        left_mask = self.goes_left[segment]
        n_features, n_left = len(segment), len(left_idx)
        left_part = segment[left_mask].reshape(n_features, n_left)
        segment[:, n_left:] = segment[~left_mask].reshape(n_features, -1)
        segment[:, :n_left] = left_part
        return left_idx, right_idx

    def _best_split(
        self, segment: np.ndarray, g_sum: float, h_sum: float
    ) -> Optional[_SplitResult]:
        """The best split of one node over every feature, or None.

        Features go in blocks of at most ``_BLOCK_CELLS`` sorted values,
        which bounds the scratch memory of large nodes; a later block
        must beat the best so far strictly, as a later feature must.
        """
        n_features, n = segment.shape
        if n < 2:
            return None
        step = max(1, _BLOCK_CELLS // n)
        best: Optional[_SplitResult] = None
        for first in range(0, n_features, step):
            split = self._best_in_block(
                segment[first : first + step], first, g_sum, h_sum
            )
            if split is not None and (best is None or split.gain > best.gain):
                best = split
        return best

    def _best_in_block(
        self, block: np.ndarray, first: int, g_sum: float, h_sum: float
    ) -> Optional[_SplitResult]:
        """The best split on features ``first, first + 1, ...``, or None.

        ``block`` holds the node's rows sorted by each of those features.
        """
        params = self.params
        lam = params.reg_lambda
        n_block, n = block.shape
        rows = slice(first, first + n_block)
        values = self.values_by_feature.take(block + self.offsets[rows])
        stats = self.grad_hess.take(block, axis=1)  # (2, F, n): grad, hess
        present = n - np.isnan(values).sum(axis=1)  # NaNs sort last
        # Pairwise sums of each feature's present prefix (see module doc),
        # grouped by prefix length; features with fewer than two present
        # values have no candidate and keep their full-row sum.
        present_sums = stats.sum(axis=2)
        short = {}
        for feature, count in enumerate(present.tolist()):
            if 2 <= count < n:
                short.setdefault(count, []).append(feature)
        for count, features in short.items():
            present_sums[:, features] = (
                stats.take(features, axis=1)[:, :, :count].sum(axis=2)
            )
        missing = np.array([[g_sum], [h_sum]]) - present_sums  # (2, F)
        # Candidate boundary p (1 <= p < present) sits at column p - 1:
        # the left child takes the first p present rows.
        cum = np.cumsum(stats, axis=2)
        total = cum[:, np.arange(n_block), np.maximum(present - 1, 0)]
        candidate = (values[:, 1:] != values[:, :-1]) & (
            np.arange(n - 1) < (present - 1)[:, None]
        )
        # (G, H) of both children for every candidate; axis 2 is the
        # default direction, 0 sending the missing rows left.
        shape = (2, n_block, 2, n - 1)
        lefts = np.empty(shape)
        rights = np.empty(shape)
        lefts[:, :, 1] = cum[:, :, :-1]
        np.subtract(total[:, :, None], lefts[:, :, 1], out=rights[:, :, 0])
        np.add(lefts[:, :, 1], missing[:, :, None], out=lefts[:, :, 0])
        np.add(rights[:, :, 0], missing[:, :, None], out=rights[:, :, 1])
        (gl, hl), (gr, hr) = lefts, rights
        mcw = params.min_child_weight
        valid = (hl >= mcw) & (hr >= mcw) & candidate[:, None, :]
        # The gain 0.5 * (gl^2/(hl+lam) + gr^2/(hr+lam) - parent) - gamma,
        # operation by operation, in place.  Columns past a feature's
        # present prefix mix in missing rows and may divide by zero; they
        # are masked out below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hl += lam
            gl *= gl
            gl /= hl
            hr += lam
            gr *= gr
            gr /= hr
            gl += gr
            gl -= _score(g_sum, h_sum, lam)
            gl *= 0.5
            gl -= params.gamma
        gains = gl
        gains[~valid] = -np.inf
        pick = int(np.argmax(gains))
        if not valid.flat[pick]:
            return None
        feature, rest = divmod(pick, 2 * (n - 1))
        direction, column = divmod(rest, n - 1)
        return _SplitResult(
            gain=float(gains.flat[pick]),
            feature=first + feature,
            threshold=float(
                0.5 * (values[feature, column] + values[feature, column + 1])
            ),
            default_left=direction == 0,
        )


class RegressionTree:
    """A single CART tree fit to (gradient, hessian) targets."""

    def __init__(self, params: Optional[TreeParams] = None) -> None:
        self.params = params or TreeParams()
        self._root: Optional[_Node] = None
        self.n_features = 0
        self.node_count = 0

    # -- training ----------------------------------------------------------
    def fit(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> "RegressionTree":
        """Grow the tree on feature matrix ``X`` (NaN = missing)."""
        self.fit_predict(X, grad, hess)
        return self

    def fit_predict(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> np.ndarray:
        """Grow the tree and return each training row's leaf weight.

        The result equals ``predict(X)`` after :meth:`fit`, read off while
        growing instead of by a second traversal.
        """
        X = np.asarray(X, dtype=float)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(grad) != len(X) or len(hess) != len(X):
            raise ValueError("grad/hess length mismatch with X")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features = X.shape[1]
        grower = _Grower(X, grad, hess, self.params)
        self._root = grower.build(np.arange(len(X)), 0, depth=0)
        self.node_count = grower.node_count
        return grower.leaf_values

    # -- prediction -----------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weights for each row of ``X`` (vectorized traversal)."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = np.zeros(len(X))
        self._predict_into(self._root, X, np.arange(len(X)), out)
        return out

    def predict_row(self, row: Sequence[float]) -> float:
        """Leaf weight for one row of plain floats, walked in Python.

        Routes exactly like :meth:`predict`; for a single row it avoids
        numpy's per-call overhead at every level.
        """
        node = self._root
        if node is None:
            raise RuntimeError("tree is not fitted")
        while not node.is_leaf:
            value = row[node.feature]
            if value != value:  # NaN: the learned default direction
                go_left = node.default_left
            else:
                go_left = value < node.threshold
            node = node.left if go_left else node.right
        return node.value

    def _predict_into(
        self, node: _Node, X: np.ndarray, indices: np.ndarray, out: np.ndarray
    ) -> None:
        if node.is_leaf:
            out[indices] = node.value
            return
        values = X[indices, node.feature]
        missing = np.isnan(values)
        goes_left = values < node.threshold
        if node.default_left:
            goes_left = goes_left | missing
        else:
            goes_left = goes_left & ~missing
        assert node.left is not None and node.right is not None
        left_idx = indices[goes_left]
        right_idx = indices[~goes_left]
        if len(left_idx):
            self._predict_into(node.left, X, left_idx, out)
        if len(right_idx):
            self._predict_into(node.right, X, right_idx, out)

    # -- introspection -----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Actual depth of the grown tree (0 for a stump)."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def feature_usage(self) -> List[int]:
        """How many splits use each feature (crude importance measure)."""
        counts = [0] * self.n_features
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node is None or node.is_leaf:
                continue
            counts[node.feature] += 1
            stack.append(node.left)
            stack.append(node.right)
        return counts
