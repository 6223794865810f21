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

* **Presort once per boosting call.**  :func:`presort` argsorts every
  feature column once (stable, NaN last); the rounds of one boosting
  call share it, and each node gets an ``(F, n)`` matrix holding the
  node's row ids in per-feature sorted order.  A stable sort restricted
  to a subset is the stable sort of that subset, so splitting a node's
  matrix with one boolean lookup keeps every row of each child exactly
  where a per-node argsort would put it.
* **Column pruning.**  Only a column with two distinct present values
  has a candidate boundary, and a subset of the rows cannot gain
  distinct values.  So :func:`presort` keeps only the columns with a
  candidate over all rows, and a node hands its children only the
  columns that had a candidate in the node.  Gains are computed per
  column and the kept columns stay in ascending order, so the pruned
  search finds the same split with the same tie-break.
* **One search per node, candidates only.**  A node takes prefix sums
  along the sorted axis and scores both default directions of just the
  real candidates, the (feature, boundary) cells between two distinct
  present values, over every feature at once.  Ties go to the first
  maximum in (feature, default direction, boundary) order, the
  per-feature loop's tie-break: lower feature first, then default-left
  before default-right, then the leftmost boundary.
* **Pairwise-sum exactness.**  The gradient mass of the missing values is
  ``G - G_present``, where ``G_present`` is numpy's *pairwise* sum of the
  present prefix, not its last prefix sum.  A row sum over a contiguous
  prefix (``stats[:, f, :count].sum(axis=1)``) reproduces the 1-D
  ``.sum()`` of that prefix bit for bit; a sequential sum such as
  ``np.add.reduceat`` would not.
* **Hessian prune.**  A split needs ``H_L >= min_child_weight`` and
  ``H_R >= min_child_weight``.  Hessians are non-negative, so ``H_L +
  H_R`` is the node's ``H`` up to rounding, and a node whose ``H`` falls
  short of ``2 * min_child_weight`` by more than the rounding slack cannot
  split: it becomes a leaf without a search.  The logistic hessian
  ``p (1 - p)`` is at most 0.25, so small boosting nodes often end here.

Batch prediction walks a :class:`FlatForest`: every (tree, row) pair
moves one level per step through flat node arrays, so a batch costs a
few numpy calls per level of the deepest tree, not a recursion per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Relative slack of the hessian prune: ``H_L + H_R`` can exceed the
#: node's ``H`` only by rounding, about ``n`` ulps for ``n`` rows.
_PRUNE_SLACK = 1e-9


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


class Presorted(NamedTuple):
    """A feature matrix sorted once, for any number of fits on it.

    Holds only the columns that can split: those with at least two
    distinct present values (see the module doc).
    """

    #: Feature-major copy of the kept columns: row j is X column
    #: ``features[j]``, C-contiguous.
    values: np.ndarray
    #: Row ids sorted by each kept column (stable, NaN last).
    order: np.ndarray
    #: The X column id of each kept column, ascending.
    features: np.ndarray


def presort(X: np.ndarray) -> Presorted:
    """Sort the splittable feature columns of ``X`` once (see the module doc)."""
    values = np.ascontiguousarray(X.T)
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    # NaNs sort last, so ``>`` finds two distinct present values.
    features = np.flatnonzero((ordered[:, 1:] > ordered[:, :-1]).any(axis=1))
    return Presorted(values[features], order[features], features)


class _Grower:
    """The state of one ``fit``: data, scratch space, training-row leaves.

    Discarded when the fit returns, so a fitted tree holds its nodes only.
    """

    def __init__(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        params: TreeParams,
        presorted: Presorted,
    ) -> None:
        m = len(X)
        self.params = params
        self.X = X
        self.grad_hess = np.stack((grad, hess))
        self.values_by_feature = presorted.values
        self.features = presorted.features
        self.offsets = (np.arange(len(self.features)) * m)[:, None]
        self.goes_left = np.zeros(m, dtype=bool)
        self.leaf_values = np.empty(m)
        self.node_count = 0

    def build(
        self, indices: np.ndarray, segment: np.ndarray, live: np.ndarray, depth: int
    ) -> _Node:
        """Grow the subtree over ``indices`` (ascending row ids).

        Row ``j`` of ``segment`` holds the same rows sorted by kept column
        ``live[j]``; ``live`` is ascending.
        """
        params = self.params
        node = _Node()
        self.node_count += 1
        # Each row of a contiguous (2, n) take sums like a 1-D ``.sum()``.
        g_sum, h_sum = self.grad_hess.take(indices, axis=1).sum(axis=1).tolist()
        node.value = _leaf_weight(g_sum, h_sum, params.reg_lambda)
        can_split = (
            depth < params.max_depth
            and len(indices) >= params.min_split_samples
            and h_sum >= 2.0 * params.min_child_weight * (1.0 - _PRUNE_SLACK)
        )
        found = self._best_split(segment, live, g_sum, h_sum) if can_split else None
        children = None
        if found is not None:
            split, searched = found
            if len(searched) < len(live):
                segment, live = segment[searched], live[searched]
            children = self._partition(indices, segment, split)
        if children is None:
            self.leaf_values[indices] = node.value
            return node
        (left_idx, left_segment), (right_idx, right_segment) = children
        node.is_leaf = False
        node.feature = split.feature
        node.threshold = split.threshold
        node.default_left = split.default_left
        node.left = self.build(left_idx, left_segment, live, depth + 1)
        node.right = self.build(right_idx, right_segment, live, depth + 1)
        return node

    def _partition(
        self, indices: np.ndarray, segment: np.ndarray, split: _SplitResult
    ) -> Optional[Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
        """Route a node's rows: ``(row ids, segment)`` of each child, or
        None if one child is empty.

        Each feature's sorted run of ``segment`` splits into the left
        rows and the right rows, each keeping its sorted order.
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
        return (
            (left_idx, segment[left_mask].reshape(n_features, n_left)),
            (right_idx, segment[~left_mask].reshape(n_features, -1)),
        )

    def _best_split(
        self, segment: np.ndarray, live: np.ndarray, g_sum: float, h_sum: float
    ) -> Optional[Tuple[_SplitResult, np.ndarray]]:
        """The best split of one node over its live features, or None.

        ``segment`` holds the node's rows sorted by each kept column in
        ``live``.  Returns the split and the rows of ``segment`` that had
        a candidate, the only ones a child can split on.  A best gain
        that is not positive (or NaN) is no split either.
        """
        params = self.params
        lam = params.reg_lambda
        n = segment.shape[1]
        values = self.values_by_feature.take(segment + self.offsets[live])
        # Boundary p (1 <= p < present) sits at column p - 1: the left
        # child takes the first p present rows.  It is a candidate when
        # the values on both sides differ; NaNs sort last, so ``>`` also
        # rules out every column that reaches a missing value.
        candidates = values[:, 1:] > values[:, :-1]
        features, columns = np.nonzero(candidates)
        k = len(features)
        if k == 0:
            return None
        stats = self.grad_hess.take(segment, axis=1)  # (2, F, n): grad, hess
        present = n - np.isnan(values).sum(axis=1)
        # Pairwise sums of each feature's present prefix (see module doc);
        # features with fewer than two present values have no candidate
        # and keep their full-row sum.
        present_sums = stats.sum(axis=2)
        for feature, count in enumerate(present.tolist()):
            if 2 <= count < n:
                present_sums[:, feature] = stats[:, feature, :count].sum(axis=1)
        missing = (np.array([[g_sum], [h_sum]]) - present_sums)[:, features]
        cum = np.cumsum(stats, axis=2)
        total = cum[:, features, present[features] - 1]
        # (G, H) of both children of every candidate: axes are (statistic,
        # child, default direction, candidate), direction 0 sending the
        # missing rows left.
        sides = np.empty((2, 2, 2, k))
        left = sides[:, 0, 1]
        left[...] = cum[:, features, columns]
        np.subtract(total, left, out=sides[:, 1, 0])
        np.add(left, missing, out=sides[:, 0, 0])
        np.add(sides[:, 1, 0], missing, out=sides[:, 1, 1])
        grads, hessians = sides
        fits = hessians >= params.min_child_weight
        valid = fits[0] & fits[1]
        # The gain 0.5 * (gl^2/(hl+lam) + gr^2/(hr+lam) - parent) - gamma,
        # operation by operation, in place.
        hessians += lam
        grads *= grads
        grads /= hessians
        gains = grads[0]
        gains += grads[1]
        gains -= _score(g_sum, h_sum, lam)
        gains *= 0.5
        gains -= params.gamma
        gains[~valid] = -np.inf
        best = gains.max()
        if not best > 0.0:
            return None
        # The first maximum in (feature, direction, boundary) order: the
        # per-feature scan's tie-break.
        hits = np.flatnonzero(gains == best)
        hit = int(hits[0])
        if len(hits) > 1:
            direction, rank = np.divmod(hits, k)
            keys = (features[rank] * 2 + direction) * n + columns[rank]
            hit = int(hits[np.argmin(keys)])
        direction, rank = divmod(hit, k)
        feature, column = int(features[rank]), int(columns[rank])
        split = _SplitResult(
            gain=float(best),
            feature=int(self.features[live[feature]]),
            threshold=float(
                0.5 * (values[feature, column] + values[feature, column + 1])
            ),
            default_left=direction == 0,
        )
        return split, np.flatnonzero(candidates.any(axis=1))


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
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        presorted: Optional[Presorted] = None,
    ) -> np.ndarray:
        """Grow the tree and return each training row's leaf weight.

        The result equals ``predict(X)`` after :meth:`fit`, read off while
        growing instead of by a second traversal.  ``presorted`` is
        :func:`presort` of the same ``X``, shared by the rounds of one
        boosting call; without it the fit sorts ``X`` itself.
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
        if presorted is None:
            presorted = presort(X)
        grower = _Grower(X, grad, hess, self.params, presorted)
        # With ``reg_lambda`` 0, the gain of a child whose hessian sum is
        # 0 divides by zero before the ``min_child_weight`` test masks it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self._root = grower.build(
                np.arange(len(X)),
                presorted.order,
                np.arange(len(presorted.features)),
                depth=0,
            )
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
        return FlatForest().sync([self]).leaf_values(X)[0]

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


class FlatForest:
    """Fitted trees as flat node arrays, for batch prediction.

    The nodes of all trees share one numbering, each tree's in preorder
    after the trees before it, and each field is one array indexed by
    node.  A leaf routes both ways to itself, so walking every (tree,
    row) pair ``depth`` steps lands each pair on its leaf, whatever depth
    that leaf is at.  :meth:`sync` follows a growing list of trees by
    flattening only the trees appended since the last call.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self.trees: List[RegressionTree] = []
        #: The deepest leaf of any tree: the steps a walk needs.
        self.depth = 0
        self.roots = np.empty(0, dtype=np.intp)
        self.feature = np.empty(0, dtype=np.intp)
        self.threshold = np.empty(0)
        self.default_left = np.empty(0, dtype=bool)
        #: ``children[2 * node + go_left]`` is the node a row moves to.
        self.children = np.empty(0, dtype=np.intp)
        self.value = np.empty(0)

    def sync(self, trees: Sequence[RegressionTree]) -> "FlatForest":
        """Follow ``trees``: append the trees new since the last call, or
        start over if ``trees`` no longer begins with the flattened ones."""
        done = self.trees
        if len(done) > len(trees) or any(a is not b for a, b in zip(done, trees)):
            self._clear()
        if len(self.trees) < len(trees):
            self._append(trees[len(self.trees) :])
            self.trees = list(trees)
        return self

    def _append(self, trees: Sequence[RegressionTree]) -> None:
        base = len(self.value)
        roots: List[int] = []
        feature: List[int] = []
        threshold: List[float] = []
        default_left: List[bool] = []
        children: List[int] = []
        value: List[float] = []
        for tree in trees:
            if tree._root is None:
                raise RuntimeError("tree is not fitted")
            roots.append(base + len(value))
            # (node, its depth, the slot of ``children`` pointing at it)
            stack: List[Tuple[_Node, int, int]] = [(tree._root, 0, -1)]
            while stack:
                node, depth, slot = stack.pop()
                local = len(value)
                if slot >= 0:
                    children[slot] = base + local
                children += [base + local, base + local]
                feature.append(max(node.feature, 0))
                threshold.append(node.threshold)
                default_left.append(node.default_left)
                value.append(node.value)
                self.depth = max(self.depth, depth)
                if not node.is_leaf:
                    stack.append((node.right, depth + 1, 2 * local))
                    stack.append((node.left, depth + 1, 2 * local + 1))
        self.roots = np.concatenate((self.roots, np.array(roots, dtype=np.intp)))
        self.feature = np.concatenate((self.feature, np.array(feature, dtype=np.intp)))
        self.threshold = np.concatenate((self.threshold, threshold))
        self.default_left = np.concatenate((self.default_left, default_left))
        self.children = np.concatenate((self.children, np.array(children, np.intp)))
        self.value = np.concatenate((self.value, value))

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Each tree's leaf weight for each row of 2-D ``X``: ``(trees, rows)``.

        Rows route as :meth:`RegressionTree.predict_row` routes them: a
        value below the threshold goes left, NaN the default direction.
        """
        n_rows, n_features = X.shape
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1)
        if self.depth:
            cells = X.ravel()
            row_starts = np.arange(n_rows) * n_features
            for _ in range(self.depth):
                values = cells.take(row_starts + self.feature.take(nodes))
                go_left = values < self.threshold.take(nodes)
                go_left |= np.isnan(values) & self.default_left.take(nodes)
                nodes = self.children.take(2 * nodes + go_left)
        return self.value.take(nodes)
