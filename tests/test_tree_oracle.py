"""Differential tests: the vectorized tree learner against a reference oracle.

The oracle below is the straightforward exact greedy split search: for
each node, for each feature, argsort the present values, take prefix
sums and scan both default directions.  It is kept here, as a test
oracle only, so the feature-vectorized learner in
:mod:`repro.ml.tree` can be checked to grow bit-identical trees.
"""

import json
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.access_model import PAPER_GBT_PARAMS
from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.serialize import model_from_dict, model_to_dict, tree_to_dict
from repro.ml.tree import RegressionTree, TreeParams, _leaf_weight, _Node, _score
from repro.ml.tree import _SplitResult

# -- the reference oracle ------------------------------------------------------


def _oracle_best_split(params, X, grad, hess, indices, g_sum, h_sum):
    parent_score = _score(g_sum, h_sum, params.reg_lambda)
    best: Optional[_SplitResult] = None
    g = grad[indices]
    h = hess[indices]
    for feature in range(X.shape[1]):
        values = X[indices, feature]
        present = ~np.isnan(values)
        n_present = int(present.sum())
        if n_present < 2:
            continue
        vals = values[present]
        order = np.argsort(vals, kind="stable")
        vals_sorted = vals[order]
        g_sorted = g[present][order]
        h_sorted = h[present][order]
        g_missing = float(g.sum() - g_sorted.sum())
        h_missing = float(h.sum() - h_sorted.sum())
        # Prefix sums: left split of position i contains samples [0, i).
        g_cum = np.cumsum(g_sorted)
        h_cum = np.cumsum(h_sorted)
        # Candidate boundaries between distinct consecutive values.
        distinct = vals_sorted[1:] != vals_sorted[:-1]
        positions = np.nonzero(distinct)[0] + 1
        if len(positions) == 0:
            continue
        g_left = g_cum[positions - 1]
        h_left = h_cum[positions - 1]
        g_right = g_cum[-1] - g_left
        h_right = h_cum[-1] - h_left
        thresholds = 0.5 * (vals_sorted[positions - 1] + vals_sorted[positions])
        lam = params.reg_lambda
        # Evaluate both default directions for the missing values.
        for default_left in (True, False):
            gl = g_left + (g_missing if default_left else 0.0)
            hl = h_left + (h_missing if default_left else 0.0)
            gr = g_right + (0.0 if default_left else g_missing)
            hr = h_right + (0.0 if default_left else h_missing)
            gains = (
                0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
                - params.gamma
            )
            valid = (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
            if not valid.any():
                continue
            gains = np.where(valid, gains, -np.inf)
            pick = int(np.argmax(gains))
            gain = float(gains[pick])
            if best is None or gain > best.gain:
                best = _SplitResult(
                    gain=gain,
                    feature=feature,
                    threshold=float(thresholds[pick]),
                    default_left=default_left,
                )
    return best


def _oracle_build(tree, X, grad, hess, indices, depth):
    params = tree.params
    node = _Node()
    tree.node_count += 1
    g_sum = float(grad[indices].sum())
    h_sum = float(hess[indices].sum())
    node.value = _leaf_weight(g_sum, h_sum, params.reg_lambda)
    if depth >= params.max_depth or len(indices) < params.min_split_samples:
        return node
    split = _oracle_best_split(params, X, grad, hess, indices, g_sum, h_sum)
    if split is None or split.gain <= 0.0:
        return node
    values = X[indices, split.feature]
    missing = np.isnan(values)
    goes_left = values < split.threshold
    if split.default_left:
        goes_left = goes_left | missing
    else:
        goes_left = goes_left & ~missing
    left_idx = indices[goes_left]
    right_idx = indices[~goes_left]
    if len(left_idx) == 0 or len(right_idx) == 0:
        return node
    node.is_leaf = False
    node.feature = split.feature
    node.threshold = split.threshold
    node.default_left = split.default_left
    node.left = _oracle_build(tree, X, grad, hess, left_idx, depth + 1)
    node.right = _oracle_build(tree, X, grad, hess, right_idx, depth + 1)
    return node


def oracle_fit(X, grad, hess, params):
    """A tree grown by the per-feature reference search."""
    tree = RegressionTree(params)
    tree.n_features = X.shape[1]
    tree._root = _oracle_build(tree, X, grad, hess, np.arange(len(X)), 0)
    return tree


# -- problem generation ----------------------------------------------------------


def make_problem(seed, m, n_features, nan_fracs, pool):
    """A feature matrix with duplicates and NaNs, plus logistic targets.

    ``pool`` > 0 draws each column from that many distinct values (ties);
    0 draws continuous values.  Column ``j`` is missing with probability
    ``nan_fracs[j % len(nan_fracs)]``.
    """
    rng = np.random.default_rng(seed)
    if pool:
        X = rng.integers(0, pool, (m, n_features)) / pool
    else:
        X = rng.random((m, n_features))
    for j in range(n_features):
        X[rng.random(m) < nan_fracs[j % len(nan_fracs)], j] = np.nan
    score = np.nan_to_num(X, nan=0.5) @ rng.standard_normal(n_features)
    y = (score + 0.5 * rng.standard_normal(m) > 0).astype(float)
    prob = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.5, m)))
    grad = prob - y
    hess = np.maximum(prob * (1.0 - prob), 1e-16)
    return X, grad, hess


def serialized(tree):
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def assert_same_tree(X, grad, hess, params):
    fast = RegressionTree(params)
    leaves = fast.fit_predict(X, grad, hess)
    oracle = oracle_fit(X, grad, hess, params)
    assert serialized(fast) == serialized(oracle)
    assert fast.node_count == oracle.node_count
    # The training-row leaves read off while growing are predict(X)'s.
    assert np.array_equal(leaves, oracle.predict(X))


# -- differential properties ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 400),
    n_features=st.integers(1, 6),
    nan_fracs=st.lists(
        st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]), min_size=1, max_size=4
    ),
    pool=st.sampled_from([0, 2, 3, 10, 50]),
    max_depth=st.integers(1, 20),
    min_child_weight=st.sampled_from([0.0, 0.5, 1.0]),
    reg_lambda=st.sampled_from([1.0, 0.1]),
    gamma=st.sampled_from([0.0, 0.01]),
)
def test_grows_same_tree_as_oracle(
    seed, m, n_features, nan_fracs, pool, max_depth, min_child_weight,
    reg_lambda, gamma,
):
    X, grad, hess = make_problem(seed, m, n_features, nan_fracs, pool)
    params = TreeParams(
        max_depth=max_depth,
        reg_lambda=reg_lambda,
        gamma=gamma,
        min_child_weight=min_child_weight,
    )
    assert_same_tree(X, grad, hess, params)


@pytest.mark.parametrize("min_child_weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3, 127, 128, 129, 300, 700])
def test_row_counts_around_pairwise_blocks(m, min_child_weight):
    # Above 128 rows numpy's pairwise sum recurses; the missing mass must
    # still match the oracle's 1-D sums bit for bit.
    X, grad, hess = make_problem(m, m, 5, [0.0, 0.3, 1.0, 0.8], 0)
    params = TreeParams(max_depth=20, min_child_weight=min_child_weight)
    assert_same_tree(X, grad, hess, params)


@pytest.mark.parametrize("nudge", [-1e-6, -1e-12, 0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("min_child_weight", [0.5, 1.0])
def test_hessian_straddling_twice_min_child_weight(nudge, min_child_weight):
    # Equal hessians summing to about 2 * min_child_weight, and gradients
    # that reward the middle split, the only one both children can
    # afford: the root splits exactly when the children reach the weight.
    m = 16
    X, _, _ = make_problem(3, m, 3, [0.0, 0.4], 0)
    X[:, 0] = np.arange(m)
    grad = np.where(np.arange(m) < m // 2, 1.0, -1.0)
    hess = np.full(m, (2.0 * min_child_weight + nudge) / m)
    params = TreeParams(max_depth=6, min_child_weight=min_child_weight)
    assert_same_tree(X, grad, hess, params)
    tree = RegressionTree(params).fit(X, grad, hess)
    assert (tree.node_count > 1) == (nudge >= 0.0)


def test_all_nan_and_duplicate_columns():
    X, grad, hess = make_problem(9, 200, 4, [0.0], 3)
    X[:, 1] = np.nan
    X[:, 2] = 0.25
    assert_same_tree(X, grad, hess, TreeParams(max_depth=20, min_child_weight=0.0))


def test_min_split_samples_below_two():
    X, grad, hess = make_problem(4, 40, 3, [0.2], 4)
    params = TreeParams(max_depth=20, min_child_weight=0.0, min_split_samples=1)
    assert_same_tree(X, grad, hess, params)


@pytest.mark.parametrize("seed, m", [(11, 832), (12, 1500)])
def test_compaction_shaped_problem(seed, m):
    # The shape of a replay-reservoir refit: 832 or more rows over 15
    # features, most columns partly missing, values from a small pool so
    # ties are common.  Its upper nodes span many thousands of cells.
    X, grad, hess = make_problem(seed, m, 15, [0.0, 0.3, 0.6, 0.9], 20)
    assert_same_tree(X, grad, hess, PAPER_GBT_PARAMS.tree_params())


def _root_split(X, grad, hess, params):
    assert_same_tree(X, grad, hess, params)
    root = RegressionTree(params).fit(X, grad, hess)._root
    assert not root.is_leaf
    return root.feature, root.default_left, root.threshold


def test_equal_gains_take_first_feature_default_left_leftmost_boundary():
    # Two identical columns without missing values, and gradients whose
    # best boundaries (after 2 and after 6 rows) score the same gain;
    # every sum is exact, so the missing mass is exactly zero and both
    # default directions score the same too.
    column = np.arange(8.0)
    X = np.column_stack((column, column))
    grad = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    hess = np.full(8, 0.25)
    params = TreeParams(max_depth=1, min_child_weight=0.5)
    assert _root_split(X, grad, hess, params) == (0, True, 1.5)


def test_equal_gains_order_feature_before_direction():
    # Feature 0 reaches the best gain only with the missing rows sent
    # right; feature 1 (no missing values) reaches the same gain in both
    # directions.  The first feature wins, with its own direction, even
    # though the other's default-left candidate is the same gain.
    partly_missing = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.nan]
    X = np.column_stack((partly_missing, np.arange(8.0)))
    grad = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    hess = np.full(8, 0.25)
    params = TreeParams(max_depth=1, min_child_weight=0.5)
    assert _root_split(X, grad, hess, params) == (0, False, 3.5)


# -- column pruning ---------------------------------------------------------------


def _features_used(node):
    """The features of every split under ``node``."""
    if node.is_leaf:
        return set()
    return {node.feature} | _features_used(node.left) | _features_used(node.right)


@pytest.mark.parametrize("filler", [0.5, np.nan])
def test_column_pruned_inside_one_subtree(filler):
    # The root splits on feature 0, which is constant in the left subtree;
    # feature 1 is constant (or all missing) in the right one.  Each
    # subtree drops the column it cannot split on, and still splits on
    # the others.
    rng = np.random.default_rng(5)
    m = 120
    left = np.arange(m) < m // 2
    X = rng.integers(1, 9, (m, 3)) / 8
    X[left, 0] = 0.0
    X[~left, 1] = filler
    grad = np.where(left, 3.0, -3.0) + rng.standard_normal(m)
    hess = np.full(m, 0.25)
    # Without ``reg_lambda`` every split of rows with unequal mean
    # gradients gains, so both subtrees grow.
    params = TreeParams(max_depth=20, reg_lambda=0.0, min_child_weight=0.0)
    assert_same_tree(X, grad, hess, params)
    root = RegressionTree(params).fit(X, grad, hess)._root
    assert (root.feature, root.threshold) == (0, 0.0625)
    assert _features_used(root.left) == {1, 2}
    assert _features_used(root.right) == {0, 2}


@pytest.mark.parametrize("filler", [0.25, np.nan])
def test_equal_gains_across_an_unsplittable_column(filler):
    # The same column at X ids 1 and 3, an unsplittable column between
    # them and an all-missing one before: the tie goes to X id 1.
    column = np.arange(8.0)
    X = np.column_stack((np.full(8, np.nan), column, np.full(8, filler), column))
    grad = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    hess = np.full(8, 0.25)
    params = TreeParams(max_depth=1, min_child_weight=0.5)
    assert _root_split(X, grad, hess, params) == (1, True, 1.5)


def _shift_features(node, shift):
    if "leaf" not in node:
        node["feature"] += shift
        _shift_features(node["left"], shift)
        _shift_features(node["right"], shift)


def test_leading_all_nan_columns_keep_x_column_ids():
    X, grad, hess = make_problem(17, 300, 4, [0.0, 0.3], 10)
    padded = np.column_stack((np.full((300, 2), np.nan), X))
    params = TreeParams(max_depth=20, min_child_weight=0.0)
    assert_same_tree(padded, grad, hess, params)
    tree = RegressionTree(params).fit(padded, grad, hess)
    usage = tree.feature_usage()
    assert usage[:2] == [0, 0]
    assert usage[2:] == RegressionTree(params).fit(X, grad, hess).feature_usage()

    y = (grad < 0).astype(int)
    gbt_params = GBTParams(num_rounds=4, max_depth=20)
    model = GradientBoostedTrees(gbt_params).fit(padded, y)
    expected = model_to_dict(GradientBoostedTrees(gbt_params).fit(X, y))
    for tree_dict in expected["trees"]:
        tree_dict["n_features"] += 2
        _shift_features(tree_dict["root"], 2)
    assert model_to_dict(model) == expected
    assert model.feature_usage()[:2] == [0, 0]


# -- prediction agreement ---------------------------------------------------------


@pytest.fixture(scope="module")
def paper_model():
    X, _, _ = make_problem(21, 500, 15, [0.0, 0.0, 0.3, 0.7, 0.95], 40)
    y = (np.nan_to_num(X[:, 0], nan=1.0) + np.isnan(X[:, 3]) > 0.8).astype(int)
    model = GradientBoostedTrees(PAPER_GBT_PARAMS).fit(X[:300], y[:300])
    model.fit_increment(X[300:], y[300:])
    return model, X


def test_single_row_margin_matches_batch(paper_model):
    model, X = paper_model
    batch = model.predict_margin(X)
    singles = np.array([model.predict_margin(row)[0] for row in X])
    assert np.array_equal(singles, batch)
    probs = model.predict_proba(X)
    assert [model.predict_one(row) for row in X] == probs.tolist()


def walked_margins(model, X):
    """Each row's margin summed tree by tree over single-row walks."""
    margins = []
    for row in X.tolist():
        margin = model.base_margin
        for tree in model.trees:
            margin += model.params.learning_rate * tree.predict_row(row)
        margins.append(margin)
    return np.array(margins)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depths=st.lists(st.sampled_from([0, 1, 3, 20]), min_size=1, max_size=12),
    n_rows=st.integers(2, 80),
)
def test_batch_margins_match_single_row_walks(seed, depths, n_rows):
    # Stumps next to depth-20 trees, queried with rows that are partly
    # or wholly missing: every (tree, row) pair walks the forest's full
    # depth, and leaves reached early must stay put.
    X, grad, hess = make_problem(seed, 300, 5, [0.0, 0.2, 0.9], 10)
    rng = np.random.default_rng(seed)
    params = [TreeParams(max_depth=d, min_child_weight=0.0) for d in depths]
    trees = [RegressionTree(p).fit(X, rng.permutation(grad), hess) for p in params]
    model = GradientBoostedTrees(GBTParams(learning_rate=0.3))
    model.trees = trees
    queries, _, _ = make_problem(seed + 1, n_rows, 5, [0.1, 0.5], 10)
    queries[0] = np.nan
    queries[-1] = X[0]
    assert np.array_equal(model.predict_margin(queries), walked_margins(model, queries))
    for tree in trees:
        walked = [tree.predict_row(row) for row in queries.tolist()]
        assert tree.predict(queries).tolist() == walked


def test_flat_forest_follows_the_tree_list():
    X, _, _ = make_problem(31, 400, 6, [0.0, 0.4, 0.9], 12)
    y = (np.nan_to_num(X[:, 0], nan=0.7) + np.isnan(X[:, 2]) > 0.6).astype(int)
    model = GradientBoostedTrees(GBTParams(num_rounds=3, max_depth=8)).fit(X, y)

    def assert_current():
        assert np.array_equal(model.predict_margin(X), walked_margins(model, X))

    assert_current()
    model.fit_increment(X[:150], y[:150])  # appended trees
    assert len(model.trees) == 6
    assert_current()
    model.trees = model.trees[:2]  # a shorter list
    assert_current()
    model.trees = model.trees[::-1]  # as long, other trees
    assert_current()
    model.trees[0] = model.trees[1]  # replaced in place
    assert_current()
    model.trees = []  # none at all: the base margin
    assert np.array_equal(model.predict_margin(X), np.full(len(X), model.base_margin))
    model.fit(X, y)
    assert_current()
    clone = model_from_dict(model_to_dict(model))
    assert np.array_equal(clone.predict_margin(X), model.predict_margin(X))


def test_serialized_round_trip_predicts_identically(paper_model):
    model, X = paper_model
    clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert np.array_equal(clone.predict_margin(X), model.predict_margin(X))
    for row in X[:50]:
        assert clone.predict_margin(row)[0] == model.predict_margin(row)[0]


def test_unfitted_single_row_is_base_margin():
    model = GradientBoostedTrees(GBTParams(base_score=0.9))
    assert np.array_equal(
        model.predict_margin(np.ones(3)), model.predict_margin(np.ones((2, 3)))[:1]
    )


def test_nan_columns_fit_without_runtime_warnings():
    X, _, _ = make_problem(5, 300, 6, [0.0, 1.0, 0.6, 0.95], 5)
    y = (np.nan_to_num(X[:, 0]) > 0.5).astype(int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reg_lambda in (1.0, 0.0):
            params = GBTParams(num_rounds=5, max_depth=20, reg_lambda=reg_lambda)
            GradientBoostedTrees(params).fit(X, y)
