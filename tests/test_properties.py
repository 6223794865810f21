"""Property-based tests (hypothesis) on core invariants.

Covers the data structures whose correctness everything else rests on:
the event queue, device capacity accounting, the namespace, block
splitting, feature normalization, weight formulas, ROC metrics, and the
tree/boosting learners.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.hardware import DEFAULT_HIERARCHY, StorageDevice
from repro.common.errors import InsufficientSpaceError
from repro.common.units import MB, format_bytes, parse_bytes
from repro.core.weights import ExdWeights, LrfuWeights
from repro.dfs.block import split_into_block_sizes
from repro.dfs.namespace import FSDirectory, normalize_path
from repro.ml.features import FeatureSpec, build_feature_vector, label_for_window
from repro.ml.gbt import sigmoid
from repro.ml.metrics import auc, roc_curve
from repro.sim import Simulator


# --- simulator ---------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_simulator_executes_in_nondecreasing_time_order(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.at(t, lambda t=t: seen.append(sim.now()))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(times)


# --- devices -------------------------------------------------------------------
@given(
    st.lists(
        st.integers(min_value=1, max_value=64 * MB), min_size=1, max_size=40
    )
)
def test_device_accounting_never_negative_or_overcommitted(sizes):
    device = StorageDevice("d", DEFAULT_HIERARCHY.tier("SSD"), 256 * MB)
    held = {}
    for i, size in enumerate(sizes):
        try:
            device.allocate(i, size)
            held[i] = size
        except InsufficientSpaceError:
            pass
        assert 0 <= device.used <= device.capacity
    for i, size in list(held.items()):
        device.release(i, size)
    assert device.used == 0


# --- block splitting ---------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=10**9),
)
def test_block_sizes_sum_and_bounds(file_size, block_size):
    # Keep the block list size tractable (a 1-byte block size with a
    # terabyte file would build a trillion-entry list).
    assume(file_size // block_size <= 100_000)
    sizes = split_into_block_sizes(file_size, block_size)
    assert sum(sizes) == file_size
    assert all(0 < s <= block_size for s in sizes)
    if sizes:
        assert all(s == block_size for s in sizes[:-1])


# --- namespace -----------------------------------------------------------------------
_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


@given(st.lists(st.lists(_name, min_size=1, max_size=4), min_size=1, max_size=20))
def test_namespace_create_then_delete_restores_empty(path_parts):
    fs = FSDirectory()
    created = []
    for parts in path_parts:
        path = "/" + "/".join(parts)
        if fs.exists(path):
            continue
        try:
            fs.create_file(path, creation_time=0.0)
            created.append(path)
        except Exception:
            continue  # parent is a file, etc.
    assert fs.file_count() == len(created)
    for path in created:
        fs.delete(path)
    assert fs.file_count() == 0


@given(st.lists(_name, min_size=1, max_size=6))
def test_normalize_path_idempotent(parts):
    path = "/" + "//".join(parts) + "/"
    normalized = normalize_path(path)
    assert normalize_path(normalized) == normalized


# --- units ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10**15))
def test_format_parse_bytes_roundtrip_within_precision(value):
    text = format_bytes(value)
    parsed = parse_bytes(text)
    # Rendering keeps 2 decimals: round-trip within 1%.
    assert abs(parsed - value) <= max(0.01 * value, 1)


# --- features ----------------------------------------------------------------------------
@given(
    size=st.integers(min_value=0, max_value=100 * 2**30),
    creation=st.floats(min_value=0, max_value=1e5),
    gaps=st.lists(st.floats(min_value=0.1, max_value=1e5), max_size=20),
    after=st.floats(min_value=0.0, max_value=1e5),
)
def test_feature_vector_bounded_and_shaped(size, creation, gaps, after):
    accesses = []
    t = creation
    for gap in gaps:
        t += gap
        accesses.append(t)
    reference = t + after if accesses else creation + after
    spec = FeatureSpec()
    vector = build_feature_vector(spec, size, creation, accesses, reference)
    assert vector.shape == (spec.num_features,)
    present = vector[~np.isnan(vector)]
    assert np.all((present >= 0.0) & (present <= 1.0))


@given(
    window=st.floats(min_value=1.0, max_value=1e4),
    reference=st.floats(min_value=0.0, max_value=1e6),
    offsets=st.lists(st.floats(min_value=-1e5, max_value=1e5), max_size=10),
)
def test_label_matches_direct_definition(window, reference, offsets):
    accesses = [reference + o for o in offsets]
    expected = int(any(reference < t <= reference + window for t in accesses))
    assert label_for_window(accesses, reference, window) == expected


# --- weights -------------------------------------------------------------------------------
@given(
    access_gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
    )
)
def test_lrfu_weight_bounded_by_accumulation(access_gaps):
    fs = FSDirectory()
    file = fs.create_file("/f", creation_time=0.0)
    weights = LrfuWeights(half_life=3600.0)
    weights.on_create(file, 0.0)
    t = 0.0
    for gap in access_gaps:
        t += gap
        w = weights.on_access(file, t)
        assert 1.0 <= w <= len(access_gaps) + 1.0
    # Decay only shrinks the weight.
    assert weights.effective(file, t + 1e6) <= weights.raw_weight(file)


@given(
    access_gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
    )
)
def test_exd_weight_positive_and_decaying(access_gaps):
    fs = FSDirectory()
    file = fs.create_file("/f", creation_time=0.0)
    weights = ExdWeights()
    weights.on_create(file, 0.0)
    t = 0.0
    for gap in access_gaps:
        t += gap
        w = weights.on_access(file, t)
        assert w >= 1.0
    assert weights.effective(file, t) >= weights.effective(file, t + 1e7)


# --- ML metrics ----------------------------------------------------------------------------
@given(
    labels=st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_auc_bounded_and_flip_invariant(labels, seed):
    assume(0 < sum(labels) < len(labels))
    y = np.array(labels, dtype=float)
    scores = np.random.default_rng(seed).random(len(y))
    value = auc(y, scores)
    assert 0.0 <= value <= 1.0
    # Negating scores mirrors the AUC around 0.5.
    assert auc(y, -scores) == pytest.approx(1.0 - value, abs=1e-9)


@given(
    labels=st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=100),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roc_endpoints(labels, seed):
    assume(0 < sum(labels) < len(labels))
    y = np.array(labels, dtype=float)
    scores = np.random.default_rng(seed).random(len(y))
    fpr, tpr, _ = roc_curve(y, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == pytest.approx(1.0)
    assert tpr[-1] == pytest.approx(1.0)


@given(st.floats(min_value=-700, max_value=700))
def test_sigmoid_matches_reference(x):
    expected = 1.0 / (1.0 + math.exp(-x)) if x > -700 else 0.0
    assert sigmoid(np.array([x]))[0] == pytest.approx(expected, rel=1e-9)


# --- GBT -----------------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_gbt_probabilities_in_unit_interval(seed):
    from repro.ml.gbt import GBTParams, GradientBoostedTrees

    rng = np.random.default_rng(seed)
    X = rng.random((80, 3))
    y = (X[:, 0] > rng.random()).astype(int)
    assume(0 < y.sum() < len(y))
    model = GradientBoostedTrees(GBTParams(num_rounds=3, max_depth=3)).fit(X, y)
    probs = model.predict_proba(rng.random((40, 3)))
    assert np.all((probs >= 0.0) & (probs <= 1.0))
