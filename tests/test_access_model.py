"""Tests for the online file-access predictor."""

import numpy as np
import pytest

from repro.common.units import MINUTES
from repro.ml.access_model import FileAccessModel, LearningMode, TrainingPoint
from repro.ml.features import build_feature_vector
from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.serialize import model_to_dict


def feed_periodic_pattern(model, n_files=40, periods=(600.0, 7200.0), horizon=20000.0):
    """Synthetic stream: files re-accessed with per-file period.

    Short-period files are accessed within any 30-minute window; the
    long-period files are not — a cleanly learnable rule.
    """
    t = 0.0
    while t < horizon:
        t += 60.0
        for i in range(n_files):
            period = periods[i % len(periods)]
            accesses = [x for x in np.arange(0.0, t + 1, period)][-12:]
            model.add_observation(
                size=64 * 2**20, creation_time=0.0, access_times=accesses, now=t
            )


class TestTrainingPointGeneration:
    def make(self, **kw):
        return FileAccessModel(window=30 * MINUTES, **kw)

    def test_reference_time_shifted_back(self):
        model = self.make()
        point = model.make_training_point(1, 0.0, [1000.0, 1900.0], now=2000.0)
        assert point is not None
        # Access at 1900 is inside (200, 2000] -> positive label.
        assert point.label == 1

    def test_negative_label_when_idle(self):
        model = self.make()
        point = model.make_training_point(1, 0.0, [10.0], now=10000.0)
        assert point is not None
        assert point.label == 0

    def test_none_when_file_younger_than_window(self):
        model = self.make()
        assert model.make_training_point(1, 1900.0, [], now=2000.0) is None

    def test_observation_counter(self):
        model = self.make()
        model.add_observation(1, 0.0, [], now=5000.0)
        assert model.points_seen == 1


class TestWarmupGating:
    def test_not_ready_without_data(self):
        model = FileAccessModel(window=1800.0)
        assert not model.ready
        assert not model.is_fitted

    def test_becomes_ready_on_learnable_stream(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=6),
            min_eval_points=10,
        )
        feed_periodic_pattern(model)
        assert model.is_fitted
        assert model.rolling_error_rate < 0.2
        assert model.ready

    def test_prediction_separates_hot_and_cold(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=6),
            min_eval_points=10,
        )
        feed_periodic_pattern(model)
        assert model.ready
        now = 21000.0

        def predict(accesses):
            # The reference time equals ``now`` for predictions (Sec 4.4).
            x = build_feature_vector(model.spec, 64 * 2**20, 0.0, accesses, now)
            return model.model.predict_one(x)

        # Hot: 10-minute period, next access well inside the 30min window.
        hot = predict(list(np.arange(0, now, 600.0)[-12:]))
        # Cold: 2-hour period, mid-cycle (next access ~1h away, outside
        # the window) — in-distribution for the training stream.
        cold = predict(list(np.arange(0.0, now - 3500.0, 7200.0)[-12:]))
        assert hot > cold

    def test_accuracy_history_recorded(self):
        model = FileAccessModel(
            window=1800.0, gbt_params=GBTParams(num_rounds=3, max_depth=4)
        )
        feed_periodic_pattern(model, horizon=8000.0)
        assert len(model.accuracy_history) > 0
        timestamps = [t for t, _ in model.accuracy_history]
        assert timestamps == sorted(timestamps)


class TestLearningModes:
    def test_retrain_mode_defers_training(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        feed_periodic_pattern(model, horizon=4000.0)
        assert not model.is_fitted
        assert model.retrain()
        assert model.is_fitted

    def test_oneshot_trains_once(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.ONESHOT)
        feed_periodic_pattern(model, horizon=4000.0)
        assert model.train_now()
        trees_after_first = model.model.num_trees
        feed_periodic_pattern(model, horizon=4000.0)
        assert model.model.num_trees == trees_after_first

    def test_train_now_requires_both_classes(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        # Only cold observations -> single class.
        for t in range(2000, 10000, 500):
            model.add_observation(1, 0.0, [10.0], now=float(t))
        assert not model.train_now()

    def test_dataset_export(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        feed_periodic_pattern(model, horizon=3000.0)
        X, y, t = model.dataset()
        assert len(X) == len(y) == len(t) == model.points_seen

    def test_dataset_empty_raises(self):
        with pytest.raises(ValueError):
            FileAccessModel(window=60.0).dataset()


class TestCompaction:
    def test_tree_count_bounded(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=4, max_trees=20),
            batch_size=32,
        )
        feed_periodic_pattern(model, horizon=15000.0)
        # Compaction keeps the ensemble near the cap (fit + one increment).
        assert model.model.num_trees <= 20

    def test_single_fit_matches_fit_then_increment(self):
        # Compaction fits twice the rounds in one call; the trees are the
        # ones a fit followed by one more increment grows.
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=6, max_trees=1000),
            batch_size=32,
        )
        feed_periodic_pattern(model, horizon=6000.0)
        X = np.vstack([p.features for p in model._replay])
        y = np.array([p.label for p in model._replay])
        assert len(np.unique(y)) == 2
        reference = GradientBoostedTrees(model.model.params).fit(X, y)
        reference.fit_increment(X, y, num_rounds=5)
        model._compact()
        assert model.model.num_trees == 10
        assert model_to_dict(model.model) == model_to_dict(reference)
        assert np.array_equal(
            model.model.predict_margin(X), reference.predict_margin(X)
        )

    @staticmethod
    def feed_batch(model, rng, labels):
        """One batch of random points with the given labels."""
        for label in labels:
            features = rng.integers(0, 6, 4) / 6.0
            model.add_point(TrainingPoint(features, int(label), timestamp=0.0))

    def test_compacting_batch_skips_its_batch_fit(self):
        # Two batches grow 20 trees; the third would take the ensemble to
        # 30, past the cap of 25, so it refits the reservoir instead, in
        # its only ``fit_increment`` call.  Its replay picks are drawn all
        # the same: the random stream matches an uncapped model's.
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 2, 16) for _ in range(3)]
        models = {}
        for cap in (25, None):
            models[cap] = FileAccessModel(
                window=1800.0,
                gbt_params=GBTParams(num_rounds=10, max_depth=4, max_trees=cap),
                batch_size=16,
            )
            points = np.random.default_rng(4)
            for labels in batches[:2]:
                self.feed_batch(models[cap], points, labels)
            assert models[cap].model.num_trees == 20
            calls = []
            fit_increment = models[cap].model.fit_increment

            def spy(X, y, num_rounds=None):
                calls.append(num_rounds)
                return fit_increment(X, y, num_rounds)

            models[cap].model.fit_increment = spy
            self.feed_batch(models[cap], points, batches[2])
            assert calls == ([20] if cap else [None])
        model = models[25]
        assert model.trainings == 3
        X = np.vstack([p.features for p in model._replay])
        y = np.array([p.label for p in model._replay])
        reference = GradientBoostedTrees(model.model.params).fit_increment(
            X, y, num_rounds=20
        )
        assert model_to_dict(model.model) == model_to_dict(reference)
        state = model._rng.bit_generator.state
        assert state == models[None]._rng.bit_generator.state

    def test_single_class_reservoir_grows_past_the_cap(self):
        # The reservoir holds only the newest batch; once that batch is a
        # single class the compaction cannot refit, and the batch fit
        # goes ahead as if there were no cap.
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=3, max_depth=3, max_trees=5),
            batch_size=8,
            replay_size=8,
        )
        rng = np.random.default_rng(6)
        self.feed_batch(model, rng, [0, 1] * 4)
        assert model.model.num_trees == 3
        self.feed_batch(model, rng, [0] * 8)
        self.feed_batch(model, rng, [0] * 8)
        assert model.model.num_trees == 9
        assert model.trainings == 3

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FileAccessModel(window=0.0)
