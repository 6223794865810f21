"""The online file-access predictor (paper Secs 4.2-4.4).

:class:`FileAccessModel` owns a gradient-boosted-tree classifier for one
class-window size ``w`` (30 minutes for the upgrade model, 6 hours for
the downgrade model) and handles:

* **training-point generation** — at time ``t_c``, set the reference time
  ``t_r = t_c - w``, build features from accesses at or before ``t_r``,
  and label by whether the file was accessed in ``(t_r, t_c]``;
* **incremental learning** — batches of new points extend the ensemble
  via margin continuation (optionally mixed with a replay reservoir of
  older points for stability);
* **warm-up gating** — every ``eval_every``-th point is first used to
  *evaluate* the current model (predict, compare, record) and only then
  for training; predictions are served only once the rolling error rate
  drops below a threshold (Sec 4.4);
* **accuracy history** — the timestamped evaluation outcomes behind the
  Fig 16/17 learning-mode and adaptation studies.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.features import FeatureSpec, build_feature_vector, label_for_window
from repro.ml.gbt import GBTParams, GradientBoostedTrees


class LearningMode(enum.Enum):
    """How the model consumes new training data over time (Fig 16)."""

    #: Extend the ensemble with new rounds on every full batch.
    INCREMENTAL = "incremental"
    #: Accumulate data; refit only when :meth:`FileAccessModel.retrain`
    #: is called (the paper retrains hourly).
    RETRAIN = "retrain"
    #: Fit once on the data seen so far (:meth:`train_now`), never again.
    ONESHOT = "oneshot"


@dataclass(frozen=True)
class TrainingPoint:
    """One (features, label) pair stamped with its generation time."""

    features: np.ndarray
    label: int
    timestamp: float


#: GBT hyperparameters the paper selected by grid search (Sec 4.3).
PAPER_GBT_PARAMS = GBTParams(num_rounds=10, max_depth=20, max_trees=120)


class FileAccessModel:
    """Predicts whether a file will be accessed within the next ``window``."""

    def __init__(
        self,
        window: float,
        spec: Optional[FeatureSpec] = None,
        gbt_params: Optional[GBTParams] = None,
        mode: LearningMode = LearningMode.INCREMENTAL,
        batch_size: int = 64,
        eval_every: int = 10,
        eval_window: int = 200,
        # The paper gates on an error rate of e.g. 0.01 (Sec 4.4), which
        # its production traces support; the synthetic workloads here
        # carry more irreducible label noise, so the default gate only
        # rejects models that are useless for *ranking* files.
        ready_error_threshold: float = 0.2,
        min_eval_points: int = 20,
        replay_size: int = 2000,
        replay_ratio: float = 1.0,
        seed: Optional[int] = 7,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self.spec = spec or FeatureSpec()
        self.model = GradientBoostedTrees(params=gbt_params or PAPER_GBT_PARAMS)
        self.mode = mode
        self.batch_size = batch_size
        self.eval_every = eval_every
        self.ready_error_threshold = ready_error_threshold
        self.min_eval_points = min_eval_points
        self.replay_ratio = replay_ratio
        self._rng = np.random.default_rng(seed)
        self._batch: List[TrainingPoint] = []
        self._history: List[TrainingPoint] = []
        self._replay: Deque[TrainingPoint] = deque(maxlen=replay_size)
        self._recent_evals: Deque[bool] = deque(maxlen=eval_window)
        self.accuracy_history: List[Tuple[float, bool]] = []
        self.points_seen = 0
        self.trainings = 0

    # -- training-point generation (Sec 4.2) ---------------------------------
    def make_training_point(
        self,
        size: int,
        creation_time: float,
        access_times: Sequence[float],
        now: float,
        tier_level: Optional[int] = None,
    ) -> Optional[TrainingPoint]:
        """Generate a point with reference time ``now - window``.

        Returns None when the file did not exist at the reference time
        (no past to featurize).  ``tier_level`` feeds the optional tier
        feature (ignored unless ``spec.include_tier``).
        """
        reference = now - self.window
        if reference < creation_time:
            return None
        features = build_feature_vector(
            self.spec, size, creation_time, access_times, reference,
            tier_level=tier_level,
        )
        label = label_for_window(access_times, reference, self.window)
        return TrainingPoint(features=features, label=label, timestamp=now)

    # -- data ingestion ---------------------------------------------------------
    def add_observation(
        self,
        size: int,
        creation_time: float,
        access_times: Sequence[float],
        now: float,
        tier_level: Optional[int] = None,
    ) -> Optional[TrainingPoint]:
        """Generate and ingest a training point for one file at ``now``."""
        point = self.make_training_point(
            size, creation_time, access_times, now, tier_level=tier_level
        )
        if point is not None:
            self.add_point(point)
        return point

    def add_point(self, point: TrainingPoint) -> None:
        """Ingest a pre-built training point (evaluation-first, then train)."""
        self.points_seen += 1
        if self.model.is_fitted and self.points_seen % self.eval_every == 0:
            prob = self.model.predict_one(point.features)
            correct = (prob >= 0.5) == bool(point.label)
            self._recent_evals.append(correct)
            self.accuracy_history.append((point.timestamp, correct))
        self._batch.append(point)
        self._history.append(point)
        if (
            self.mode is LearningMode.INCREMENTAL
            and len(self._batch) >= self.batch_size
        ):
            self._train_incremental_batch()

    def _train_incremental_batch(self) -> None:
        batch = list(self._batch)
        self._batch.clear()
        replay_count = int(len(batch) * self.replay_ratio)
        if replay_count and len(self._replay):
            picks = self._rng.choice(
                len(self._replay),
                size=min(replay_count, len(self._replay)),
                replace=False,
            )
            batch.extend(self._replay[int(i)] for i in picks)
        X = np.vstack([p.features for p in batch])
        y = np.array([p.label for p in batch])
        fitted = self.model.is_fitted
        if not fitted and len(np.unique(y)) < 2:
            # Can't bootstrap a classifier from a single class; wait.
            self._batch = batch[: self.batch_size]
            return
        self.trainings += 1
        for point in batch[: self.batch_size]:
            self._replay.append(point)
        # A batch fit that takes the ensemble past its cap would be
        # thrown away by the compaction after it: compact instead.
        cap = self.model.params.max_trees
        grown = self.model.num_trees + self.model.params.num_rounds
        if cap is not None and grown > cap and self._compact():
            return
        if fitted:
            self.model.fit_increment(X, y)
        else:
            self.model.fit(X, y)

    def _compact(self) -> bool:
        """Refit from scratch on the replay reservoir; True if it refit.

        Bounds the ensemble size (prediction latency and the ~200KB
        memory footprint of Sec 7.7) without corrupting the additive
        model the way dropping trees would.  An empty or single-class
        reservoir cannot be refit: the model is left as it is.  The
        refit replaces every tree, so a batch whose fit would cross the
        cap compacts instead of fitting (see
        :meth:`_train_incremental_batch`).
        """
        if not self._replay:
            return False
        X = np.vstack([p.features for p in self._replay])
        y = np.array([p.label for p in self._replay])
        if len(np.unique(y)) < 2:
            return False
        # Twice the rounds of one batch: the reservoir holds much more
        # data than one batch.
        self.model.trees = []
        self.model.fit_increment(X, y, num_rounds=2 * self.model.params.num_rounds)
        return True

    # -- explicit training (RETRAIN / ONESHOT modes) -----------------------------
    def train_now(self) -> bool:
        """Fit from scratch on everything seen so far.

        Returns False when the history is still degenerate (single class).
        """
        if not self._history:
            return False
        y = np.array([p.label for p in self._history])
        if len(np.unique(y)) < 2:
            return False
        X = np.vstack([p.features for p in self._history])
        self.model.fit(X, y)
        self.trainings += 1
        self._batch.clear()
        return True

    def retrain(self) -> bool:
        """Alias for :meth:`train_now` (the hourly-retrain baseline)."""
        return self.train_now()

    # -- prediction (Sec 4.4) ------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """True once the ensemble holds a tree."""
        return self.model.is_fitted

    @property
    def rolling_error_rate(self) -> float:
        """Error rate over the recent evaluation window (1.0 if no evals)."""
        if not self._recent_evals:
            return 1.0
        return 1.0 - (sum(self._recent_evals) / len(self._recent_evals))

    @property
    def ready(self) -> bool:
        """True once warm-up completed: fitted, evaluated, low error."""
        return (
            self.model.is_fitted
            and len(self._recent_evals) >= self.min_eval_points
            and self.rolling_error_rate <= self.ready_error_threshold
        )

    # -- dataset export (for offline evaluation experiments) -------------------------
    def dataset(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All points seen so far as (X, y, timestamps) arrays."""
        if not self._history:
            raise ValueError("no training points collected")
        X = np.vstack([p.features for p in self._history])
        y = np.array([p.label for p in self._history])
        t = np.array([p.timestamp for p in self._history])
        return X, y, t
