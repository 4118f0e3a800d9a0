"""Algorithm 1: the semi-supervised self-training loop (paper §3).

Train a logistic-regression classifier on the bootstrapped labels, predict
every unlabeled gap, promote the prediction with the highest confidence —
the *variance* of its class-probability array — into the labeled set, and
retrain.  Terminate when no unlabeled gaps remain and return the last
classifier.

Cost note: promoting one gap per round is the paper's literal algorithm and
is O(U) retrains for U unlabeled gaps.  ``batch_size`` promotes the top-k
per round instead, which cuts retrains ~k× with negligible quality impact;
the default of 1 follows the paper, and warm starts keep each retrain
cheap either way.

The loop runs on preallocated pools: one (n+m) × f training matrix filled
once, a boolean remaining mask over the unlabeled pool, integer label
codes, and warm-start retrains reading growing *views* of that matrix —
no per-promotion ``np.vstack`` (O(U²·f) copying) and no ``list.remove``
(O(U²) shifts).  Everything observable is bit-identical to the historical
loop retained in ``tests/oracles/coarse.py``, which the property suite
``tests/property/test_prop_coarse_core.py`` enforces.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.ml.logistic import LogisticRegression
from repro.util.stats import prediction_confidence


class SelfTrainingClassifier:
    """Self-training wrapper over :class:`LogisticRegression`.

    Args:
        classes: Fixed label vocabulary L (e.g. ``["inside", "outside"]`` or
            the region ids), so probability columns stay aligned between
            rounds even when the labeled pool lacks a class.
        batch_size: Number of highest-confidence gaps promoted per round.
        l2 / learning_rate / max_iter: Forwarded to the underlying model.
    """

    def __init__(self, classes: Sequence[Hashable], batch_size: int = 1,
                 l2: float = 1e-3, learning_rate: float = 0.5,
                 max_iter: int = 150) -> None:
        if not classes:
            raise TrainingError("self-training needs a non-empty class set")
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        self.classes = list(classes)
        self.batch_size = batch_size
        self._model = LogisticRegression(l2=l2, learning_rate=learning_rate,
                                         max_iter=max_iter,
                                         classes=self.classes)
        self.rounds_: int = 0
        self.promotions_: list[tuple[int, Hashable, float]] = []

    @property
    def model(self) -> LogisticRegression:
        """The classifier trained in the final round."""
        return self._model

    def fit(self, labeled: np.ndarray, labels: Sequence[Hashable],
            unlabeled: np.ndarray) -> "SelfTrainingClassifier":
        """Run Algorithm 1.

        Args:
            labeled: Design matrix of S_labeled (n × f).
            labels: Their bootstrap labels.
            unlabeled: Design matrix of S_unlabeled (m × f); may be empty.

        Records every promotion as ``(original_row, label, confidence)`` in
        :attr:`promotions_` for inspection/testing.
        """
        work_x = np.asarray(labeled, dtype=float)
        pool = np.asarray(unlabeled, dtype=float)
        if pool.ndim == 1 and pool.size:
            pool = pool.reshape(1, -1)
        m = pool.shape[0] if pool.size else 0
        if work_x.size == 0:
            raise TrainingError("self-training needs at least one labeled gap")

        distinct = set(labels)
        if len(distinct) < 2:
            # Degenerate but common: every bootstrapped gap got one label
            # (e.g. a device never away long enough to look "outside").
            # A constant classifier is the honest answer; record it and
            # label the whole pool with the single class.
            only = next(iter(distinct))
            self._constant_label = only
            self.rounds_ = 0
            for row in range(m):
                self.promotions_.append((row, only, 1.0))
            return self

        self._constant_label = None
        label_codes = self._model.encode(labels)
        self._model.fit_encoded(work_x, label_codes)
        self.rounds_ = 1
        if not m:
            return self
        # Preallocated pools: the training matrix holds the labeled rows
        # followed by promoted pool rows in promotion order; each retrain
        # reads a growing view — one O(f) row copy per promotion total.
        n = work_x.shape[0]
        codes = np.empty(n + m, dtype=int)
        codes[:n] = label_codes
        train = np.empty((n + m, work_x.shape[1]))
        train[:n] = work_x
        remaining = np.ones(m, dtype=bool)
        promoted = 0
        while promoted < m:
            # flatnonzero keeps ascending pool order — exactly the order
            # the historical remaining-list walked.
            active = np.flatnonzero(remaining)
            probs = self._model.predict_proba(pool[active])
            confidences = probs.var(axis=1)
            order = np.argsort(-confidences, kind="stable")
            for k in order[: self.batch_size]:
                row = int(active[int(k)])
                row_probs = probs[int(k)]
                code = int(row_probs.argmax())
                self.promotions_.append(
                    (row, self.classes[code],
                     prediction_confidence(row_probs)))
                train[n + promoted] = pool[row]
                codes[n + promoted] = code
                promoted += 1
                remaining[row] = False
            self._model.fit_encoded(train[: n + promoted],
                                    codes[: n + promoted], warm_start=True)
            self.rounds_ += 1
        return self

    # ------------------------------------------------------------------
    def predict_one(self, features: np.ndarray) -> "tuple[np.ndarray, Hashable]":
        """(probability array, best label) for one gap's features."""
        if getattr(self, "_constant_label", None) is not None:
            probs = np.array([1.0 if c == self._constant_label else 0.0
                              for c in self.classes])
            return probs, self._constant_label
        return self._model.predict_one(features)

    def predict(self, matrix: np.ndarray) -> list[Hashable]:
        """Best label per row."""
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if getattr(self, "_constant_label", None) is not None:
            return [self._constant_label] * data.shape[0]
        return self._model.predict(data)
