"""Unit tests for Algorithm 1 (self-training)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarse.semi_supervised import SelfTrainingClassifier
from repro.errors import TrainingError
from repro.ml.logistic import LogisticRegression


def _clusters(seed: int = 0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(-2.0, 0.4, size=(30, 2))
    pos = rng.normal(+2.0, 0.4, size=(30, 2))
    return neg, pos


class TestSelfTraining:
    def test_labels_all_unlabeled(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:5], pos[:5]])
        labels = ["in"] * 5 + ["out"] * 5
        unlabeled = np.vstack([neg[5:], pos[5:]])
        clf = SelfTrainingClassifier(classes=["in", "out"])
        clf.fit(labeled, labels, unlabeled)
        assert len(clf.promotions_) == unlabeled.shape[0]

    def test_promoted_labels_correct_on_separable_data(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:5], pos[:5]])
        labels = ["in"] * 5 + ["out"] * 5
        unlabeled = np.vstack([neg[5:], pos[5:]])
        clf = SelfTrainingClassifier(classes=["in", "out"])
        clf.fit(labeled, labels, unlabeled)
        truth = ["in"] * 25 + ["out"] * 25
        correct = sum(1 for row, label, _ in clf.promotions_
                      if label == truth[row])
        assert correct / len(clf.promotions_) > 0.9

    def test_rounds_counted(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:5], pos[:5]])
        labels = ["in"] * 5 + ["out"] * 5
        unlabeled = np.vstack([neg[5:9], pos[5:9]])
        clf = SelfTrainingClassifier(classes=["in", "out"], batch_size=1)
        clf.fit(labeled, labels, unlabeled)
        # One initial fit + one refit per promotion.
        assert clf.rounds_ == 1 + unlabeled.shape[0]

    def test_batch_size_reduces_rounds(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:5], pos[:5]])
        labels = ["in"] * 5 + ["out"] * 5
        unlabeled = np.vstack([neg[5:15], pos[5:15]])
        slow = SelfTrainingClassifier(classes=["in", "out"], batch_size=1)
        slow.fit(labeled, labels, unlabeled)
        fast = SelfTrainingClassifier(classes=["in", "out"], batch_size=5)
        fast.fit(labeled, labels, unlabeled)
        assert fast.rounds_ < slow.rounds_

    def test_no_unlabeled_is_plain_fit(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:10], pos[:10]])
        labels = ["in"] * 10 + ["out"] * 10
        clf = SelfTrainingClassifier(classes=["in", "out"])
        clf.fit(labeled, labels, np.zeros((0, 2)))
        assert clf.rounds_ == 1
        assert clf.predict(neg[:3]) == ["in"] * 3

    def test_single_class_degenerates_to_constant(self):
        neg, _ = _clusters()
        clf = SelfTrainingClassifier(classes=["in", "out"])
        clf.fit(neg[:5], ["in"] * 5, neg[5:10])
        probs, label = clf.predict_one(neg[0])
        assert label == "in"
        assert probs.tolist() == [1.0, 0.0]
        assert clf.predict(neg[:4]) == ["in"] * 4

    def test_empty_labeled_rejected(self):
        clf = SelfTrainingClassifier(classes=["in", "out"])
        with pytest.raises(TrainingError):
            clf.fit(np.zeros((0, 2)), [], np.zeros((3, 2)))

    def test_empty_classes_rejected(self):
        with pytest.raises(TrainingError):
            SelfTrainingClassifier(classes=[])

    def test_bad_batch_size_rejected(self):
        with pytest.raises(TrainingError):
            SelfTrainingClassifier(classes=["a", "b"], batch_size=0)

    def test_predict_one_returns_distribution(self):
        neg, pos = _clusters()
        labeled = np.vstack([neg[:10], pos[:10]])
        labels = ["in"] * 10 + ["out"] * 10
        clf = SelfTrainingClassifier(classes=["in", "out"])
        clf.fit(labeled, labels, np.zeros((0, 2)))
        probs, label = clf.predict_one(pos[0])
        assert probs.sum() == pytest.approx(1.0)
        assert label == "out"


@pytest.mark.parametrize("where", ["labeled", "pool"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_data_rejected(where, bad):
    neg, pos = _clusters()
    labeled = np.vstack([neg[:5], pos[:5]])
    pool = np.vstack([neg[5:10], pos[5:10]])
    (labeled if where == "labeled" else pool)[3, 1] = bad
    clf = SelfTrainingClassifier(classes=["in", "out"])
    with pytest.raises(TrainingError, match=f"{where}.* row 3 "):
        clf.fit(labeled, ["in"] * 5 + ["out"] * 5, pool)
    # Rejected before the first fit: no round ran on the bad pool.
    assert clf.rounds_ == 0 and not clf.model.is_fitted
    # The solver rejects the same rows on its own.
    row = 3 if where == "labeled" else 13
    with pytest.raises(TrainingError, match=f"training matrix row {row} "):
        clf.model.fit(np.vstack([labeled, pool]), ["in"] * 20)


@pytest.mark.parametrize("call", ["predict", "predict_one",
                                  "constant-predict_one"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected_at_prediction(call, bad):
    # A non-finite feature would give all-NaN probabilities, and so
    # silently the first class; it raises like a width mismatch, naming
    # the first bad row.
    if call == "constant-predict_one":
        clf = SelfTrainingClassifier(classes=["x", "y"])
        clf.fit([[0.0, 1.0], [1.0, 2.0]], ["x", "x"], np.zeros((0, 2)))
        with pytest.raises(TrainingError, match="row 0 "):
            clf.predict_one([bad, 1.0])
        return
    model = LogisticRegression(classes=["x", "y"]).fit(
        [[0, 1], [1, 2], [1, 0]], ["x", "y", "x"])
    if call == "predict":
        with pytest.raises(TrainingError, match="row 1 "):
            model.predict([[0.0, 1.0], [bad, 1.0]])
    else:
        with pytest.raises(TrainingError, match="row 0 "):
            model.predict_one([bad, 1.0])
