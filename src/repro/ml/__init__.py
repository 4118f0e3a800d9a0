"""Minimal ML substrate: logistic regression, scaling, encoding, metrics.

LOCATER's coarse-grained localizer trains logistic-regression classifiers
per device (paper Section 3).  The deployment environment is offline, so
the classifiers are implemented from scratch on numpy: binary and
multinomial (softmax) logistic regression with L2 regularization, trained
by full-batch gradient ascent with optional warm starts.  Algorithm 1
retrains after every promoted gap, starting from the previous round's
weights; a warm start sets where the ascent starts, so it is part of the
trained model, not a shortcut that makes a retrain cheaper.
"""

from repro.ml.encoder import OneHotEncoder
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import accuracy, confusion_matrix
from repro.ml.pipeline import FeaturePipeline
from repro.ml.scaler import StandardScaler

__all__ = [
    "FeaturePipeline",
    "LogisticRegression",
    "OneHotEncoder",
    "StandardScaler",
    "accuracy",
    "confusion_matrix",
]
