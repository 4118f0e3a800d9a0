"""The plain-expression gradient-ascent solver, as the solver's oracle.

:meth:`repro.ml.logistic.LogisticRegression.fit_encoded` writes each step
into buffers allocated once per fit and calls numpy's ufunc reductions
directly, and its softmax works in place.  This module keeps the loop
those rewrites replaced, one fresh array per expression, with its
``_softmax`` and ``_loss``.  The property suite
(``tests/property/test_prop_logistic.py``) requires the production
solver to reproduce it bit for bit: the same ``weights_``, ``bias_`` and
``n_iter_``, and the same probabilities from :meth:`predict_proba`.

Nothing in the production pipeline imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.ml.logistic import LogisticRegression


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class ReferenceLogisticRegression(LogisticRegression):
    """:class:`LogisticRegression` with the plain-expression solver.

    Label encoding, the constructor and prediction by argmax are the
    production ones; the solver and the softmax are the reference.
    """

    def fit_encoded(self, matrix: np.ndarray, codes: np.ndarray,
                    warm_start: bool = False
                    ) -> "ReferenceLogisticRegression":
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise TrainingError(f"matrix must be 2-D, got shape {data.shape}")
        n, f = data.shape
        if n == 0:
            raise TrainingError("cannot fit on an empty training set")
        if self.classes_ is None:
            raise TrainingError("fit_encoded() needs a fixed class set")
        y = np.asarray(codes, dtype=int)
        if y.shape != (n,):
            raise TrainingError(
                f"codes shape {y.shape} != ({n},)")
        k = len(self.classes_)
        if y.size and (y.min() < 0 or y.max() >= k):
            raise TrainingError(
                f"class codes must lie in [0, {k}), got "
                f"[{y.min()}, {y.max()}]")

        onehot = np.zeros((n, k), dtype=float)
        onehot[np.arange(n), y] = 1.0

        reuse = (warm_start and self.weights_ is not None
                 and self.weights_.shape == (f, k))
        weights = self.weights_.copy() if reuse else np.zeros((f, k))
        bias = self.bias_.copy() if reuse else np.zeros(k)

        step = self.learning_rate
        prev_loss = np.inf
        for iteration in range(self.max_iter):
            probs = _softmax(data @ weights + bias)
            error = onehot - probs                      # (n, k)
            grad_w = data.T @ error / n - self.l2 * weights
            grad_b = error.mean(axis=0)
            weights += step * grad_w
            bias += step * grad_b
            gnorm = max(float(np.abs(grad_w).max(initial=0.0)),
                        float(np.abs(grad_b).max(initial=0.0)))
            if gnorm < self.tol:
                self.n_iter_ = iteration + 1
                break
            # Crude backtracking: if loss increased, halve the step.
            loss = self._loss(probs, y, weights)
            if loss > prev_loss + 1e-12:
                step = max(step * 0.5, 1e-4)
            prev_loss = loss
        else:
            self.n_iter_ = self.max_iter

        self.weights_ = weights
        self.bias_ = bias
        return self

    def _loss(self, probs: np.ndarray, y: np.ndarray,
              weights: np.ndarray) -> float:
        eps = 1e-12
        nll = -float(np.log(probs[np.arange(len(y)), y] + eps).mean())
        return nll + 0.5 * self.l2 * float((weights ** 2).sum())

    def predict_proba(self, matrix: np.ndarray) -> np.ndarray:
        if self.weights_ is None or self.bias_ is None:
            raise TrainingError("classifier used before fit()")
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[1] != self.weights_.shape[0]:
            raise TrainingError(
                f"feature width {data.shape[1]} != trained width "
                f"{self.weights_.shape[0]}")
        return _softmax(data @ self.weights_ + self.bias_)
