"""Multinomial logistic regression trained by gradient ascent.

Binary problems are handled as the two-class case of the softmax model,
which keeps one code path.  Supports L2 regularization, early stopping on
the gradient's max-norm, and warm starts.  A warm start sets where the
ascent starts, not how long it runs: Algorithm 1 of the paper retrains the
classifier once per promoted gap from the previous round's weights, and at
the self-training settings those retrains still run to the iteration cap.
So the warm start is part of the trained model, not a saving.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.util.validation import check_non_negative, check_positive


def check_finite(name: str, matrix: np.ndarray) -> None:
    """Raise :class:`TrainingError` if ``matrix`` holds a NaN or ±inf.

    The message names the first offending row.
    """
    finite = np.isfinite(matrix)
    if not finite.all():
        row = np.argwhere(~finite)[0, 0]
        raise TrainingError(f"{name} row {row} holds a NaN or infinite value")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability.

    Overwrites ``logits`` with the probabilities and returns it.
    """
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


class LogisticRegression:
    """Softmax classifier over arbitrary hashable labels.

    Args:
        l2: L2 regularization strength (on weights, not intercepts).
        learning_rate: Gradient-ascent step size.
        max_iter: Iteration cap per fit.
        tol: Stop when the gradient's max-norm falls below this.
        classes: Optional fixed label vocabulary; otherwise learned at fit.
            Fixing it lets :meth:`predict_proba` keep a stable column order
            across refits even when a refit's training set lacks a class.
    """

    def __init__(self, l2: float = 1e-3, learning_rate: float = 0.5,
                 max_iter: int = 200, tol: float = 1e-4,
                 classes: "Sequence[Hashable] | None" = None) -> None:
        check_non_negative("l2", l2)
        check_positive("learning_rate", learning_rate)
        check_positive("max_iter", max_iter)
        self.l2 = l2
        self.learning_rate = learning_rate
        self.max_iter = int(max_iter)
        self.tol = tol
        self.classes_: "list[Hashable] | None" = (
            list(classes) if classes is not None else None)
        self.weights_: "np.ndarray | None" = None  # (features, classes)
        self.bias_: "np.ndarray | None" = None     # (classes,)
        self.n_iter_: int = 0

    @property
    def is_fitted(self) -> bool:
        return self.weights_ is not None

    # ------------------------------------------------------------------
    def encode(self, labels: Sequence[Hashable]) -> np.ndarray:
        """Map labels to class codes (positions in :attr:`classes_`).

        Learns the class vocabulary from ``labels`` when none was fixed.
        Self-training precomputes codes once and feeds the integer array
        to :meth:`fit_encoded` on every retrain, skipping the per-label
        dict mapping in the hot loop.
        """
        if self.classes_ is None:
            self.classes_ = sorted(set(labels), key=repr)
        class_index = {c: i for i, c in enumerate(self.classes_)}
        try:
            return np.array([class_index[label] for label in labels],
                            dtype=int)
        except KeyError as exc:
            raise TrainingError(
                f"label {exc.args[0]!r} not in fixed class set "
                f"{self.classes_!r}") from None

    def fit(self, matrix: np.ndarray, labels: Sequence[Hashable],
            warm_start: bool = False) -> "LogisticRegression":
        """Train on ``matrix`` (n × f) and ``labels`` (n).

        With ``warm_start=True`` and compatible shapes, optimization
        resumes from the current weights.
        """
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise TrainingError(f"matrix must be 2-D, got shape {data.shape}")
        n, _ = data.shape
        if n == 0:
            raise TrainingError("cannot fit on an empty training set")
        if len(labels) != n:
            raise TrainingError(
                f"labels length {len(labels)} != rows {n}")
        return self.fit_encoded(data, self.encode(labels),
                                warm_start=warm_start)

    def fit_encoded(self, matrix: np.ndarray, codes: np.ndarray,
                    warm_start: bool = False) -> "LogisticRegression":
        """Train on precomputed class codes (see :meth:`encode`).

        The optimization is identical to :meth:`fit`; only the label →
        code mapping is skipped.  Requires a fixed class vocabulary.
        Raises :class:`TrainingError` for a NaN or infinite matrix entry.

        Cost: Algorithm 1's fits are small (3–41 rows × 50 features, 2
        or 16 classes) and run to the iteration cap, so a fit costs
        iterations × the ~23 numpy calls of one step, and numpy's
        per-call dispatch sets that, not the arithmetic.  Each step
        therefore writes into buffers allocated once per fit, steps
        weights and bias as one block, calls ufunc reductions directly
        (``ndarray.max``/``.sum``/``.mean`` add a Python-level wrapper)
        and reads ``|grad_b|`` only once ``|grad_w|`` is below ``tol``.
        Every float equals the one the plain expressions in the comments
        give; ``tests/oracles/logistic.py`` keeps them as the reference.
        """
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2:
            raise TrainingError(f"matrix must be 2-D, got shape {data.shape}")
        n, f = data.shape
        if n == 0:
            raise TrainingError("cannot fit on an empty training set")
        if self.classes_ is None:
            raise TrainingError("fit_encoded() needs a fixed class set")
        check_finite("training matrix", data)
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
        # Flat positions of each row's true class in ``probs``.
        true_class = np.arange(n) * k + y

        # weights (f × k) and bias (k) are the row blocks of one parameter
        # array, and their gradients of one gradient array, so one call
        # rescales both gradients and one call steps both parameters.
        params = np.zeros((f + 1, k))
        weights, bias = params[:f], params[f]
        if (warm_start and self.weights_ is not None
                and self.weights_.shape == (f, k)):
            weights[...] = self.weights_
            bias[...] = self.bias_
        grad = np.empty((f + 1, k))
        grad_w, grad_b = grad[:f], grad[f]
        scratch = np.empty((f + 1, k))
        scratch_w = scratch[:f]
        probs = np.empty((n, k))
        probs_flat = probs.reshape(-1)
        error = np.empty((n, k))
        step = self.learning_rate
        prev_loss = np.inf
        for iteration in range(self.max_iter):
            # probs = softmax(data @ weights + bias)
            np.matmul(data, weights, out=probs)
            probs += bias
            _softmax(probs)
            np.subtract(onehot, probs, out=error)
            # grad_w = data.T @ error / n - l2 * weights
            # grad_b = error.mean(axis=0)
            np.matmul(data.T, error, out=grad_w)
            np.add.reduce(error, axis=0, out=grad_b)
            grad /= n
            grad_w -= np.multiply(self.l2, weights, out=scratch_w)
            params += np.multiply(step, grad, out=scratch)
            # Converged when max(|grad_w|, |grad_b|) < tol.
            norm_w = float(np.maximum.reduce(np.abs(grad_w, out=scratch_w),
                                             axis=None, initial=0.0))
            if norm_w < self.tol and max(norm_w, float(np.maximum.reduce(
                    np.abs(grad_b), axis=None, initial=0.0))) < self.tol:
                self.n_iter_ = iteration + 1
                break
            # Crude backtracking: if the loss increased, halve the step.
            # loss = -mean(log(p_true + 1e-12)) + l2 / 2 * sum(weights ** 2)
            picked = probs_flat[true_class]
            picked += 1e-12
            loss = (-(float(np.add.reduce(np.log(picked, out=picked))) / n)
                    + 0.5 * self.l2 * float(np.add.reduce(
                        np.multiply(weights, weights, out=scratch_w),
                        axis=None)))
            if loss > prev_loss + 1e-12:
                step = max(step * 0.5, 1e-4)
            prev_loss = loss
        else:
            self.n_iter_ = self.max_iter

        self.weights_ = weights
        self.bias_ = bias
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, matrix: np.ndarray) -> np.ndarray:
        """Class-probability matrix (n × classes) in ``classes_`` order.

        Raises:
            TrainingError: Before :meth:`fit`, on a width other than the
                trained one, or on a row holding a NaN or ±inf (whose
                probabilities would all be NaN).
        """
        if self.weights_ is None or self.bias_ is None:
            raise TrainingError("classifier used before fit()")
        data = np.asarray(matrix, dtype=float)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[1] != self.weights_.shape[0]:
            raise TrainingError(
                f"feature width {data.shape[1]} != trained width "
                f"{self.weights_.shape[0]}")
        check_finite("feature matrix", data)
        return _softmax(data @ self.weights_ + self.bias_)

    def predict(self, matrix: np.ndarray) -> list[Hashable]:
        """Most likely label per row."""
        probs = self.predict_proba(matrix)
        assert self.classes_ is not None
        return [self.classes_[int(i)] for i in probs.argmax(axis=1)]

    def predict_one(self, features: np.ndarray) -> "tuple[np.ndarray, Hashable]":
        """The paper's ``Predict``: (probability array, best label)."""
        probs = self.predict_proba(np.asarray(features, dtype=float))[0]
        assert self.classes_ is not None
        return probs, self.classes_[int(probs.argmax())]
