"""Statistical helpers shared by the localization algorithms."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.util.validation import check_positive


def safe_div(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Divide, returning ``default`` when the denominator is zero."""
    if denominator == 0:
        return default
    return numerator / denominator


def normalize(values: Sequence[float]) -> list[float]:
    """Scale non-negative values to sum to 1; uniform if all are zero."""
    total = float(sum(values))
    n = len(values)
    if n == 0:
        return []
    if total <= 0:
        return [1.0 / n] * n
    return [v / total for v in values]


def normalize_mapping(values: Mapping[str, float]) -> dict[str, float]:
    """Normalize a mapping's values to sum to 1; uniform if all are zero."""
    keys = list(values.keys())
    normed = normalize([values[k] for k in keys])
    return dict(zip(keys, normed))


def prediction_confidence(probabilities: Sequence[float]) -> float:
    """Confidence of a class-probability vector, per LOCATER Algorithm 1.

    The paper uses the *variance* of the predicted probability array: a
    spiky distribution (one label much more likely than the rest) has a high
    variance, a flat one has variance near zero.
    """
    arr = np.asarray(probabilities, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(arr.var())


def gaussian_weights(center: float, points: Sequence[float],
                     sigma: float) -> list[float]:
    """Normalized Gaussian kernel weights of ``points`` around ``center``.

    Used by the caching engine (Section 5) to weight cached affinity
    observations by their temporal distance from the query time.
    """
    check_positive("sigma", sigma)
    raw = [math.exp(-((p - center) ** 2) / (2.0 * sigma * sigma)) for p in points]
    return normalize(raw)
