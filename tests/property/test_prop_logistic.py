"""Property-based tests for the logistic-regression substrate.

The solver tests compare :meth:`LogisticRegression.fit_encoded` with the
plain-expression loop kept in ``tests/oracles/logistic.py``, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles.logistic import ReferenceLogisticRegression
from repro.ml.logistic import LogisticRegression
from repro.ml.scaler import StandardScaler


matrices = st.integers(min_value=2, max_value=20).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.floats(min_value=-100, max_value=100),
                          min_size=3, max_size=3),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from(["x", "y"]), min_size=n, max_size=n)))


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_predict_proba_always_distribution(data):
    rows, labels = data
    if len(set(labels)) < 2:
        labels = ["x", "y"] * (len(labels) // 2 + 1)
        labels = labels[: len(rows)]
        if len(set(labels)) < 2:
            return
    x = np.asarray(rows)
    model = LogisticRegression(max_iter=50).fit(x, labels)
    probs = model.predict_proba(x)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert (probs >= 0).all()


@given(st.integers(min_value=10, max_value=40),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_separable_data_always_learned(n, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-3.0, 0.3, size=(n, 2))
    x1 = rng.normal(+3.0, 0.3, size=(n, 2))
    x = np.vstack([x0, x1])
    y = ["a"] * n + ["b"] * n
    model = LogisticRegression().fit(x, y)
    predictions = model.predict(x)
    accuracy = sum(p == t for p, t in zip(predictions, y)) / len(y)
    assert accuracy > 0.9


@given(st.lists(st.lists(st.floats(min_value=-1e4, max_value=1e4),
                         min_size=2, max_size=2),
                min_size=2, max_size=30))
@settings(max_examples=50)
def test_scaler_roundtrip_properties(rows):
    data = np.asarray(rows)
    scaler = StandardScaler().fit(data)
    out = scaler.transform(data)
    assert out.shape == data.shape
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
    # Columns are either unit variance or were constant (scale 1).
    stds = out.std(axis=0)
    for j, s in enumerate(stds):
        assert s == pytest.approx(1.0, abs=1e-6) or \
            np.allclose(data[:, j], data[0, j])


# ---------------------------------------------------------------------------
# The solver vs the plain-expression reference, bit for bit.
# ---------------------------------------------------------------------------

def _fit_both(matrix, codes, k, warm=None, warm_start=False, **params):
    """Fit production and reference on the same inputs; compare them.

    Also checks that the matrix, the codes and the warm-start arrays the
    production model started from are left as they were.
    """
    matrix_before, codes_before = matrix.copy(), codes.copy()
    fast = LogisticRegression(classes=range(k), **params)
    slow = ReferenceLogisticRegression(classes=range(k), **params)
    if warm is not None:
        fast.weights_, fast.bias_ = warm
        slow.weights_, slow.bias_ = warm[0].copy(), warm[1].copy()
        warm_before = (warm[0].copy(), warm[1].copy())
    fast.fit_encoded(matrix, codes, warm_start=warm_start)
    slow.fit_encoded(matrix, codes, warm_start=warm_start)

    assert fast.weights_.tobytes() == slow.weights_.tobytes()
    assert fast.bias_.tobytes() == slow.bias_.tobytes()
    assert fast.n_iter_ == slow.n_iter_
    assert fast.predict_proba(matrix).tobytes() == \
        slow.predict_proba(matrix).tobytes()
    assert matrix.tobytes() == matrix_before.tobytes()
    assert codes.tobytes() == codes_before.tobytes()
    if warm is not None:
        assert warm[0].tobytes() == warm_before[0].tobytes()
        assert warm[1].tobytes() == warm_before[1].tobytes()
    return fast


@st.composite
def solver_cases(draw):
    n = draw(st.integers(1, 40), label="rows")
    f = draw(st.integers(1, 8), label="features")
    k = draw(st.integers(2, 16), label="classes")
    matrix = draw(arrays(np.float64, (n, f), elements=st.floats(
        -4.0, 4.0, allow_nan=False, width=32)), label="matrix")
    codes = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                   max_size=n), label="codes"))
    params = {
        "l2": draw(st.sampled_from([0.0, 1e-3]), label="l2"),
        # Rates this high overshoot, so step halving runs.
        "learning_rate": draw(st.floats(0.01, 5.0), label="learning_rate"),
        "max_iter": draw(st.integers(1, 60), label="max_iter"),
        # A tolerance this loose ends some fits on the gradient norm.
        "tol": draw(st.sampled_from([1e-4, 0.1, 10.0]), label="tol"),
    }
    # A warm start of the fit's own shape is reused; any other shape is
    # ignored and the ascent starts from zero.
    shape = draw(st.sampled_from([None, (f, k), (f + 1, k), (f, k + 1)]),
                 label="warm_shape")
    warm = None
    if shape is not None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1),
                                         label="warm_seed"))
        warm = (rng.normal(size=shape), rng.normal(size=shape[1]))
    warm_start = draw(st.booleans(), label="warm_start")
    return matrix, codes, k, warm, warm_start, params


@given(solver_cases())
@settings(max_examples=60, deadline=None)
def test_solver_matches_reference_bitwise(case):
    matrix, codes, k, warm, warm_start, params = case
    _fit_both(matrix, codes, k, warm=warm, warm_start=warm_start, **params)


def test_bias_gradient_decides_the_exit():
    # With an all-zero matrix |grad_w| is 0 at every step, so only
    # |grad_b| can keep the ascent going: the 3:1 labels stop it once
    # the bias fits their log-odds, well before the cap.
    fast = _fit_both(np.zeros((4, 3)), np.array([0, 0, 0, 1]), 2,
                     max_iter=150, tol=1e-4)
    assert 1 < fast.n_iter_ < 150


def test_production_shape_fits_match_reference():
    # Algorithm 1's shape: 22 gaps × 50 features over 16 regions, a cold
    # fit and then a warm-started retrain on one more promoted row.
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(23, 50))
    codes = rng.integers(0, 16, size=23)
    cold = _fit_both(matrix[:22], codes[:22], 16, max_iter=150)
    assert cold.n_iter_ == 150
    _fit_both(matrix, codes, 16, warm=(cold.weights_, cold.bias_),
              warm_start=True, max_iter=150)
