import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from evmcontrol.classify import (
    decision_boundary,
    qda_fit,
    qda_predict,
)
from evmcontrol.errors import ValidationError
from evmcontrol.geometry import convex_hull


def _standardized(rng, n):
    z = rng.standard_normal(n)
    return (z - z.mean()) / z.std(ddof=1)


def _embedded_1d_problem(n=400, shift=2.0, seed=0):
    """Two classes on the t axis with exact sample moments; c is constant."""
    rng = np.random.default_rng(seed)
    z = _standardized(rng, n)
    X = np.column_stack([np.concatenate([z, z + shift]), np.zeros(2 * n)])
    y = np.repeat([False, True], n)
    return X, y


def test_qda_symmetric_midpoint():
    X, y = _embedded_1d_problem()
    model = qda_fit(X, y)
    p = qda_predict(model, np.array([1.0, 0.0]))
    assert p[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert p[0, 1] == pytest.approx(0.5, abs=1e-9)


def test_qda_hand_computed_posterior():
    # equal unit variances, means 0 and 2: log-odds at t = 0 is exactly 2;
    # the stabilizing ridge on the zero-variance c axis shifts it by ~1e-7
    X, y = _embedded_1d_problem()
    model = qda_fit(X, y)
    p = qda_predict(model, np.array([0.0, 0.0]))
    assert p[0, 0] == pytest.approx(1 / (1 + np.exp(-2)), abs=1e-5)


def test_qda_ridge_on_constant_feature():
    X, y = _embedded_1d_problem()
    model = qda_fit(X, y)
    assert model.ridged == (True, True)  # c has zero variance


def test_qda_requires_three_per_class():
    X = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3], [4, 4]])
    y = np.array([True, True, False, False, False])
    with pytest.raises(ValidationError, match="at least 3"):
        qda_fit(X, y)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_qda_probabilities_normalized(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 2))
    y = np.arange(40) % 2 == 0
    model = qda_fit(X, y)
    p = qda_predict(model, rng.standard_normal((10, 2)) * 3)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_qda_scale_invariance():
    rng = np.random.default_rng(8)
    X = rng.multivariate_normal([0, 0], [[1, 0.3], [0.3, 2]], size=300)
    y = X @ np.array([1.0, -0.5]) + rng.standard_normal(300) > 0
    m1 = qda_fit(X, y)
    scale = np.array([5.0, 0.01])
    m2 = qda_fit(X * scale, y)
    q = rng.standard_normal((20, 2))
    p1 = qda_predict(m1, q)
    p2 = qda_predict(m2, q * scale)
    assert np.allclose(p1, p2, atol=1e-9)


def test_qda_near_bayes_error():
    rng = np.random.default_rng(12)
    n = 10000
    X = np.vstack([rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + [2, 0]])
    y = np.repeat([False, True], n)
    Xt = np.vstack([rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + [2, 0]])
    model = qda_fit(X, y)
    err = ((qda_predict(model, Xt)[:, 1] > 0.5) != y).mean()
    bayes = norm.cdf(-1.0)  # Mahalanobis distance 2, equal priors
    assert abs(err - bayes) <= 0.02


def test_label_dataset_balance(ensemble_half):
    assert abs(ensemble_half.over_budget.mean() - 0.5) <= 0.011
    assert abs(ensemble_half.late.mean() - 0.7575) <= 0.015


def test_boundary_constant_predictor():
    rng = np.random.default_rng(0)
    b = decision_boundary(
        lambda q: np.full(len(q), 0.8),
        np.linspace(0, 1, 8),
        np.linspace(0, 1, 8),
        convex_hull(rng.uniform(0, 1, (30, 2))),
    )
    assert b.polylines == ()


def test_boundary_logistic_level_set():
    rng = np.random.default_rng(1)
    c0 = 5.0
    cs = np.linspace(0, 10, 41)
    b = decision_boundary(
        lambda q: 1 / (1 + np.exp(-(q[:, 1] - c0))),
        np.linspace(0, 10, 41),
        cs,
        convex_hull(rng.uniform(0, 10, (50, 2))),
    )
    pts = np.concatenate([np.asarray(p) for p in b.polylines])
    cell_height = cs[1] - cs[0]
    assert np.all(np.abs(pts[:, 1] - c0) <= cell_height)
