import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.errors import NumericsError, ValidationError
from evmcontrol.svm import (
    _rbf,
    _smo,
    _standardize,
    platt_fit,
    svm_decision,
    svm_fit,
    svm_predict,
)


def annulus(n_in=150, n_out=150, seed=11):
    rng = np.random.default_rng(seed)
    r = np.concatenate([rng.uniform(0, 1, n_in), rng.uniform(2, 3, n_out)])
    th = rng.uniform(0, 2 * np.pi, n_in + n_out)
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    y = np.repeat([False, True], [n_in, n_out])
    return X, y


def test_two_symmetric_points():
    X = np.array([[-1.0, -1.0], [1.0, 1.0]])
    y = np.array([False, True])
    model = svm_fit(X, y, C=1.0, gamma=1.0)
    origin = np.array([[0.0, 0.0]])
    assert svm_decision(model, origin)[0] == pytest.approx(0.0, abs=1e-9)
    assert svm_predict(model, origin)[0] == pytest.approx(0.5, abs=0.01)


def test_annulus_accuracy():
    X, y = annulus()
    model = svm_fit(X, y, C=1.0, gamma=1.0)
    acc = ((svm_predict(model, X) > 0.5) == y).mean()
    assert acc >= 0.99
    assert model.kkt_residual <= 1e-3


def test_linear_rule_far_below_rbf_on_annulus():
    # a half-plane can at best capture one class plus part of the ring,
    # far from the >= 0.99 the radial kernel reaches
    X, y = annulus()
    w = X[y].mean(axis=0) - X[~y].mean(axis=0)
    proj = X @ w
    best = max(((proj > thr) == y).mean() for thr in np.quantile(proj, np.linspace(0, 1, 51)))
    assert best < 0.85


def test_validation():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError):
        svm_fit(X, np.array([True, True]))
    with pytest.raises(ValidationError):
        svm_fit(X, np.array([True, False]), C=-1)
    with pytest.raises(ValidationError):
        svm_fit(X, np.array([True, False]), gamma=0)


def test_iteration_cap_raises():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 2))
    y = rng.random(200) > 0.5
    with pytest.raises(NumericsError, match="KKT"):
        svm_fit(X, y, C=10.0, gamma=1.0, max_iter=3)


def test_scale_invariance_through_standardization():
    rng = np.random.default_rng(11)
    X = rng.multivariate_normal([5.5, 12300], [[0.1, 30], [30, 3e5]], size=300)
    y = (X[:, 1] + rng.standard_normal(300) * 300) > 12300
    m1 = svm_fit(X, y, C=1.0, gamma=1.0)
    scale = np.array([1000.0, 0.001])
    m2 = svm_fit(X * scale, y, C=1.0, gamma=1.0)
    p1 = svm_predict(m1, X[:40])
    p2 = svm_predict(m2, X[:40] * scale)
    assert np.allclose(p1, p2, atol=1e-9)


def test_removing_non_support_point_keeps_decision():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((200, 2))
    y = X[:, 0] + 0.3 * rng.standard_normal(200) > 0
    model = svm_fit(X, y, C=1.0, gamma=1.0)
    f = svm_decision(model, X)
    drop = int(np.argmax(np.abs(f)))  # far from the margin, never a SV
    keep = np.ones(len(X), dtype=bool)
    keep[drop] = False
    refit = svm_fit(X[keep], y[keep], C=1.0, gamma=1.0)
    grid = rng.standard_normal((60, 2))
    assert np.abs(svm_decision(refit, grid) - svm_decision(model, grid)).max() <= 0.05


def test_platt_monotone_when_a_negative():
    X, y = annulus()
    model = svm_fit(X, y, C=1.0, gamma=1.0)
    assert model.platt_a < 0
    f = np.linspace(-4, 4, 100)
    p = 1 / (1 + np.exp(model.platt_a * f + model.platt_b))
    assert np.all(np.diff(p) >= 0)


def test_platt_fit_balanced_symmetric():
    f = np.array([-1.0, 1.0, -2.0, 2.0])
    y = np.array([False, True, False, True])
    a, b = platt_fit(f, y)
    p0 = 1 / (1 + np.exp(b))  # at decision value 0
    assert p0 == pytest.approx(0.5, abs=1e-6)


def test_dual_coefficients_within_box():
    X, y = annulus()
    C = 0.7
    model = svm_fit(X, y, C=C, gamma=1.0)
    assert np.all(model.alphas > 0)
    assert np.all(model.alphas <= C + 1e-12)


# Reference solver: the SMO loop as first written, rebuilding both working
# sets from ``alpha`` at every step.  ``_smo`` must match it bit for bit.


def _ref_smo(K, yv, C, tol, max_iter):
    n = len(yv)
    alpha = np.zeros(n)
    raw = np.zeros(n)
    eps = 1e-12
    for _ in range(max_iter):
        margins = yv - raw
        up = ((yv > 0) & (alpha < C - eps)) | ((yv < 0) & (alpha > eps))
        low = ((yv > 0) & (alpha > eps)) | ((yv < 0) & (alpha < C - eps))
        if not up.any() or not low.any():
            break
        i1 = int(np.where(up, margins, -np.inf).argmax())
        i2 = int(np.where(low, margins, np.inf).argmin())
        gap = margins[i1] - margins[i2]
        if gap <= 2.0 * tol:
            break
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = yv[i1], yv[i2]
        s = y1 * y2
        if s > 0:
            box_lo, box_hi = max(0.0, a1o + a2o - C), min(C, a1o + a2o)
        else:
            box_lo, box_hi = max(0.0, a2o - a1o), min(C, C + a2o - a1o)
        eta = 2.0 * K[i1, i2] - K[i1, i1] - K[i2, i2]
        eta = min(eta, -1e-12)
        e1, e2 = raw[i1] - y1, raw[i2] - y2
        a2n = min(max(a2o - y2 * (e1 - e2) / eta, box_lo), box_hi)
        if abs(a2n - a2o) < 1e-14 * C:
            break
        a1n = a1o + s * (a2o - a2n)
        raw += y1 * (a1n - a1o) * K[:, i1] + y2 * (a2n - a2o) * K[:, i2]
        alpha[i1], alpha[i2] = a1n, a2n

    margins = yv - raw
    up = ((yv > 0) & (alpha < C - eps)) | ((yv < 0) & (alpha > eps))
    low = ((yv > 0) & (alpha > eps)) | ((yv < 0) & (alpha < C - eps))
    lo = float(np.where(up, margins, -np.inf).max())
    hi = float(np.where(low, margins, np.inf).min())
    if np.isfinite(lo) and np.isfinite(hi):
        b = 0.5 * (lo + hi)
    elif np.isfinite(lo):
        b = lo
    elif np.isfinite(hi):
        b = hi
    else:
        b = 0.0
    f = raw + b
    slack_lo = np.where(alpha < C - eps, 1.0 - yv * f, -np.inf)
    slack_hi = np.where(alpha > eps, yv * f - 1.0, -np.inf)
    kkt = max(0.0, float(slack_lo.max()), float(slack_hi.max()))
    return alpha, b, f, kkt


def _bits(x):
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


@st.composite
def smo_problems(draw):
    """Small clouds on a coarse lattice (duplicate rows, tied margins)."""
    n = draw(st.integers(2, 60))
    span = draw(st.integers(1, 6))
    coords = draw(st.lists(st.tuples(st.integers(-span, span), st.integers(-span, span)),
                           min_size=n, max_size=n))
    X = np.asarray(coords, dtype=float) * draw(st.sampled_from([1.0, 0.37, 250.0]))
    if draw(st.booleans()):  # one class nearly absent
        y = np.zeros(n, dtype=bool)
        y[draw(st.integers(0, n - 1))] = True
    else:
        y = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        y[0], y[-1] = True, False
    if draw(st.booleans()):
        y = ~y
    C = 10.0 ** draw(st.floats(-2, 2))
    gamma = 10.0 ** draw(st.floats(-1, 1))
    max_iter = draw(st.sampled_from([1, 2, 7, 40, 20_000]))  # small caps end on the cap
    return X, y, C, gamma, max_iter


@settings(max_examples=400, deadline=None)
@given(smo_problems())
def test_smo_matches_reference_bitwise(problem):
    X, y, C, gamma, max_iter = problem
    Z, _, _ = _standardize(X)
    K = _rbf(Z, Z, gamma)
    yv = np.where(y, 1.0, -1.0)
    got = _smo(K, yv, C, 1e-3, max_iter)
    want = _ref_smo(K, yv, C, 1e-3, max_iter)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert _bits(g) == _bits(w)
