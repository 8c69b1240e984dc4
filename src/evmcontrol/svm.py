"""Soft-margin SVM with an RBF kernel, trained by sequential pairwise
dual updates (Platt's SMO, 1998), plus sigmoid probability calibration
(Platt 2000, with the numerically robust fit of Lin, Lin & Weng 2007).

Features are z-scored with training statistics before the kernel is
applied; t and c differ by three orders of magnitude on realistic project
data, and standardization also makes predictions invariant to rescaling
either axis.  The dual is solved to a KKT tolerance (default 1e-3); the
final residual is stored on the model.

The solver tracks its working set incrementally: a step changes two dual
coefficients, so only their two memberships are updated.  The selection
rule (the maximal violating pair, first index on ties) and every result are
those of rebuilding the sets at each step, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .quadform import sq_dists

KKT_TOL = 1e-3


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma |a_i - b_j|^2); row i depends only on a_i (see quadform)."""
    sq = sq_dists(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    np.multiply(sq, -gamma, out=sq)
    with np.errstate(under="ignore"):
        return np.exp(sq, out=sq)


@dataclass(frozen=True)
class SvmModel:
    support_vectors: np.ndarray  # standardized coordinates
    sv_labels: np.ndarray        # -1 / +1
    alphas: np.ndarray           # dual coefficients in (0, C]
    bias: float
    gamma: float
    C: float
    feat_mean: np.ndarray
    feat_scale: np.ndarray
    platt_a: float
    platt_b: float
    kkt_residual: float


def _standardize(X: np.ndarray):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return (X - mean) / scale, mean, scale


def _smo(K: np.ndarray, yv: np.ndarray, C: float, tol: float, max_iter: int):
    """Pairwise dual ascent with maximal-violating-pair selection.

    At every step the most violated margin constraint on each side of the
    bias interval is paired and solved analytically inside the box.  The
    loop stops when the interval is feasible up to ``2 * tol``, which makes
    the final KKT residual (with the midpoint bias) at most ``tol``.

    A step moves ``alpha`` at two positions only, so the working set is
    kept as penalty rows (0 inside, -inf / +inf outside the up / low set)
    updated at those two positions, and both picks come from one ``argmax``
    over ``[m + pen_up, -(m + pen_low)]``: first index on ties, as the
    ``argmax`` of the up side and the ``argmin`` of the low side.  The pair
    algebra runs on Python floats in the same expression order.
    """
    n = len(yv)
    raw = np.zeros(n)  # K @ (alpha * y), bias-free decision values
    eps = 1e-12
    c_hi = C - eps
    y_list = yv.tolist()
    a_list = [0.0] * n

    def members(y, a):  # (in the up set, in the low set)
        return ((y > 0 and a < c_hi) or (y < 0 and a > eps),
                (y > 0 and a > eps) or (y < 0 and a < c_hi))

    up, low = map(list, zip(*[members(y, 0.0) for y in y_list]))
    n_up, n_low = sum(up), sum(low)
    # outside the set: -inf on the up row, +inf on the low row (negated below)
    pen = np.array([[0.0 if u else -np.inf for u in up],
                    [0.0 if v else np.inf for v in low]])
    KT = np.ascontiguousarray(K.T)  # row i is column i of K
    margins = np.empty(n)
    scores = np.empty((2, n))
    step1 = np.empty(n)
    step2 = np.empty(n)
    for _ in range(max_iter):
        if n_up == 0 or n_low == 0:
            break
        np.subtract(yv, raw, out=margins)
        np.add(margins, pen, out=scores)
        np.negative(scores[1], out=scores[1])
        i1, i2 = scores.argmax(axis=1).tolist()
        gap = margins.item(i1) - margins.item(i2)
        if gap <= 2.0 * tol:
            break
        a1o, a2o = a_list[i1], a_list[i2]
        y1, y2 = y_list[i1], y_list[i2]
        s = y1 * y2
        if s > 0:
            box_lo, box_hi = max(0.0, a1o + a2o - C), min(C, a1o + a2o)
        else:
            box_lo, box_hi = max(0.0, a2o - a1o), min(C, C + a2o - a1o)
        eta = 2.0 * K.item(i1, i2) - K.item(i1, i1) - K.item(i2, i2)
        eta = min(eta, -1e-12)  # duplicates flatten the pair direction
        e1, e2 = raw.item(i1) - y1, raw.item(i2) - y2
        a2n = min(max(a2o - y2 * (e1 - e2) / eta, box_lo), box_hi)
        if abs(a2n - a2o) < 1e-14 * C:
            break  # best pair cannot move: box-blocked
        a1n = a1o + s * (a2o - a2n)
        np.multiply(KT[i1], y1 * (a1n - a1o), out=step1)
        np.multiply(KT[i2], y2 * (a2n - a2o), out=step2)
        np.add(step1, step2, out=step1)
        np.add(raw, step1, out=raw)
        a_list[i1], a_list[i2] = a1n, a2n
        for i, a in ((i1, a1n), (i2, a2n)):
            u, v = members(y_list[i], a)
            if u != up[i]:
                up[i] = u
                n_up += 1 if u else -1
                pen[0, i] = 0.0 if u else -np.inf
            if v != low[i]:
                low[i] = v
                n_low += 1 if v else -1
                pen[1, i] = 0.0 if v else np.inf
    alpha = np.array(a_list)

    # midpoint of the feasible bias interval minimizes the worst violation
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


def platt_fit(decision: np.ndarray, y: np.ndarray, max_iter: int = 100) -> tuple[float, float]:
    """Sigmoid parameters (A, B) for p = 1 / (1 + exp(A f + B)).

    Maximum likelihood with the usual smoothed targets
    ((n+ + 1)/(n+ + 2), 1/(n- + 2)), Newton steps with backtracking.
    """
    y = np.asarray(y).astype(bool)
    f = np.asarray(decision, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    t = np.where(y, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))

    def objective(a_, b_):
        z = a_ * f + b_
        return float(
            np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)), (t - 1) * z + np.log1p(np.exp(z))))
        )

    obj = objective(a, b)
    for _ in range(max_iter):
        z = a * f + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        d1 = t - p
        w = np.maximum(p * (1.0 - p), 1e-300)
        g = np.array([np.sum(f * d1), np.sum(d1)])
        if np.abs(g).max() < 1e-5:
            break
        h = np.array(
            [[np.sum(f * f * w) + 1e-12, np.sum(f * w)], [np.sum(f * w), np.sum(w) + 1e-12]]
        )
        step = np.linalg.solve(h, g)
        stepsize = 1.0
        while stepsize >= 1e-10:
            cand = objective(a - stepsize * step[0], b - stepsize * step[1])
            if cand < obj + 1e-12:
                a -= stepsize * step[0]
                b -= stepsize * step[1]
                obj = cand
                break
            stepsize /= 2.0
        else:
            break
    return float(a), float(b)


def svm_fit(
    X,
    y,
    C: float = 1.0,
    gamma: float = 1.0,
    tol: float = KKT_TOL,
    max_iter: int | None = None,
) -> SvmModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).astype(bool)
    if C <= 0 or gamma <= 0:
        raise ValidationError("C and gamma must be positive")
    if y.all() or not y.any():
        raise ValidationError("SVM training needs both classes present")
    Z, mean, scale = _standardize(X)
    yv = np.where(y, 1.0, -1.0)
    K = _rbf(Z, Z, gamma)
    if max_iter is None:
        max_iter = max(20_000, 200 * len(y))
    alpha, bias, f, kkt = _smo(K, yv, C, tol, max_iter)
    if kkt > tol:
        raise NumericsError(f"SMO did not reach KKT tolerance {tol}; residual {kkt:.3e}")
    platt_a, platt_b = platt_fit(f, y)
    sv = alpha > 1e-10
    return SvmModel(
        support_vectors=Z[sv],
        sv_labels=yv[sv],
        alphas=alpha[sv],
        bias=float(bias),
        gamma=float(gamma),
        C=float(C),
        feat_mean=mean,
        feat_scale=scale,
        platt_a=platt_a,
        platt_b=platt_b,
        kkt_residual=float(kkt),
    )


def svm_decision(model: SvmModel, X) -> np.ndarray:
    Z = (np.atleast_2d(np.asarray(X, dtype=float)) - model.feat_mean) / model.feat_scale
    if len(model.alphas) == 0:
        return np.full(len(Z), model.bias)
    K = _rbf(Z, model.support_vectors, model.gamma)
    return (K * (model.alphas * model.sv_labels)).sum(axis=1) + model.bias


def svm_predict(model: SvmModel, X) -> np.ndarray:
    """Calibrated probability of the positive class."""
    f = svm_decision(model, X)
    z = np.clip(model.platt_a * f + model.platt_b, -500, 500)
    return 1.0 / (1.0 + np.exp(z))
