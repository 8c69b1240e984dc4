"""Additive regression of project outcomes on (t, c) features.

The model is a sum of univariate smooths plus an intercept,

    yhat = b0 + f_t(t) + f_c(c),      b0 = mean(y),

fit by backfitting (Hastie & Tibshirani 1990): cycle over predictors,
smoothing the partial residual of each against its feature and recentering
until the fitted values stop moving.  Two smoother families are provided:

* natural cubic splines -- truncated-power natural basis with interior
  knots at equispaced quantiles and boundary knots at the data extremes;
  the fitted function is linear beyond the boundary knots.  With k
  interior knots the (constant-free) basis has k + 1 columns.
* locally weighted linear regression (loess, Cleveland 1979) -- at each
  query the span-sized neighborhood is fit by weighted least squares with
  tricube weights (1 - (d/maxd)^3)^3; spans above 1 use every point with
  the maximum distance inflated by span^(1/p), p = 1 here.

Because both smoothers are linear in the response for fixed x, the
backfitting operators are precomputed once per fit, and they die with it:
a fitted model keeps per predictor only what prediction reads (spline
basis, column means and coefficients; loess sorted x, window size and the
last smoothed response), so it pickles in kilobytes.  Effective degrees of
freedom are the trace of each smoother's hat operator (the basis dimension
for the spline projection); the model df is 1 + their sum, used by the
approximate F comparison in :func:`anova_compare`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError, ValidationError

BACKFIT_TOL = 1e-6
BACKFIT_MAX_CYCLES = 100


# ---------------------------------------------------------------------------
# natural cubic splines


@dataclass(frozen=True)
class SplineBasis:
    """Natural cubic spline basis on [lo, hi] with given interior knots."""

    lo: float
    hi: float
    interior: np.ndarray  # scaled to (0, 1)

    def design(self, x) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        knots = np.concatenate([[0.0], self.interior, [1.0]])
        cols = [u]
        K = len(knots)
        if K > 2:
            last = knots[-1]
            second_last = knots[-2]

            def d(k_val):
                num = np.maximum(u - k_val, 0.0) ** 3 - np.maximum(u - last, 0.0) ** 3
                return num / (last - k_val)

            d_ref = d(second_last)
            for k_val in knots[:-2]:
                cols.append(d(k_val) - d_ref)
        return np.column_stack(cols)


def natural_spline_basis(x, n_knots: int) -> tuple[SplineBasis, np.ndarray]:
    """Basis with interior knots at equispaced quantiles of ``x``.

    Returns the basis object and its design matrix on ``x``.
    """
    x = np.asarray(x, dtype=float)
    if n_knots < 0:
        raise ValidationError("n_knots must be >= 0")
    distinct = np.unique(x)
    if len(distinct) < n_knots + 2:
        raise ValidationError(
            f"need at least {n_knots + 2} distinct values for {n_knots} interior knots"
        )
    lo, hi = float(distinct[0]), float(distinct[-1])
    if n_knots:
        qs = np.arange(1, n_knots + 1) / (n_knots + 1)
        interior = (np.quantile(x, qs) - lo) / (hi - lo)
    else:
        interior = np.array([])
    knots = np.concatenate([[0.0], interior, [1.0]])
    if np.any(np.diff(knots) <= 0):
        raise ValidationError("quantile knots collide; too few distinct values")
    basis = SplineBasis(lo=lo, hi=hi, interior=interior)
    return basis, basis.design(x)


@dataclass(frozen=True)
class SplineSmooth:
    """Fitted spline smooth: the centered basis times its coefficients."""

    basis: SplineBasis
    col_means: np.ndarray
    beta: np.ndarray

    def predict(self, x) -> np.ndarray:
        return (self.basis.design(x) - self.col_means) @ self.beta


class _SplineSmoother:
    """Least-squares projection onto the centered natural spline basis."""

    def __init__(self, x: np.ndarray, n_knots: int):
        self.basis, B = natural_spline_basis(x, n_knots)
        self.col_means = B.mean(axis=0)
        self.Bc = B - self.col_means
        self.pinv = np.linalg.pinv(self.Bc)
        self.edf = float(B.shape[1])

    def smooth(self, residual: np.ndarray) -> np.ndarray:
        self.beta = self.pinv @ residual
        return self.Bc @ self.beta

    def fitted(self) -> SplineSmooth:
        return SplineSmooth(basis=self.basis, col_means=self.col_means, beta=self.beta)


# ---------------------------------------------------------------------------
# loess


def _loess_windows(x_sorted: np.ndarray, queries: np.ndarray, q: int) -> np.ndarray:
    """Start index of each query's q-nearest contiguous window (sorted x)."""
    n = len(x_sorted)
    order = np.argsort(queries, kind="stable")
    starts = np.empty(len(queries), dtype=np.int64)
    s = 0
    for pos in order:
        xq = queries[pos]
        while s + q < n and x_sorted[s + q] - xq < xq - x_sorted[s]:
            s += 1
        starts[pos] = s
    return starts


def _tricube(dist: np.ndarray, maxd: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(maxd[:, None] > 0, dist / maxd[:, None], 1.0)
    w = np.clip(1.0 - np.clip(u, 0.0, 1.0) ** 3, 0.0, None) ** 3
    return w


@dataclass
class _LoessOperator:
    """Neighborhoods, tricube weights and weighted moments for one query set.

    The moments do not depend on the response, so every backfitting cycle
    reuses them.  An operator lives only as long as a fit or a prediction.
    """

    idx: np.ndarray      # (nq, q) training indices per query
    weights: np.ndarray  # tricube weights
    dx: np.ndarray       # x_train - x_query inside the window
    moments: tuple       # (sw, w*dx, swx, swxx, det, ok)
    self_pos: np.ndarray | None = None  # query's own column (training pass)

    def apply(self, y_sorted: np.ndarray) -> np.ndarray:
        sw, wdx, swx, swxx, det, ok = self.moments
        yw = y_sorted[self.idx]
        swy = (self.weights * yw).sum(axis=1)
        swxy = (wdx * yw).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            local_line = (swxx * swy - swx * swxy) / det
            if ok.all():
                return local_line
            w_mean = np.where(sw > 0, swy / sw, yw.mean(axis=1))
        return np.where(ok, local_line, w_mean)

    def hat_diag(self) -> np.ndarray:
        """Weight each training row puts on itself (training pass only); 0 for
        a row that a tie group wider than the window leaves outside it."""
        sw, _, swx, swxx, det, ok = self.moments
        w = self.weights
        rows = np.arange(len(self.idx))
        inside = self.self_pos < w.shape[1]
        pos = np.where(inside, self.self_pos, 0)
        w_self = w[rows, pos]
        dx_self = self.dx[rows, pos]
        with np.errstate(divide="ignore", invalid="ignore"):
            lever = w_self * (swxx - dx_self * swx) / det
            fallback = np.where(sw > 0, w_self / sw, 1.0 / w.shape[1])
        return np.where(inside, np.where(ok, lever, fallback), 0.0)


def _loess_operator(x_sorted: np.ndarray, queries: np.ndarray, q: int, inflate: float,
                    self_rows: np.ndarray | None = None) -> _LoessOperator:
    starts = _loess_windows(x_sorted, queries, q)
    idx = starts[:, None] + np.arange(q)[None, :]
    dx = x_sorted[idx] - queries[:, None]
    maxd = np.abs(dx).max(axis=1) * inflate
    weights = _tricube(np.abs(dx), maxd)
    wdx = weights * dx
    sw = weights.sum(axis=1)
    swx = wdx.sum(axis=1)
    swxx = (wdx * dx).sum(axis=1)
    det = sw * swxx - swx * swx
    scale = np.maximum(sw * swxx, swx * swx)
    ok = det > 1e-12 * np.maximum(scale, 1e-300)
    self_pos = None
    if self_rows is not None:
        self_pos = self_rows - starts
    return _LoessOperator(idx=idx, weights=weights, dx=dx,
                          moments=(sw, wdx, swx, swxx, det, ok), self_pos=self_pos)


def _span_window(n: int, span: float) -> tuple[int, float]:
    if span <= 0:
        raise ValidationError("span must be positive")
    if span <= 1:
        return min(max(int(np.ceil(span * n)), 2), n), 1.0
    return n, span  # all points; max distance inflated by span^(1/p), p = 1


@dataclass(frozen=True)
class LoessSmooth:
    """Fitted loess smooth: local lines through the last smoothed response."""

    xs: np.ndarray             # sorted training x
    q: int
    inflate: float
    target_sorted: np.ndarray  # response of the last backfitting pass, in xs order
    offset: float              # training mean of the fitted values

    def predict(self, x_new: np.ndarray) -> np.ndarray:
        op = _loess_operator(self.xs, x_new, self.q, self.inflate)
        return op.apply(self.target_sorted) - self.offset


class _LoessSmoother:
    """Backfitting adapter: fixed windows/weights, response swapped per cycle."""

    def __init__(self, x: np.ndarray, span: float):
        x = np.asarray(x, dtype=float)
        self.q, self.inflate = _span_window(len(x), span)
        self.order = np.argsort(x, kind="stable")
        self.xs = x[self.order]
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(x))
        self.op = _loess_operator(self.xs, self.xs, self.q, self.inflate,
                                  self_rows=np.arange(len(self.xs)))
        self.edf = float(self.op.hat_diag().sum())

    def smooth(self, residual: np.ndarray) -> np.ndarray:
        self.target_sorted = residual[self.order]
        fitted = self.op.apply(self.target_sorted)[self.rank]
        self.offset = float(fitted.mean())
        return fitted - self.offset

    def fitted(self) -> LoessSmooth:
        return LoessSmooth(xs=self.xs, q=self.q, inflate=self.inflate,
                           target_sorted=self.target_sorted, offset=self.offset)


# ---------------------------------------------------------------------------
# backfitting GAM


@dataclass(frozen=True)
class SmootherSpec:
    kind: str  # "spline" | "loess"
    n_knots: int = 0
    span: float = 0.75


def spline_spec(n_knots: int) -> SmootherSpec:
    return SmootherSpec(kind="spline", n_knots=n_knots)


def loess_spec(span: float) -> SmootherSpec:
    return SmootherSpec(kind="loess", span=span)


@dataclass
class GamModel:
    intercept: float
    specs: tuple[SmootherSpec, ...]
    smooths: tuple  # one SplineSmooth or LoessSmooth per predictor
    train_min: np.ndarray
    train_max: np.ndarray
    fitted: np.ndarray
    rss_path: tuple[float, ...]
    edf: tuple[float, ...]
    n_cycles: int

    @property
    def rss(self) -> float:
        return self.rss_path[-1]

    @property
    def df(self) -> float:
        return 1.0 + float(sum(self.edf))

    @property
    def n_rows(self) -> int:
        return len(self.fitted)


def _joint_spline_fit(workers, y, intercept) -> np.ndarray:
    """Backfitting's limit for spline smoothers: sets each worker's
    coefficients and returns the fitted values.

    Each spline smoother is a projection, so backfitting converges to the
    joint least-squares fit on all centered bases (Hastie & Tibshirani 1990,
    ch. 5).
    """
    design = np.hstack([w.Bc for w in workers])
    coef = np.linalg.lstsq(design, y - intercept, rcond=None)[0]
    splits = np.cumsum([w.Bc.shape[1] for w in workers])[:-1]
    for w, beta in zip(workers, np.split(coef, splits)):
        w.beta = beta
    return intercept + design @ coef


def backfit_gam(X, y, smoothers: Sequence[SmootherSpec]) -> GamModel:
    """Fit the additive model by iteratively smoothing partial residuals.

    Starts from the mean-only model, cycles over predictors until the
    largest change in fitted values falls below ``BACKFIT_TOL`` relative to
    the response spread; each smooth is recentered to training mean zero.
    A spline-only fit still moving after ``BACKFIT_MAX_CYCLES`` cycles (strong
    concurvity slows backfitting) ends at its exact limit, whose RSS is
    appended to ``rss_path``; a fit with a loess smoother raises instead.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] != len(y):
        raise ValidationError("X and y row counts differ")
    if len(y) < 10:
        raise ValidationError("backfitting needs at least 10 rows")
    p = X.shape[1]
    if len(smoothers) != p:
        raise ValidationError("one smoother spec per predictor is required")
    workers = []
    for j, spec in enumerate(smoothers):
        if spec.kind == "spline":
            workers.append(_SplineSmoother(X[:, j], spec.n_knots))
        elif spec.kind == "loess":
            workers.append(_LoessSmoother(X[:, j], spec.span))
        else:
            raise ValidationError(f"unknown smoother kind {spec.kind!r}")

    intercept = float(y.mean())
    scale = max(float(y.std()), 1e-12)
    contributions = np.zeros((p, len(y)))
    total = np.full(len(y), intercept)
    rss_path = []
    delta = np.inf
    for cycle in range(1, BACKFIT_MAX_CYCLES + 1):
        previous = total.copy()
        for j in range(p):
            partial = y - intercept - (contributions.sum(axis=0) - contributions[j])
            contributions[j] = workers[j].smooth(partial)
        total = intercept + contributions.sum(axis=0)
        rss_path.append(float(((y - total) ** 2).sum()))
        delta = float(np.abs(total - previous).max()) / scale
        if delta < BACKFIT_TOL:
            break
    else:
        if any(spec.kind != "spline" for spec in smoothers):
            raise NumericsError(
                f"backfitting did not converge in {BACKFIT_MAX_CYCLES} cycles "
                f"(last relative delta {delta:.3e})"
            )
        total = _joint_spline_fit(workers, y, intercept)
        rss_path.append(float(((y - total) ** 2).sum()))
    return GamModel(
        intercept=intercept,
        specs=tuple(smoothers),
        smooths=tuple(w.fitted() for w in workers),
        train_min=X.min(axis=0),
        train_max=X.max(axis=0),
        fitted=total,
        rss_path=tuple(rss_path),
        edf=tuple(w.edf for w in workers),
        n_cycles=cycle,
    )


def gam_predict(model: GamModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Additive prediction plus a flag for queries outside training ranges."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    yhat = np.full(len(X), model.intercept)
    for j, smooth in enumerate(model.smooths):
        yhat = yhat + smooth.predict(X[:, j])
    extrapolated = np.any((X < model.train_min) | (X > model.train_max), axis=1)
    return yhat, extrapolated


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    p_value: float
    df_num: float
    df_den: float
    note: str = "approximate F test; smoother families need not be nested"


def anova_compare(model_a: GamModel, model_b: GamModel) -> AnovaResult:
    """Approximate F comparison of a smaller model (a) to a larger one (b).

    F = ((RSS_a - RSS_b) / (df_b - df_a)) / (RSS_b / (n - df_b)).  When the
    larger model fails to reduce RSS the statistic is clamped to 0 with
    p = 1 (this also covers comparing a model with itself).
    """
    from scipy.special import fdtrc  # scipy loads only where a command uses it

    if model_a.n_rows != model_b.n_rows:
        raise ValidationError("models must be fit on the same rows")
    n = model_a.n_rows
    rss_a, rss_b = model_a.rss, model_b.rss
    df_a, df_b = model_a.df, model_b.df
    if rss_b >= rss_a:
        return AnovaResult(f_stat=0.0, p_value=1.0, df_num=max(df_b - df_a, 0.0),
                           df_den=max(n - df_b, 1.0))
    if df_b <= df_a:
        raise ValidationError("model_b must use more degrees of freedom than model_a")
    df_num = df_b - df_a
    df_den = n - df_b
    if df_den <= 0:
        raise ValidationError("larger model is saturated; no residual degrees of freedom")
    f_stat = ((rss_a - rss_b) / df_num) / (rss_b / df_den)
    p = float(fdtrc(df_num, df_den, f_stat))  # the F upper tail, as scipy.stats.f.sf
    return AnovaResult(f_stat=float(f_stat), p_value=p, df_num=df_num, df_den=df_den)
