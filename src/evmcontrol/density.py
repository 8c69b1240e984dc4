"""2-D Gaussian kernel density estimation and anomaly scoring.

The density model for the (t, c) point cloud at one earned-value pivot is
a kernel density estimate with a full (oriented) bandwidth matrix H:

    f(x) = (1/n) sum_i K_H(x - x_i),   K_H = bivariate normal, covariance H.

Bandwidths come either from the normal-reference rule or from minimizing
the smoothed cross-validation criterion (Hall, Marron & Park 1992; Duong &
Hazelton 2005), evaluated in closed form for Gaussian kernels:

    SCV(H) = (4 pi)^(-d/2) |H|^(-1/2) / n
           + n^(-2) sum_ij (phi_{2H+2G} - 2 phi_{H+2G} + phi_{2G})(x_i - x_j)

with a normal-scale pilot G and phi_S the N(0, S) density.  The double sum
runs over all ordered pairs including i = j.

Anomaly scores use highest-density-region exceedance: the score of a
status is the fraction of a held-out reference sample whose fitted density
is strictly larger.  Scores near 0 are typical; a score above 0.95 places
the status outside the 5% density contour.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvio
from .errors import ValidationError
from .quadform import sq_dists, whiten
from .rng import generator

SCV_MIN_POINTS = 50
SCV_SUBSAMPLE_DEFAULT = 2000


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be an (n, 2) array")
    return pts


def check_bandwidth(H) -> np.ndarray:
    """Validate a 2x2 symmetric positive-definite bandwidth matrix."""
    H = np.asarray(H, dtype=float)
    if H.shape != (2, 2) or not np.allclose(H, H.T, rtol=1e-10, atol=0):
        raise ValidationError("bandwidth must be a symmetric 2x2 matrix")
    det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
    if H[0, 0] <= 0 or det <= 0:
        raise ValidationError("bandwidth matrix must be positive definite")
    return H


def normal_scale_bandwidth(points) -> np.ndarray:
    """Normal-reference bandwidth n^(-2/(d+4)) (4/(d+2))^(2/(d+4)) Cov."""
    pts = _as_points(points)
    n, d = pts.shape
    if n < 3:
        raise ValidationError("normal-scale bandwidth needs at least 3 points")
    cov = np.cov(pts.T, ddof=1)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    scale = max(cov[0, 0], cov[1, 1])
    if not np.isfinite(det) or det <= 1e-12 * max(scale, 1e-300) ** 2:
        raise ValidationError("sample covariance is singular (points are collinear)")
    factor = n ** (-2.0 / (d + 4)) * (4.0 / (d + 2)) ** (2.0 / (d + 4))
    return factor * cov


# SCV pair sums run in leaves of at most _PAIR_LEAF pairs, and kernel sums in
# row blocks of about _EVAL_BLOCK entries, each in buffers reused from leaf to
# leaf or block to block: a few MB of working memory at any sample size.  The
# pair sums do the float operations of one whole-array expression in the same
# order, so they are bit for bit that expression's; a kernel sum is row-local
# (see quadform), so the block size does not change it.
_PAIR_LEAF = 2**14
_EVAL_BLOCK = 2**17


def _pairwise_tree_sum(n: int, leaf_sum, leaf: int = _PAIR_LEAF) -> float:
    """``np.sum`` of an n-element array whose leaves come from ``leaf_sum``.

    numpy sums a contiguous float array pairwise: it halves the length,
    rounded down to a multiple of 8, until at most 128 elements remain.
    Splitting the same way down to ``leaf`` elements (>= 128) and summing
    each leaf with ``np.sum`` (``leaf_sum(lo, hi)``) adds the same numbers
    in the same tree, so the result equals ``np.sum`` of the whole array.
    """

    def node(lo: int, m: int) -> float:
        if m <= leaf:
            return leaf_sum(lo, lo + m)
        half = m // 2
        half -= half % 8
        return node(lo, half) + node(lo + half, m - half)

    return node(0, n)


class _PairKernelSum:
    """The N(0, S) density at x_i - x_j, summed over all ordered pairs (i, j).

    The squared differences of the n(n - 1)/2 pairs i < j are stored once,
    row by row in ``np.triu_indices`` order; each call evaluates the kernel
    leaf by leaf in two reused buffers.
    """

    def __init__(self, pts: np.ndarray):
        n = len(pts)
        self.n = n
        self.prods = np.empty((3, n * (n - 1) // 2))
        start = 0
        for i in range(n - 1):
            du = pts[i, 0] - pts[i + 1 :, 0]
            dv = pts[i, 1] - pts[i + 1 :, 1]
            stop = start + du.size
            np.multiply(du, du, out=self.prods[0, start:stop])
            np.multiply(du, dv, out=self.prods[1, start:stop])
            np.multiply(dv, dv, out=self.prods[2, start:stop])
            start = stop
        size = min(self.prods.shape[1], _PAIR_LEAF)
        self._q = np.empty(size)
        self._tmp = np.empty(size)

    def __call__(self, S: np.ndarray) -> float:
        det = S[0, 0] * S[1, 1] - S[0, 1] ** 2
        if not np.isfinite(det) or det <= 0:
            return np.inf
        a00 = S[1, 1] / det
        a11 = S[0, 0] / det
        a01x2 = 2 * (-S[0, 1] / det)
        p_uu, p_uv, p_vv = self.prods

        def leaf_sum(lo: int, hi: int) -> float:
            # -0.5 * (a00 * p_uu + 2 * a01 * p_uv + a11 * p_vv), then exp
            q, tmp = self._q[: hi - lo], self._tmp[: hi - lo]
            np.multiply(p_uu[lo:hi], a00, out=q)
            np.multiply(p_uv[lo:hi], a01x2, out=tmp)
            np.add(q, tmp, out=q)
            np.multiply(p_vv[lo:hi], a11, out=tmp)
            np.add(q, tmp, out=q)
            np.multiply(q, -0.5, out=q)
            np.exp(q, out=q)
            return q.sum()

        with np.errstate(under="ignore"):
            total = self.n + 2.0 * _pairwise_tree_sum(self.prods.shape[1], leaf_sum)
        return total / (2 * np.pi * np.sqrt(det))


def _scv_criterion_factory(pts: np.ndarray, G: np.ndarray):
    """Closed-form SCV objective over candidate H for a fixed pilot G."""
    n = len(pts)
    phi_sum = _PairKernelSum(pts)
    const_2g = phi_sum(2 * G)

    def criterion(H: np.ndarray) -> float:
        det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        if not np.isfinite(det) or det <= 0:
            return np.inf
        term1 = 1.0 / (4 * np.pi * n * np.sqrt(det))
        pair = phi_sum(2 * H + 2 * G) - 2 * phi_sum(H + 2 * G) + const_2g
        return term1 + pair / n**2

    return criterion


def _theta_to_h(theta: np.ndarray) -> np.ndarray:
    # lower-triangular square root with positive diagonal
    l00 = np.exp(theta[0])
    l11 = np.exp(theta[2])
    l10 = theta[1]
    return np.array([[l00 * l00, l00 * l10], [l00 * l10, l10 * l10 + l11 * l11]])


def _nelder_mead(fun, x0: np.ndarray, maxiter: int, xatol: float, fatol: float):
    """Minimize ``fun`` from ``x0`` by the Nelder-Mead simplex (Nelder & Mead 1965).

    Returns ``(x, fun(x), evaluations)``.  This is scipy 1.17's
    ``minimize(method="Nelder-Mead")`` without bounds, adaptive parameters
    or an evaluation cap, and with the same float expressions in the same
    order, so its iterates, and the bandwidth chosen from them, are scipy's
    bit for bit.  It stops when the simplex spans at most ``xatol`` in every
    coordinate and ``fatol`` in value, or after ``maxiter - 1`` iterations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        calls += 1
        return fun(x.copy())

    fsim = np.array([f(x) for x in sim], dtype=float)
    order = np.argsort(fsim)
    sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            shrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:  # towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], np.min(fsim), calls


def scv_bandwidth(
    points,
    subsample: int = SCV_SUBSAMPLE_DEFAULT,
    seed: int = 0,
    maxiter: int = 150,
) -> np.ndarray:
    """Full bandwidth matrix minimizing the SCV criterion.

    The objective is optimized over SPD matrices through their Cholesky
    factor (log-parameterized diagonal) with Nelder-Mead, started at the
    normal-scale bandwidth.  Samples larger than ``subsample`` are reduced
    to a seeded subsample before the O(n^2) criterion is formed.  Falls
    back to the normal-scale rule (with a warning) below
    ``SCV_MIN_POINTS`` points or when the optimizer fails to improve.
    """
    pts = _as_points(points)
    if len(pts) < SCV_MIN_POINTS:
        h0 = normal_scale_bandwidth(pts)
        warnings.warn(
            f"fewer than {SCV_MIN_POINTS} points: falling back to the normal-scale bandwidth"
        )
        return h0
    if len(pts) > subsample:
        keep = generator(seed, 0xBA17D).choice(len(pts), size=subsample, replace=False)
        pts = pts[np.sort(keep)]

    # the normal-scale bandwidth is both the start and the pilot G
    h0 = normal_scale_bandwidth(pts)
    criterion = _scv_criterion_factory(pts, h0)

    chol = np.linalg.cholesky(h0)
    theta0 = np.array([np.log(chol[0, 0]), chol[1, 0], np.log(chol[1, 1])])
    f0 = criterion(h0)
    theta, f_opt, _ = _nelder_mead(lambda th: criterion(_theta_to_h(th)), theta0,
                                   maxiter=maxiter, xatol=1e-3, fatol=abs(f0) * 1e-7)
    h_opt = _theta_to_h(theta)
    if not np.isfinite(f_opt) or f_opt >= f0:
        warnings.warn("SCV optimizer failed to improve; returning the normal-scale bandwidth")
        return h0
    return check_bandwidth(h_opt)


def _gaussian_eval(centers: np.ndarray, H: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mean Gaussian kernel density of ``queries`` against ``centers``.

    Each query's density depends only on that query: any batch or order of
    queries gives the same bits.
    """
    det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
    norm = 1.0 / (2 * np.pi * np.sqrt(det) * len(centers))
    # whitened by 2H, a squared distance is 0.5 (x - y)^T H^-1 (x - y)
    c0, c1 = whiten(centers, 2 * H)
    q0, q1 = whiten(queries, 2 * H)
    n_q = len(queries)
    out = np.empty(n_q)
    rows = max(1, _EVAL_BLOCK // len(centers))
    sq = np.empty((min(rows, n_q), len(centers)))
    tmp = np.empty_like(sq)
    for lo in range(0, n_q, rows):
        hi = min(lo + rows, n_q)
        s = sq_dists(q0[lo:hi], q1[lo:hi], c0, c1, out=sq[: hi - lo], tmp=tmp[: hi - lo])
        np.negative(s, out=s)
        with np.errstate(under="ignore"):
            np.exp(s, out=s)
        out[lo:hi] = s.sum(axis=1) * norm
    return out


def exceedance(refs: np.ndarray, dens) -> np.ndarray:
    """Share of the ascending ``refs`` strictly greater than each density."""
    return (refs.size - np.searchsorted(refs, dens, side="right")) / refs.size


def _uniform_step(nodes: np.ndarray) -> float:
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValidationError("binned grid axes need at least 2 nodes")
    step = (nodes[-1] - nodes[0]) / (nodes.size - 1)
    if not step > 0 or not np.allclose(np.diff(nodes), step, rtol=1e-9, atol=0):
        raise ValidationError("binned grid axes must be increasing and evenly spaced")
    return float(step)


def _linear_bin(x: np.ndarray, nodes: np.ndarray, step: float):
    """Lower node index and upper-node weight of each x on an even grid."""
    u = (x - nodes[0]) / step
    if u.min() < 0 or u.max() > nodes.size - 1:
        raise ValidationError("binned grid must cover every fit point")
    lo = np.minimum(np.floor(u).astype(np.intp), nodes.size - 2)
    return lo, u - lo


@dataclass(frozen=True)
class DensityModel:
    """Fitted KDE plus a held-out reference sample for anomaly scoring.

    ``reference_densities`` is sorted ascending and ``reference_points`` is
    kept in the same order, so ``reference_densities[k]`` is the density of
    ``reference_points[k]``.
    """

    points: np.ndarray
    H: np.ndarray
    reference_densities: np.ndarray
    reference_points: np.ndarray

    def evaluate(self, queries) -> np.ndarray | float:
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        vals = _gaussian_eval(self.points, self.H, q)
        return float(vals[0]) if np.ndim(queries) == 1 else vals

    def binned_grid(self, ts, cs) -> np.ndarray:
        """Linearly binned approximation of the density on the product grid;
        result[i, j] approximates f(ts[i], cs[j]).

        The fit points are spread onto the nodes of the evenly spaced grid
        with bilinear weights, and the node counts are convolved (by FFT)
        with ``K_H`` sampled at every grid offset, untruncated (Wand 1994).
        The grid must cover every fit point.  The error shrinks with the
        square of the grid step relative to the bandwidth; it serves
        drawing, not scoring.
        """
        ts = np.asarray(ts, float)
        cs = np.asarray(cs, float)
        dt, dc = _uniform_step(ts), _uniform_step(cs)
        m, k = ts.size, cs.size
        it, wt = _linear_bin(self.points[:, 0], ts, dt)
        ic, wc = _linear_bin(self.points[:, 1], cs, dc)
        counts = np.zeros(m * k)
        for di, w_t in ((0, 1 - wt), (1, wt)):
            for dj, w_c in ((0, 1 - wc), (1, wc)):
                counts += np.bincount((it + di) * k + ic + dj, w_t * w_c, minlength=m * k)
        H = self.H
        det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        ot = dt * np.arange(1 - m, m)
        oc = dc * np.arange(1 - k, k)
        # whitening is linear, so whiten((ot, 0)) - whiten((0, -oc)) = whiten((ot, oc))
        sq = sq_dists(*whiten(np.column_stack([ot, np.zeros_like(ot)]), 2 * H),
                      *whiten(np.column_stack([np.zeros_like(oc), -oc]), 2 * H))
        with np.errstate(under="ignore"):
            kernel = np.exp(-sq) / (2 * np.pi * np.sqrt(det) * len(self.points))
        # A circular convolution of length >= 2m - 1 (2k - 1) leaves the m (k)
        # outputs at offset m - 1 (k - 1) free of wrap-around.
        from scipy import fft  # scipy loads only where a command uses it

        shape = [fft.next_fast_len(n, real=True) for n in kernel.shape]
        full = fft.irfft2(fft.rfft2(counts.reshape(m, k), shape) * fft.rfft2(kernel, shape), shape)
        grid = full[m - 1 : 2 * m - 1, k - 1 : 2 * k - 1]
        return np.maximum(grid, 0.0)  # FFT round-off can dip below 0 in empty tails


def kde_fit(points, H, reference_points=None) -> DensityModel:
    """Fit the KDE; optionally score a held-out reference sample.

    ``reference_points`` should be disjoint from ``points`` so that the
    anomaly score of a fresh status is rank-calibrated.
    """
    pts = _as_points(points)
    if len(pts) < 1:
        raise ValidationError("kde_fit needs at least one point")
    H = check_bandwidth(H)
    refs = np.array([])
    ref_pts = np.empty((0, 2))
    if reference_points is not None:
        ref_pts = _as_points(reference_points)
        dens = _gaussian_eval(pts, H, ref_pts)
        order = np.argsort(dens, kind="stable")
        refs, ref_pts = dens[order], ref_pts[order]
    return DensityModel(points=pts, H=H, reference_densities=refs, reference_points=ref_pts)


def anomaly_probability(model: DensityModel, status) -> np.ndarray | float:
    """Fraction of reference densities strictly greater than f(status)."""
    refs = model.reference_densities
    if refs.size == 0:
        raise ValidationError("density model has no reference sample")
    dens = np.atleast_1d(model.evaluate(np.atleast_2d(np.asarray(status, float))))
    score = exceedance(refs, dens)
    return float(score[0]) if np.ndim(status) == 1 else score


def fit_anomaly_model(
    t,
    c,
    seed: int = 0,
    bandwidth: str = "scv",
    fit_cap: int = 8000,
    reference_cap: int = 8000,
    scv_subsample: int = SCV_SUBSAMPLE_DEFAULT,
) -> DensityModel:
    """Split a triad cloud into fit/reference halves and build the model.

    Fitting on one half and ranking against the other avoids the
    optimistic bias of scoring training points against themselves.
    """
    pts = np.column_stack([np.asarray(t, float), np.asarray(c, float)])
    if len(pts) < 4:
        raise ValidationError("anomaly model needs at least 4 points")
    perm = generator(seed, 0x5B117).permutation(len(pts))
    half = len(pts) // 2
    fit_idx = perm[:half][:fit_cap]
    ref_idx = perm[half:][:reference_cap]
    fit_pts = pts[np.sort(fit_idx)]
    if bandwidth == "scv":
        H = scv_bandwidth(fit_pts, subsample=scv_subsample, seed=seed)
    elif bandwidth == "normal_scale":
        H = normal_scale_bandwidth(fit_pts)
    else:
        raise ValidationError(f"unknown bandwidth rule: {bandwidth}")
    return kde_fit(fit_pts, H, reference_points=pts[np.sort(ref_idx)])


@dataclass(frozen=True)
class ConfidenceRectangle:
    """Independent marginal percentile box for (t, c) at one pivot."""

    level: float
    t_lo: float
    t_hi: float
    c_lo: float
    c_hi: float

    def contains(self, t: float, c: float) -> bool:
        return self.t_lo <= t <= self.t_hi and self.c_lo <= c <= self.c_hi


def percentile_rectangle(t, c, level: float) -> ConfidenceRectangle:
    """Marginal empirical percentiles at (1 +- level)/2 for t and c."""
    t = np.asarray(t, dtype=float)
    c = np.asarray(c, dtype=float)
    if t.size < 2 or c.size != t.size:
        raise ValidationError("percentile rectangle needs >= 2 paired rows")
    if not 0 < level < 1:
        raise ValidationError("level must lie in (0, 1)")
    lo, hi = (1 - level) / 2, (1 + level) / 2
    t_lo, t_hi = np.quantile(t, [lo, hi])
    c_lo, c_hi = np.quantile(c, [lo, hi])
    return ConfidenceRectangle(level, float(t_lo), float(t_hi), float(c_lo), float(c_hi))


def write_density_grid_csv(model: DensityModel, ts, cs, path: str | Path) -> None:
    """Export ``t,c,density,anomaly_score`` over the product grid."""
    ts = np.asarray(ts, float)
    cs = np.asarray(cs, float)
    tt, cc = np.meshgrid(ts, cs, indexing="ij")
    flat = np.column_stack([tt.ravel(), cc.ravel()])
    dens = model.evaluate(flat)
    refs = model.reference_densities
    score = exceedance(refs, dens) if refs.size else np.full(len(flat), np.nan)
    csvio.write_csv(path, "t,c,density,anomaly_score",
                    [("%.9g", col) for col in (flat[:, 0], flat[:, 1], dens, score)])
