import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from evmcontrol.density import (
    _gaussian_eval,
    _nelder_mead,
    _pairwise_tree_sum,
    _scv_criterion_factory,
    _theta_to_h,
    anomaly_probability,
    exceedance,
    fit_anomaly_model,
    kde_fit,
    normal_scale_bandwidth,
    percentile_rectangle,
    scv_bandwidth,
    write_density_grid_csv,
)
from evmcontrol.errors import ValidationError
from density_oracles import run_check
from scalar_reference import evaluate_grid, gaussian_eval_longdouble


def test_normal_scale_on_standard_normal(gaussian_cloud):
    H = normal_scale_bandwidth(gaussian_cloud)
    expected = len(gaussian_cloud) ** (-1 / 3)  # (4/(d+2))^(2/(d+4)) = 1 at d = 2
    assert H[0, 0] == pytest.approx(expected, rel=0.1)
    assert H[1, 1] == pytest.approx(expected, rel=0.1)
    assert abs(H[0, 1]) < 0.1 * expected


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 50))
def test_normal_scale_scaling(s):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 2))
    H1 = normal_scale_bandwidth(pts)
    H2 = normal_scale_bandwidth(pts * s)
    assert np.allclose(H2, H1 * s * s, rtol=1e-9)


def test_normal_scale_degenerate_inputs():
    with pytest.raises(ValidationError):
        normal_scale_bandwidth(np.array([[0.0, 0.0], [1.0, 1.0]]))
    line = np.column_stack([np.arange(10.0), 2 * np.arange(10.0)])
    with pytest.raises(ValidationError, match="collinear"):
        normal_scale_bandwidth(line)


def test_scv_close_to_normal_scale_on_gaussian():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((800, 2))
    H = scv_bandwidth(pts, seed=1)
    Hn = normal_scale_bandwidth(pts)
    for i in (0, 1):
        assert 0.5 <= H[i, i] / Hn[i, i] <= 2.0
    # optimizer must do at least as well as a diagonal grid search oracle
    from evmcontrol.density import _scv_criterion_factory

    criterion = _scv_criterion_factory(pts, Hn)
    grid_best = min(
        criterion(np.diag([a, b]))
        for a in np.geomspace(Hn[0, 0] / 4, Hn[0, 0] * 4, 9)
        for b in np.geomspace(Hn[1, 1] / 4, Hn[1, 1] * 4, 9)
    )
    assert criterion(H) <= grid_best * (1 + 1e-6)


def test_scv_axis_rescale_equivariance():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((600, 2))
    s = 25.0
    H1 = scv_bandwidth(pts, seed=4)
    H2 = scv_bandwidth(pts * np.array([s, 1.0]), seed=4)
    assert H2[0, 0] / (H1[0, 0] * s * s) == pytest.approx(1.0, abs=0.25)


def test_scv_small_sample_fallback():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((10, 2))
    with pytest.warns(UserWarning, match="normal-scale"):
        H = scv_bandwidth(pts)
    assert np.allclose(H, normal_scale_bandwidth(pts))


def test_kde_point_values():
    m = kde_fit(np.array([[0.0, 0.0]]), np.eye(2))
    assert m.evaluate(np.array([0.0, 0.0])) == pytest.approx(1 / (2 * np.pi), rel=1e-12)
    assert m.evaluate(np.array([1.0, 0.0])) == pytest.approx(
        np.exp(-0.5) / (2 * np.pi), rel=1e-12
    )


def test_kde_symmetry():
    pts = np.array([[1.0, 2.0], [-1.0, -2.0]])
    m = kde_fit(pts, np.eye(2) * 0.5)
    q = np.array([[0.3, 0.7], [-0.3, -0.7]])
    v = m.evaluate(q)
    assert v[0] == pytest.approx(v[1], rel=1e-12)


def test_kde_requires_spd_bandwidth():
    with pytest.raises(ValidationError):
        kde_fit(np.zeros((3, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]))  # det < 0


def test_kde_grid_integral_near_one():
    rng = np.random.default_rng(8)
    pts = rng.multivariate_normal([0, 0], [[2.0, 0.8], [0.8, 1.0]], size=600)
    H = normal_scale_bandwidth(pts)
    m = kde_fit(pts, H)
    sds = np.sqrt(np.diag(np.cov(pts.T))) + np.sqrt(np.diag(H))
    ts = np.linspace(pts[:, 0].min() - 6 * sds[0], pts[:, 0].max() + 6 * sds[0], 220)
    cs = np.linspace(pts[:, 1].min() - 6 * sds[1], pts[:, 1].max() + 6 * sds[1], 220)
    grid = evaluate_grid(m, ts, cs)
    integral = grid.sum() * (ts[1] - ts[0]) * (cs[1] - cs[0])
    assert 0.99 <= integral <= 1.01


def test_anomaly_extremes():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((400, 2))
    refs = rng.standard_normal((400, 2))
    m = kde_fit(pts, normal_scale_bandwidth(pts), reference_points=refs)
    dens_refs = m.evaluate(refs)
    densest = refs[np.argmax(dens_refs)]
    assert anomaly_probability(m, densest) == 0.0
    assert anomaly_probability(m, np.array([50.0, -50.0])) == 1.0


def test_anomaly_monotone_in_density():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((300, 2))
    m = kde_fit(pts, normal_scale_bandwidth(pts), reference_points=rng.standard_normal((300, 2)))
    qs = np.column_stack([np.linspace(0, 4, 25), np.zeros(25)])
    dens = m.evaluate(qs)
    scores = anomaly_probability(m, qs)
    order = np.argsort(dens)
    assert np.all(np.diff(scores[order]) <= 1e-12)


def test_anomaly_requires_reference():
    m = kde_fit(np.zeros((3, 2)) + np.arange(3)[:, None], np.eye(2))
    with pytest.raises(ValidationError, match="reference"):
        anomaly_probability(m, np.array([0.0, 0.0]))


def test_anomaly_scores_uniform_on_held_out():
    rng = np.random.default_rng(23)
    cov = [[1.0, 0.6], [0.6, 1.5]]
    cloud = rng.multivariate_normal([3, 10], cov, size=12000)
    model = fit_anomaly_model(cloud[:, 0], cloud[:, 1], seed=3, bandwidth="normal_scale")
    fresh = rng.multivariate_normal([3, 10], cov, size=4000)
    scores = anomaly_probability(model, fresh)
    assert kstest(scores, "uniform").statistic < 0.03
    assert abs((scores > 0.95).mean() - 0.05) < 0.012


def test_percentile_rectangle_degenerate():
    t = np.full(10, 2.0)
    c = np.full(10, 7.0)
    r = percentile_rectangle(t, c, 0.95)
    assert (r.t_lo, r.t_hi, r.c_lo, r.c_hi) == (2, 2, 7, 7)


def test_percentile_rectangle_normal_quantiles():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((100000, 2))
    r = percentile_rectangle(pts[:, 0], pts[:, 1], 0.95)
    for v, expected in ((r.t_lo, -1.96), (r.t_hi, 1.96), (r.c_lo, -1.96), (r.c_hi, 1.96)):
        assert v == pytest.approx(expected, abs=0.03)


def test_percentile_rectangle_levels():
    rng = np.random.default_rng(6)
    t = rng.uniform(0, 1, 5000)
    c = rng.uniform(0, 1, 5000)
    r = percentile_rectangle(t, c, 0.75)
    assert r.t_lo == pytest.approx(np.quantile(t, 0.125), rel=1e-12)
    assert r.t_hi == pytest.approx(np.quantile(t, 0.875), rel=1e-12)


def test_rectangle_coverage_bound():
    rng = np.random.default_rng(11)
    cov = [[1.0, 0.9], [0.9, 1.0]]
    pts = rng.multivariate_normal([0, 0], cov, size=20000)
    r = percentile_rectangle(pts[:, 0], pts[:, 1], 0.95)
    inside = (
        (pts[:, 0] >= r.t_lo) & (pts[:, 0] <= r.t_hi)
        & (pts[:, 1] >= r.c_lo) & (pts[:, 1] <= r.c_hi)
    )
    assert inside.mean() >= 0.90


def test_correlation_sensitivity_rectangle_misses_kde_flags():
    """A corner point of the marginal box is wildly unlikely under strong
    positive correlation; KDE flags it, the rectangle cannot."""
    rng = np.random.default_rng(31)
    cov = [[1.0, 0.9], [0.9, 1.0]]
    pts = rng.multivariate_normal([0, 0], cov, size=8000)
    t, c = pts[:, 0], pts[:, 1]
    rect = percentile_rectangle(t, c, 0.95)
    point = (rect.t_hi, rect.c_lo)  # the (97.5th of t, 2.5th of c) corner
    assert rect.contains(*point)
    model = fit_anomaly_model(t, c, seed=9, bandwidth="normal_scale")
    assert anomaly_probability(model, np.array(point)) > 0.95


def test_density_grid_csv(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 2))
    m = kde_fit(pts, normal_scale_bandwidth(pts), reference_points=rng.standard_normal((200, 2)))
    out = tmp_path / "grid.csv"
    write_density_grid_csv(m, np.linspace(-2, 2, 5), np.linspace(-2, 2, 4), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,c,density,anomaly_score"
    assert len(lines) == 1 + 5 * 4


def _binned_case(seed=8, n=600):
    rng = np.random.default_rng(seed)
    pts = rng.multivariate_normal([0, 0], [[2.0, 0.8], [0.8, 1.0]], size=n)
    H = normal_scale_bandwidth(pts)
    m = kde_fit(pts, H)
    sd = np.sqrt(np.diag(H))
    ts = np.linspace(pts[:, 0].min() - 3 * sd[0], pts[:, 0].max() + 3 * sd[0], 90)
    cs = np.linspace(pts[:, 1].min() - 3 * sd[1], pts[:, 1].max() + 3 * sd[1], 70)
    return m, ts, cs


def test_anomaly_calibration_script_runs(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "anomaly_calibration.py"),
         "--runs", "3000", "--scored", "500", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "fraction with score > 0.95" in proc.stdout
    assert (tmp_path / "density_grid.csv").is_file()


def test_binned_grid_close_to_exact():
    m, ts, cs = _binned_case()
    exact = evaluate_grid(m, ts, cs)
    binned = m.binned_grid(ts, cs)
    assert binned.shape == exact.shape == (90, 70)
    assert np.abs(binned - exact).max() <= 0.01 * exact.max()


def test_binned_grid_integral_near_one():
    m, ts, cs = _binned_case()
    grid = m.binned_grid(ts, cs)
    integral = grid.sum() * (ts[1] - ts[0]) * (cs[1] - cs[0])
    assert 0.99 <= integral <= 1.01


def test_binned_grid_rejects_uncovered_points():
    m, ts, cs = _binned_case()
    t_min, c_max = m.points[:, 0].min(), m.points[:, 1].max()
    with pytest.raises(ValidationError, match="cover"):
        m.binned_grid(np.linspace(t_min + 1e-6, ts[-1], 90), cs)
    with pytest.raises(ValidationError, match="cover"):
        m.binned_grid(ts, np.linspace(cs[0], c_max - 1e-6, 70))
    with pytest.raises(ValidationError, match="evenly"):
        m.binned_grid(np.r_[ts[:-1], ts[-1] + 1.0], cs)


def test_reference_points_in_density_order():
    rng = np.random.default_rng(31)
    pts = rng.multivariate_normal([3, 10], [[1.0, 0.6], [0.6, 1.5]], size=1500)
    raw = rng.multivariate_normal([3, 10], [[1.0, 0.6], [0.6, 1.5]], size=1500)
    H = normal_scale_bandwidth(pts)
    model = kde_fit(pts, H, reference_points=raw)
    # the same evaluation kde_fit makes, in the sample's own order
    dens = kde_fit(pts, H).evaluate(raw)
    order = np.argsort(dens, kind="stable")
    np.testing.assert_array_equal(model.reference_densities, dens[order])
    np.testing.assert_array_equal(model.reference_points, raw[order])
    # scoring is row-local: the new order, and a status scored on its own,
    # give the stored densities bit for bit
    np.testing.assert_array_equal(model.evaluate(model.reference_points),
                                  model.reference_densities)
    for k in range(0, len(raw), 97):
        assert model.evaluate(model.reference_points[k]) == model.reference_densities[k]
    np.testing.assert_array_equal(exceedance(model.reference_densities, dens),
                                  anomaly_probability(model, raw))


def test_gaussian_eval_against_longdouble():
    rng = np.random.default_rng(12)
    cov = np.array([[0.36, 300.0], [300.0, 6.4e5]])
    centres = rng.multivariate_normal([5.0, 1.0e4], cov, size=8000)
    # typical queries and tail queries several standard deviations out
    spread = rng.multivariate_normal([0.0, 0.0], cov, size=200) * rng.uniform(0.2, 2.0, (200, 1))
    queries = np.array([5.0, 1.0e4]) + spread
    H = normal_scale_bandwidth(centres)
    got = _gaussian_eval(centres, H, queries)
    want = gaussian_eval_longdouble(centres, H, queries)
    assert float(np.max(np.abs(got - want) / want)) <= 1e-13


# ---------------------------------------------------------------------------
# The Gaussian sums against the oracles in scalar_reference.py, and scoring
# under two BLAS thread counts.  Each check runs in a subprocess whose BLAS
# thread count is set before numpy loads.


@pytest.mark.parametrize("n_centres, n_queries", [(8000, 10000), (2000, 2000), (1500, 1500)])
def test_gaussian_eval_matches_oracle_at_pipeline_sizes(n_centres, n_queries):
    run_check("eval", n_centres, n_queries)


def test_scv_pair_sum_matches_oracle():
    run_check("phi_sum")


def test_scoring_bytes_do_not_depend_on_blas_threads():
    one, two = (run_check("digest", threads=n) for n in (1, 2))
    assert one.strip() and one == two


def test_pairwise_tree_sum_is_numpy_sum():
    # Guards the copy of numpy's pairwise summation order: a numpy release
    # that sums in another order fails here, not as a 1-ulp report change.
    rng = np.random.default_rng(3)
    values = rng.standard_normal(10**5 + 3) * 10.0 ** rng.uniform(-8, 8, 10**5 + 3)

    def tree_sum(n, leaf):
        return _pairwise_tree_sum(n, lambda lo, hi: values[lo:hi].sum(), leaf)

    for n in range(301):
        want = values[:n].sum()
        assert tree_sum(n, 128) == want, n
        assert tree_sum(n, 200) == want, n
    for leaf in (128, 1000, 2**14):
        assert tree_sum(len(values), leaf) == values.sum(), leaf


# ---------------------------------------------------------------------------
# The in-package Nelder-Mead against scipy's, which it reproduces bit for bit.

NM_MAXITERS = (1, 2, 7, 150)


def _assert_nelder_mead_is_scipys(fun, x0, maxiter, xatol, fatol):
    from scipy.optimize import minimize

    want = minimize(fun, x0, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    x, f, evaluations = _nelder_mead(fun, x0, maxiter=maxiter, xatol=xatol, fatol=fatol)
    assert x.tobytes() == want.x.tobytes()
    assert np.float64(f).tobytes() == np.float64(want.fun).tobytes()
    assert evaluations == want.nfev


@pytest.mark.parametrize("seed, n, corr", [(0, 60, 0.3), (1, 150, -0.6), (2, 400, 0.0),
                                           (3, 250, 0.9989), (4, 300, 0.99995)])
def test_nelder_mead_is_scipys_on_scv(seed, n, corr):
    """The SCV problem of a seeded cloud, as ``scv_bandwidth`` poses it; the
    last two are as near-collinear as the clouds at the 20-40% pivots."""
    rng = np.random.default_rng(seed)
    sd_t, sd_c = 0.6, 800.0
    cov = [[sd_t**2, corr * sd_t * sd_c], [corr * sd_t * sd_c, sd_c**2]]
    pts = rng.multivariate_normal([5.0, 1.0e4], cov, size=n)
    h0 = normal_scale_bandwidth(pts)
    criterion = _scv_criterion_factory(pts, h0)
    chol = np.linalg.cholesky(h0)
    theta0 = np.array([np.log(chol[0, 0]), chol[1, 0], np.log(chol[1, 1])])
    fatol = abs(criterion(h0)) * 1e-7
    for maxiter in NM_MAXITERS:
        _assert_nelder_mead_is_scipys(lambda th: criterion(_theta_to_h(th)), theta0,
                                      maxiter, 1e-3, fatol)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


# Synthetic problems that between them run every branch: the Rosenbrock valley
# converges (expansions, contractions); a wall of inf cuts it off; a staircase's
# flat steps test each comparison's tie rule and fail inside contractions; a
# rugged sine fails outside ones.  A zero start coordinate takes the simplex's
# fixed step.
NM_SYNTHETIC = {
    "rosenbrock": (_rosenbrock, [-1.2, 0.0, 1.0]),
    "inf_wall": (lambda x: np.inf if x[0] + x[1] > 1.5 else _rosenbrock(x), [0.0, 0.5]),
    "staircase": (lambda x: float(np.floor(np.sum(x * x))), [1.0, 2.0]),
    "rugged": (lambda x: float(np.sum(np.sin(997.0 * x)) + 0.01 * np.sum(x * x)),
               [0.5, 0.5, 0.0]),
}

# Statements of _nelder_mead that only one branch runs.
NM_BRANCH_STATEMENTS = (
    "y[k] = (1 + 0.05) * y[k]", "y[k] = 0.00025", "break",
    "sim[-1], fsim[-1] = xe, fxe", "sim[-1], fsim[-1] = xr, fxr",
    "sim[-1], fsim[-1] = xc, fxc", "sim[-1], fsim[-1] = xcc, fxcc",
    "shrink = True", "fsim[j] = f(sim[j])",
)


def test_nelder_mead_is_scipys_on_every_branch():
    lines, first = inspect.getsourcelines(_nelder_mead)
    branches = {first + i for i, line in enumerate(lines)
                if line.strip().split("  #")[0] in NM_BRANCH_STATEMENTS}
    assert len(branches) == len(NM_BRANCH_STATEMENTS) + 2  # two xr and two shrink lines
    code = _nelder_mead.__code__
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is code and event == "line":
            ran.add(frame.f_lineno)
        return trace

    outer = sys.gettrace()
    for fun, x0 in NM_SYNTHETIC.values():
        for maxiter in NM_MAXITERS:
            sys.settrace(trace)
            try:
                _nelder_mead(fun, np.array(x0), maxiter=maxiter, xatol=1e-8, fatol=1e-8)
            finally:
                sys.settrace(outer)
            _assert_nelder_mead_is_scipys(fun, np.array(x0), maxiter, 1e-8, 1e-8)
    assert branches <= ran, sorted(branches - ran)
