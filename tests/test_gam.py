import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.errors import NumericsError, ValidationError
from evmcontrol.gam import (
    BACKFIT_MAX_CYCLES,
    GamModel,
    _LoessOperator,
    _LoessSmoother,
    anova_compare,
    backfit_gam,
    gam_predict,
    loess_spec,
    natural_spline_basis,
    spline_spec,
)
from density_oracles import run_check


def test_spline_basis_dimension_and_rank():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 10, 200)
    for knots in (0, 2, 4, 8):
        basis, B = natural_spline_basis(x, knots)
        assert B.shape[1] == knots + 1
        assert np.linalg.matrix_rank(B) == knots + 1


def test_spline_contains_linear_functions():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 10, 300)
    y = 3 * x + 1
    _, B = natural_spline_basis(x, 4)
    D = np.column_stack([np.ones_like(x), B])
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    assert np.abs(D @ coef - y).max() <= 1e-8


def test_spline_linear_tails():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 10, 300)
    y = np.sin(x)
    basis, B = natural_spline_basis(x, 5)
    D = np.column_stack([np.ones_like(x), B])
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)

    def fitted(q):
        return np.column_stack([np.ones_like(q), basis.design(q)]) @ coef

    for q0 in (x.max() + 0.5, x.min() - 2.0):
        q = np.array([q0, q0 + 0.3, q0 + 0.6])
        vals = fitted(q)
        second_diff = vals[0] - 2 * vals[1] + vals[2]
        slope = (vals[2] - vals[0]) / 0.6
        assert abs(second_diff) <= 1e-6 * max(abs(slope), 1.0)


def test_spline_needs_distinct_values():
    with pytest.raises(ValidationError, match="distinct"):
        natural_spline_basis(np.array([1.0, 1.0, 1.0, 2.0]), 4)


def _loess_fit(x, y, span):
    """Loess fitted values of ``y`` on ``x``, and the fitted smoother."""
    smoother = _LoessSmoother(x, span)
    return smoother.smooth(np.asarray(y, dtype=float)) + smoother.offset, smoother


def test_loess_constant():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 5, 60)
    fitted, smoother = _loess_fit(x, np.full_like(x, 7.0), 0.4)
    assert np.abs(fitted - 7.0).max() <= 1e-12
    predicted = smoother.fitted().predict(np.linspace(0, 5, 11)) + smoother.offset
    assert np.abs(predicted - 7.0).max() <= 1e-12


def test_loess_recovers_global_line():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 10, 100)
    y = 2.5 * x - 4.0
    fitted, _ = _loess_fit(x, y, 2.0)  # all points in every neighborhood
    coef = np.polyfit(x, y, 1)
    ols_line = np.polyval(coef, x)
    assert np.abs(fitted - ols_line).max() <= 1e-6


def test_loess_span_above_one_inflates_max_distance():
    # span 2, one predictor: every point used, max distance doubled, so all
    # tricube weights are strictly positive even at the extremes
    x = np.linspace(0, 1, 20)
    smoother = _LoessSmoother(x, 2.0)
    assert smoother.q == len(x)
    assert smoother.inflate == 2.0
    assert smoother.op.weights.min() > 0


def test_loess_zero_spread_neighborhood_falls_back_to_mean():
    x = np.array([1.0, 1.0, 1.0, 5.0, 5.0, 5.0])
    y = np.array([2.0, 4.0, 6.0, 1.0, 1.0, 1.0])
    fitted, _ = _loess_fit(x, y, 0.5)  # q = 3: each cluster is its own window
    assert fitted[:3] == pytest.approx([4.0, 4.0, 4.0])


def _explicit_hat(smoother):
    """Hat matrix of a training pass (sorted order): the unit vectors smoothed."""
    return np.column_stack([smoother.op.apply(e) for e in np.eye(len(smoother.xs))])


@pytest.mark.parametrize("x, span", [
    (np.random.default_rng(17).uniform(0, 5, 40), 0.3),
    (np.random.default_rng(18).uniform(0, 5, 40), 1.5),
    (np.round(np.random.default_rng(19).uniform(0, 4, 60)), 0.2),
    (np.repeat([0.0, 1.0, 2.0], 5), 0.2),  # tie groups wider than the window
    (np.zeros(10), 0.05),
])
def test_loess_edf_is_trace_of_explicit_hat(x, span):
    smoother = _LoessSmoother(x, span)
    assert smoother.edf == pytest.approx(np.trace(_explicit_hat(smoother)), rel=1e-12, abs=1e-12)


def test_loess_leverage_zero_outside_own_window():
    # q = 3: the last x = 1 row lies outside the window its tie group shares
    smoother = _LoessSmoother(np.array([0.0, 1, 1, 1, 1, 2]), 0.5)
    assert smoother.q == 3
    want = [1, 1 / 3, 1 / 3, 1 / 3, 0, 1]
    np.testing.assert_allclose(np.diag(_explicit_hat(smoother)), want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(smoother.op.hat_diag(), want, rtol=0, atol=1e-15)


def test_tie_groups_wider_than_loess_window_fit():
    # both used to raise IndexError from hat_diag; a zero column now reaches
    # the spline's own check, and fits next to a spline column that varies
    assert _LoessSmoother(np.repeat([0.0, 1.0, 2.0], 5), 0.2).edf == pytest.approx(3.0)
    with pytest.raises(ValidationError, match="distinct"):
        backfit_gam(np.zeros((10, 2)), np.arange(10.0), [loess_spec(0.05), spline_spec(0)])
    X = np.column_stack([np.zeros(10), np.arange(10.0)])
    model = backfit_gam(X, np.arange(10.0), [loess_spec(0.05), spline_spec(0)])
    assert model.edf == (1.0, 1.0)
    assert np.abs(model.fitted - np.arange(10.0)).max() <= 1e-9


def _pickled_names(blob: bytes) -> set:
    """Every string a pickle's opcodes carry: class and module names among them."""
    names = set()
    for _, arg, _ in pickletools.genops(blob):
        if isinstance(arg, str):
            names.update(arg.split(" "))  # GLOBAL's argument is "module name"
    return names


FIT_TIME_CLASSES = {"_LoessOperator", "_LoessSmoother", "_SplineSmoother"}


@pytest.mark.parametrize("specs", [
    [loess_spec(0.3), loess_spec(1.5)],
    [spline_spec(3), spline_spec(0)],
    [spline_spec(4), loess_spec(0.6)],
])
def test_pickled_gam_predicts_bit_identically(specs):
    rng = np.random.default_rng(20)
    X = rng.uniform(0, 3, (300, 2))
    y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(300)
    model = backfit_gam(X, y, specs)
    blob = pickle.dumps(model)
    assert "GamModel" in _pickled_names(blob)
    assert not _pickled_names(blob) & FIT_TIME_CLASSES
    Q = rng.uniform(-0.5, 3.5, (200, 2))
    got, got_flag = gam_predict(pickle.loads(blob), Q)
    want, want_flag = gam_predict(model, Q)
    assert got.tobytes() == want.tobytes()
    assert got_flag.tolist() == want_flag.tolist()


def test_pickled_loess_gam_holds_parameters_only():
    # at the default training subsample and span 1 the training operators
    # would be 3 x n x n doubles per smoother (108 MB)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((1500, 2))
    y = X[:, 0] + np.sin(X[:, 1]) + rng.standard_normal(1500)
    model = backfit_gam(X, y, [loess_spec(1.0), loess_spec(1.0)])
    assert len(pickle.dumps(model)) < 200_000


@settings(max_examples=20, deadline=None)
@given(st.floats(-50, 50))
def test_loess_shift_equivariance(shift):
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 6, 50)
    y = np.sin(x) + 0.1 * rng.standard_normal(50)
    base, _ = _loess_fit(x, y, 0.5)
    moved, _ = _loess_fit(x, y + shift, 0.5)
    assert np.allclose(moved, base + shift, atol=1e-9 * (1 + abs(shift)))


def test_backfit_linear_truth_both_smoothers():
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, (500, 2))
    y = 2 + X[:, 0] + X[:, 1]
    for specs in ([spline_spec(4), spline_spec(4)], [loess_spec(0.5), loess_spec(0.5)]):
        model = backfit_gam(X, y, specs)
        assert model.intercept == pytest.approx(y.mean(), rel=1e-12)
        assert np.abs(model.fitted - y).max() <= 1e-6
        for j, smooth in enumerate(model.smooths):
            assert abs(smooth.predict(X[:, j]).mean()) <= 1e-6 * max(np.abs(y))


def test_backfit_ignores_pure_noise_predictor():
    rng = np.random.default_rng(8)
    n = 5000
    X = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)])
    y = 2 * np.sin(X[:, 0]) + 0.5 * rng.standard_normal(n)
    model = backfit_gam(X, y, [spline_spec(4), spline_spec(4)])
    f2 = model.smooths[1].predict(X[:, 1])
    assert np.abs(f2).max() <= 0.05 * y.std()


def test_backfit_orthogonal_predictors_fast_convergence():
    # with decorrelated inputs one cycle lands essentially at the optimum:
    # the second cycle recovers under 1% of the first cycle's RSS reduction
    rng = np.random.default_rng(9)
    n = 3000
    X = rng.standard_normal((n, 2))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
    model = backfit_gam(X, y, [spline_spec(4), spline_spec(4)])
    assert model.n_cycles <= 6
    total_ss = ((y - y.mean()) ** 2).sum()
    first_gain = total_ss - model.rss_path[0]
    second_gain = model.rss_path[0] - model.rss_path[1]
    assert second_gain <= 0.01 * first_gain


def test_backfit_rss_monotone():
    rng = np.random.default_rng(10)
    n = 1500
    X = rng.standard_normal((n, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])  # correlated
    y = X[:, 0] ** 3 * 0.2 + np.sin(2 * X[:, 1]) + rng.standard_normal(n)
    model = backfit_gam(X, y, [spline_spec(5), spline_spec(5)])
    diffs = np.diff(model.rss_path)
    assert np.all(diffs <= 1e-9 * model.rss_path[0])


def test_backfit_centering_and_mean_identity():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, (400, 2))
    y = np.exp(X[:, 0]) + rng.standard_normal(400) * 0.1
    model = backfit_gam(X, y, [spline_spec(3), loess_spec(0.6)])
    assert model.fitted.mean() == pytest.approx(y.mean(), rel=1e-9)


def test_backfit_validation():
    X = np.zeros((5, 2))
    with pytest.raises(ValidationError, match="10 rows"):
        backfit_gam(X, np.zeros(5), [spline_spec(2), spline_spec(2)])
    with pytest.raises(ValidationError, match="per predictor"):
        backfit_gam(np.zeros((20, 2)), np.zeros(20), [spline_spec(2)])


def _concurved_problem():
    """96 rows whose two features are nearly equal: concurvity slows
    backfitting to 113 cycles for spline(4) x spline(4)."""
    rng = np.random.default_rng(0)
    t = rng.normal(size=96)
    c = t + 0.3 * rng.normal(size=96)
    y = np.sin(t) + c**2 + 0.1 * rng.normal(size=96)
    return np.column_stack([t, c]), y


def test_spline_backfit_at_cycle_cap_ends_at_exact_limit():
    X, y = _concurved_problem()
    specs = [spline_spec(4), spline_spec(4)]
    model = backfit_gam(X, y, specs)
    assert model.n_cycles == BACKFIT_MAX_CYCLES
    assert len(model.rss_path) == BACKFIT_MAX_CYCLES + 1  # the limit's RSS comes last
    assert np.all(np.diff(model.rss_path) <= 1e-9 * model.rss_path[0])
    # the limit is the joint least-squares fit on [1, B_t, B_c]
    design = np.column_stack([np.ones(len(y)), *(natural_spline_basis(x, 4)[1] for x in X.T)])
    joint = design @ np.linalg.lstsq(design, y, rcond=None)[0]
    np.testing.assert_allclose(model.fitted, joint, rtol=0, atol=1e-9 * y.std())
    np.testing.assert_allclose(gam_predict(model, X)[0], model.fitted, rtol=0, atol=1e-9 * y.std())
    with mock.patch("evmcontrol.gam.BACKFIT_MAX_CYCLES", 10**4):
        uncapped = backfit_gam(X, y, specs)
    assert uncapped.n_cycles > BACKFIT_MAX_CYCLES
    assert model.rss <= uncapped.rss
    np.testing.assert_allclose(model.fitted, uncapped.fitted, rtol=0, atol=2e-5 * y.std())


def test_loess_backfit_at_cycle_cap_raises():
    X, y = _concurved_problem()
    with mock.patch("evmcontrol.gam.BACKFIT_MAX_CYCLES", 3), \
            pytest.raises(NumericsError, match="did not converge in 3 cycles"):
        backfit_gam(X, y, [loess_spec(0.5), spline_spec(4)])


def test_gam_predict_interpolates_and_flags():
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, (300, 2))
    y = 3 * X[:, 0] - X[:, 1] + 0.01 * rng.standard_normal(300)
    model = backfit_gam(X, y, [spline_spec(4), spline_spec(4)])
    yhat, flag = gam_predict(model, X[:10])
    assert np.abs(yhat - y[:10]).max() <= 0.05
    assert not flag.any()
    out, out_flag = gam_predict(model, np.array([[2.0, 0.5], [0.5, 0.5]]))
    assert out_flag.tolist() == [True, False]


def test_anova_identical_models():
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 1, (200, 2))
    y = rng.standard_normal(200)
    model = backfit_gam(X, y, [spline_spec(3), spline_spec(3)])
    res = anova_compare(model, model)
    assert res.f_stat == 0.0
    assert res.p_value == 1.0


def test_anova_detects_cubic_truth():
    rng = np.random.default_rng(14)
    n = 2000
    X = rng.uniform(-2, 2, (n, 2))
    y = X[:, 0] ** 3 + rng.standard_normal(n) * 0.5
    linear = backfit_gam(X, y, [spline_spec(0), spline_spec(0)])
    spline = backfit_gam(X, y, [spline_spec(4), spline_spec(4)])
    res = anova_compare(linear, spline)
    assert res.p_value < 1e-3


def test_anova_swapped_order_clamps_when_b_fits_worse():
    # passing (complex, simple): the simple model cannot reduce RSS, so the
    # statistic clamps at 0 with p = 1 (the rule that also covers identical
    # models, where the degrees of freedom tie)
    rng = np.random.default_rng(15)
    X = rng.uniform(0, 1, (200, 2))
    y = np.sin(6 * X[:, 0]) + rng.standard_normal(200) * 0.05
    small = backfit_gam(X, y, [spline_spec(0), spline_spec(0)])
    large = backfit_gam(X, y, [spline_spec(5), spline_spec(5)])
    res = anova_compare(large, small)
    assert res.f_stat == 0.0 and res.p_value == 1.0


def _fake_model(rss, edf, n=100):
    """A GamModel with only what ``anova_compare`` reads."""
    return GamModel(
        intercept=0.0, specs=(), smooths=(),
        train_min=np.zeros(2), train_max=np.ones(2),
        fitted=np.zeros(n), rss_path=(rss,), edf=edf, n_cycles=1,
    )


def test_anova_ordering_error_when_b_improves_with_fewer_df():
    with pytest.raises(ValidationError, match="degrees of freedom"):
        anova_compare(_fake_model(10.0, (2.0, 2.0)), _fake_model(5.0, (1.0, 1.0)))
    with pytest.raises(ValidationError, match="same rows"):
        anova_compare(_fake_model(10.0, (1.0, 1.0)), _fake_model(5.0, (2.0, 2.0), n=50))


def test_anova_p_value_is_scipy_stats_f_tail():
    """The F tail from scipy.special gives scipy.stats.f.sf's bits."""
    from scipy.stats import f

    for edf_a, edf_b in (((1.0, 1.0), (2.0, 2.0)), ((1.0, 1.0), (4.5, 3.25)),
                         ((3.0, 2.0), (9.0, 9.0))):
        small = _fake_model(100.0, edf_a, n=400)
        for rss_b in np.linspace(10.0, 99.99, 200):
            res = anova_compare(small, _fake_model(float(rss_b), edf_b, n=400))
            assert res.p_value == float(f.sf(res.f_stat, res.df_num, res.df_den))


def test_package_import_leaves_out_scipy_stats():
    """Importing the CLI loads no scipy module at all, ``scipy.stats``
    included: a command imports the scipy it runs where it runs it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, evmcontrol.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spline_least_squares_do_not_depend_on_blas_threads():
    """The smoothers' ``pinv`` and the joint ``lstsq`` limit give the same
    bits at 1 and 2 BLAS threads."""
    one, two = (run_check("gam_digest", threads=n) for n in (1, 2))
    assert one.strip() and one == two


def test_anova_null_calibration():
    rejections = 0
    n_seeds = 100
    for seed in range(n_seeds):
        rng = np.random.default_rng(7000 + seed)
        X = rng.uniform(0, 1, (200, 2))
        y = rng.standard_normal(200)
        small = backfit_gam(X, y, [spline_spec(0), spline_spec(0)])
        large = backfit_gam(X, y, [spline_spec(4), spline_spec(4)])
        if anova_compare(small, large).p_value < 0.05:
            rejections += 1
    assert 0.02 <= rejections / n_seeds <= 0.10


def test_gam_beats_constant_predictor_under_signal():
    from evmcontrol.model_selection import Family, cross_validate, kfold_split

    rng = np.random.default_rng(16)
    n = 1200
    X = rng.uniform(-2, 2, (n, 2))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(n)
    plan = kfold_split(n, 5, seed=3)
    gam_fam = Family(
        name="gam",
        kind="regressor",
        fit=lambda Xt, yt, p: (
            lambda m: (lambda Q: gam_predict(m, Q)[0])
        )(backfit_gam(Xt, yt, [spline_spec(4), spline_spec(4)])),
    )
    mean_fam = Family(
        name="mean",
        kind="regressor",
        fit=lambda Xt, yt, p: (lambda mu: (lambda Q: np.full(len(Q), mu)))(yt.mean()),
    )
    gam_mse = cross_validate(X, y, gam_fam, {}, plan).mean_score
    mean_mse = cross_validate(X, y, mean_fam, {}, plan).mean_score
    assert gam_mse <= mean_mse


# Reference loess operator: the weighted moments recomputed from the weights
# on every call, as first written.  The package's operator must match it bit
# for bit.  The reference raises IndexError where a tie group wider than the
# window leaves a row outside its own window; there the package's edf must
# be the trace of the explicit hat matrix instead.


def _ref_apply(op, y_sorted):
    yw = y_sorted[op.idx]
    w = op.weights
    sw = w.sum(axis=1)
    swx = (w * op.dx).sum(axis=1)
    swxx = (w * op.dx * op.dx).sum(axis=1)
    swy = (w * yw).sum(axis=1)
    swxy = (w * op.dx * yw).sum(axis=1)
    det = sw * swxx - swx * swx
    scale = np.maximum(sw * swxx, swx * swx)
    ok = det > 1e-12 * np.maximum(scale, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        local_line = (swxx * swy - swx * swxy) / det
        w_mean = np.where(sw > 0, swy / sw, yw.mean(axis=1))
    return np.where(ok, local_line, w_mean)


def _ref_hat_diag(op):
    w = op.weights
    sw = w.sum(axis=1)
    swx = (w * op.dx).sum(axis=1)
    swxx = (w * op.dx * op.dx).sum(axis=1)
    det = sw * swxx - swx * swx
    scale = np.maximum(sw * swxx, swx * swx)
    ok = det > 1e-12 * np.maximum(scale, 1e-300)
    rows = np.arange(len(op.idx))
    w_self = w[rows, op.self_pos]
    dx_self = op.dx[rows, op.self_pos]
    with np.errstate(divide="ignore", invalid="ignore"):
        lever = w_self * (swxx - dx_self * swx) / det
        fallback = np.where(sw > 0, w_self / sw, 1.0 / w.shape[1])
    return np.where(ok, lever, fallback)


def _bits(x):
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


def _fit_or_error(X, y, specs):
    # both versions must also fail alike, except for the reference's IndexError
    try:
        return backfit_gam(X, y, specs)
    except (IndexError, NumericsError, ValidationError) as exc:
        return repr(exc)


@st.composite
def backfit_problems(draw):
    """Features on few distinct values (zero-width windows) and loess spans
    on both sides of 1, next to a spline smoother."""
    n = draw(st.integers(10, 80))
    cols, specs = [], []
    for _ in range(2):
        levels = draw(st.integers(1, n))
        codes = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        cols.append(np.asarray(codes, dtype=float) * draw(st.sampled_from([1.0, 0.3, 1e3])))
        if draw(st.integers(0, 3)):
            specs.append(loess_spec(draw(st.sampled_from([0.05, 0.2, 0.5, 1.0, 1.5, 4.0]))))
        else:
            specs.append(spline_spec(draw(st.integers(0, 2))))
    y = np.asarray(draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    return np.column_stack(cols), y, specs


@settings(max_examples=150, deadline=None)
@given(backfit_problems())
def test_backfit_matches_reference_loess_bitwise(problem):
    X, y, specs = problem
    got = _fit_or_error(X, y, specs)
    with mock.patch.object(_LoessOperator, "apply", _ref_apply), \
            mock.patch.object(_LoessOperator, "hat_diag", _ref_hat_diag):
        want = _fit_or_error(X, y, specs)
    if isinstance(want, str) and want.startswith("IndexError"):
        assert not (isinstance(got, str) and got.startswith("IndexError"))
        for j, spec in enumerate(specs):
            if spec.kind == "loess":
                smoother = _LoessSmoother(X[:, j], spec.span)
                assert smoother.edf == pytest.approx(np.trace(_explicit_hat(smoother)),
                                                     rel=1e-12, abs=1e-12)
                if isinstance(got, GamModel):
                    assert got.edf[j] == smoother.edf
        return
    if isinstance(want, str):
        assert got == want
        return
    assert _bits(got.fitted) == _bits(want.fitted)
    assert _bits(got.rss_path) == _bits(want.rss_path)
    assert _bits(got.edf) == _bits(want.edf)
    assert got.n_cycles == want.n_cycles
    assert pickle.dumps(got) == pickle.dumps(want)
