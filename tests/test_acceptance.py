"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.spatial import cKDTree
from scipy.stats import kstest, norm

from evmcontrol import classify
from evmcontrol.charts import cmd_chart
from evmcontrol.density import anomaly_probability, fit_anomaly_model, percentile_rectangle
from evmcontrol.forest import forest_fit, forest_predict
from evmcontrol.gam import anova_compare, backfit_gam, loess_spec, natural_spline_basis, spline_spec
from evmcontrol.geometry import convex_hull, points_in_hull
from evmcontrol.model_selection import Family, cross_validate, kfold_split, nested_cv
from evmcontrol.pipeline import (
    RunConfig,
    _select_classifier,
    classifier_predict_proba,
    cmd_analyze,
    cmd_simulate,
)
from evmcontrol.project import baseline_pv, case_study_project
from evmcontrol.rng import generator
from evmcontrol.simulate import run_ensemble
from evmcontrol.svm import svm_fit, svm_predict
from scalar_reference import extract_triad, simulate_run

TABLE_PV = [2598, 5196, 7955, 10714, 11757, 12759, 13761,
            15920, 18079, 20238, 22363, 23488, 24613]
BASELINE_T50 = 5 + 549.5 / 1002


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {state} - {desc}{suffix}")
    return ok


def test_criterion_01_baseline_exactness():
    start = time.perf_counter()
    spec = case_study_project()
    pv = baseline_pv(spec)
    values = [pv.value(t) for t in range(1, 14)]
    elapsed = time.perf_counter() - start
    ok = (
        values == TABLE_PV
        and spec.bac == 24613
        and spec.pd == 13
        and elapsed < 1.0
    )
    assert _verdict(1, "baseline PV reproduces all 13 cumulative values exactly",
                    ok, f"BAC={spec.bac} PD={spec.pd} runtime={elapsed:.3f}s")


def test_criterion_02_ensemble_calibration():
    spec = case_study_project()
    start = time.perf_counter()
    ds = run_ensemble(spec, 100_000, seed=42, ev_levels=[0.5])
    elapsed = time.perf_counter() - start
    se = ds.final_c.std(ddof=1) / np.sqrt(ds.n_runs)
    mean_ok = abs(ds.final_c.mean() - 24613) <= 3 * se
    over = ds.over_budget.mean()
    late = ds.late.mean()
    ok = (
        mean_ok
        and 0.495 <= over <= 0.505
        and 0.7475 <= late <= 0.7675
        and elapsed <= 60.0
    )
    assert _verdict(
        2, "100k-run ensemble matches closed-form cost/schedule oracles", ok,
        f"mean={ds.final_c.mean():.1f} (3SE={3*se:.1f}) over={over:.4f} "
        f"late={late:.4f} (oracle 0.7575) runtime={elapsed:.1f}s",
    )


def test_criterion_03_deterministic_triad(zero_variance_case_study):
    trace = simulate_run(zero_variance_case_study, run_seed=1)
    triad = extract_triad(trace, 0.5)
    ok = (
        abs(triad.t - BASELINE_T50) <= 1e-9 * BASELINE_T50
        and abs(triad.c - 12306.5) <= 1e-9 * 12306.5
    )
    assert _verdict(3, "zero-variance triad at EV=50% is the exact PV crossing",
                    ok, f"t={triad.t!r} c={triad.c!r}")


def test_criterion_04_anomaly_calibration():
    spec = case_study_project()
    ens = run_ensemble(spec, 30_000, seed=101, ev_levels=[0.5])
    model = fit_anomaly_model(ens.t, ens.c, seed=55, bandwidth="scv",
                              fit_cap=8000, reference_cap=12000, scv_subsample=2000)
    held_out = run_ensemble(spec, 10_000, seed=707, ev_levels=[0.5])
    scores = anomaly_probability(model, np.column_stack([held_out.t, held_out.c]))
    ks = kstest(scores, "uniform").statistic
    frac = (scores > 0.95).mean()
    ok = 0.04 <= frac <= 0.06 and ks < 0.02
    assert _verdict(4, "held-out anomaly scores are uniform with 5% beyond the 0.95 contour",
                    ok, f"KS={ks:.4f} frac>0.95={frac:.4f}")


def test_criterion_05_correlation_sensitivity():
    rng = np.random.default_rng(31)
    cov = [[1.0, 0.9], [0.9, 1.0]]
    pts = rng.multivariate_normal([0.0, 0.0], cov, size=8000)
    t, c = pts[:, 0], pts[:, 1]
    rect = percentile_rectangle(t, c, 0.95)
    corner = np.array([rect.t_hi, rect.c_lo])  # 97.5th of t with 2.5th of c
    model = fit_anomaly_model(t, c, seed=17, bandwidth="scv", scv_subsample=1500)
    score = anomaly_probability(model, corner)
    ok = rect.contains(*corner) and score > 0.95
    assert _verdict(5, "marginal rectangle misses the correlated-corner point the KDE flags",
                    ok, f"inside_rectangle={rect.contains(*corner)} p_anomaly={score:.4f}")


# Criterion 06 reference: the conditional late frequency of an independent
# ensemble, estimated by the k nearest neighbours of each grid node in
# standardized (t, c).  Every threshold of the criterion derives from it.
REF_RUNS = 400_000
REF_SEED = 2606
REF_K = 1000  # Monte Carlo error sqrt(p(1 - p) / k) is at most 0.016 per node
REF_Z = 3.0  # "clearly" on one side of 0.5: more than 3 Monte Carlo errors away


@dataclass(frozen=True)
class LateReference:
    """What the simulation says about p(late) on criterion 06's grid.

    ``t_bound`` is the largest t of a trusted node that the reference does not
    clearly put above 0.5, plus one grid step (a 0.5 crossing lies at most one
    cell away from such a node).  ``tail_share`` is the share of held-out runs
    at ``t <= t_bound`` and ``undecided_share`` the share the reference does
    not clearly put on either side of 0.5.
    """

    t_grid: np.ndarray
    c_grid: np.ndarray
    train_X: np.ndarray
    train_y: np.ndarray
    held_out: np.ndarray
    p_nodes: np.ndarray
    p_held: np.ndarray
    clear_below_nodes: int
    t_bound: float
    tail_share: float
    undecided_share: float

    def probability(self, Q) -> np.ndarray:
        """The reference field, bilinear between nodes, clamped to the grid."""
        lo = [self.t_grid[0], self.c_grid[0]]
        hi = [self.t_grid[-1], self.c_grid[-1]]
        interp = RegularGridInterpolator((self.t_grid, self.c_grid), self.p_nodes)
        return interp(np.clip(Q, lo, hi))


@pytest.fixture(scope="module")
def late_reference() -> LateReference:
    spec = case_study_project()
    ds = run_ensemble(spec, 20_000, seed=1106, ev_levels=[0.5])
    pts = np.column_stack([ds.t, ds.c])
    config = RunConfig(project="case_study.json")
    sub = np.sort(generator(9, 0x7A1).permutation(len(ds.t))[: config.train_subsample])

    pad_t = np.ptp(ds.t) * 0.05
    pad_c = np.ptp(ds.c) * 0.05
    t_grid = np.linspace(ds.t.min() - pad_t, ds.t.max() + pad_t, 50)
    c_grid = np.linspace(ds.c.min() - pad_c, ds.c.max() + pad_c, 50)
    tt, cc = np.meshgrid(t_grid, c_grid, indexing="ij")
    nodes = np.column_stack([tt.ravel(), cc.ravel()])
    trusted = points_in_hull(nodes, convex_hull(pts[sub])).reshape(tt.shape)

    ref = run_ensemble(spec, REF_RUNS, seed=REF_SEED, ev_levels=[0.5])
    ref_pts = np.column_stack([ref.t, ref.c])
    scale = ref_pts.std(axis=0)
    _, idx = cKDTree(ref_pts / scale).query(nodes / scale, k=REF_K)
    p_nodes = ref.late[idx].mean(axis=1).reshape(tt.shape)
    se_nodes = np.sqrt(p_nodes * (1 - p_nodes) / REF_K)
    not_clearly_above = trusted & (p_nodes - REF_Z * se_nodes <= 0.5)
    t_bound = (tt[not_clearly_above].max() + (t_grid[1] - t_grid[0])
               if not_clearly_above.any() else -np.inf)

    held_out = np.delete(pts, sub, axis=0)
    p_held = RegularGridInterpolator((t_grid, c_grid), p_nodes)(held_out)
    se_held = RegularGridInterpolator((t_grid, c_grid), se_nodes)(held_out)
    return LateReference(
        t_grid=t_grid, c_grid=c_grid, train_X=pts[sub], train_y=ds.late[sub],
        held_out=held_out, p_nodes=p_nodes, p_held=p_held,
        clear_below_nodes=int((trusted & (p_nodes + REF_Z * se_nodes < 0.5)).sum()),
        t_bound=float(t_bound),
        tail_share=float((held_out[:, 0] <= t_bound).mean()),
        undecided_share=float((np.abs(p_held - 0.5) <= REF_Z * se_held).mean()),
    )


def _time_boundary_checks(predict, ref: LateReference) -> tuple[bool, str]:
    """Criterion 06's checks of a p(late) predictor against the reference:

    1. it has a 0.5 boundary inside the hull if the reference clearly has one
       (a trusted node more than ``REF_Z`` Monte Carlo errors below 0.5);
    2. every in-hull boundary point lies in the fast-start tail ``t <= t_bound``;
    3. at most ``tail_share`` of the held-out runs get p <= 0.5, and it puts
       a held-out run on the other side of 0.5 from the reference no more
       often than the reference is undecided.
    """
    boundary = classify.decision_boundary(predict, ref.t_grid, ref.c_grid,
                                          convex_hull(ref.train_X))
    boundary_t = np.concatenate([np.empty(0)] + [
        poly[points_in_hull(poly, boundary.hull), 0]
        for poly in map(np.asarray, boundary.polylines)
    ])
    below = np.asarray(predict(ref.held_out)) <= 0.5
    share = below.mean()
    agreement = (below == (ref.p_held <= 0.5)).mean()

    exists_ok = ref.clear_below_nodes == 0 or boundary_t.size > 0
    extent_ok = boundary_t.size == 0 or boundary_t.max() <= ref.t_bound
    side_ok = share <= ref.tail_share and 1 - agreement <= ref.undecided_share
    extent = (f"[{boundary_t.min():.2f}, {boundary_t.max():.2f}]"
              if boundary_t.size else "none")
    detail = (
        f"share p<=0.5: {share:.3f} vs reference "
        f"{(ref.p_held <= 0.5).mean():.3f} (bound {ref.tail_share:.3f}); "
        f"in-hull boundary t {extent} ({boundary_t.size} pts, bound {ref.t_bound:.2f}, "
        f"reference clearly below on {ref.clear_below_nodes} nodes); "
        f"side agreement {agreement:.3f} (bound {1 - ref.undecided_share:.3f})"
    )
    return exists_ok and extent_ok and side_ok, detail


def test_criterion_06_no_time_decision_boundary(late_reference):
    """The delay classifier chosen by nested CV puts its 0.5 boundary where
    the simulation does: inside the hull only in the fast-start tail, with
    nearly every held-out run on the delay side (see ``_time_boundary_checks``).

    On this project the true p(late) dips below 0.5 for the fastest starts,
    so a classifier with no 0.5 boundary in the hull is not the goal.
    """
    ref = late_reference
    config = RunConfig(project="case_study.json")
    art = _select_classifier(ref.train_X, ref.train_y, config, seed=906)
    ok, detail = _time_boundary_checks(lambda Q: classifier_predict_proba(art, Q), ref)
    assert _verdict(
        6, "delay classifier's 0.5 boundary lies where the simulation puts it", ok,
        f"family={art.family} {detail}",
    )


def test_criterion_06_checks_can_fail(late_reference):
    """The criterion-06 checks accept the reference itself and reject a
    constant predictor at the class prior (no boundary at all) and the
    reference boundary moved four grid steps toward slower starts."""
    ref = late_reference
    shift = 4 * (ref.t_grid[1] - ref.t_grid[0])
    accepted, accepted_detail = _time_boundary_checks(ref.probability, ref)
    constant, constant_detail = _time_boundary_checks(
        lambda Q: np.full(len(Q), ref.train_y.mean()), ref)
    shifted, shifted_detail = _time_boundary_checks(
        lambda Q: ref.probability(np.asarray(Q) - [shift, 0.0]), ref)
    assert accepted, accepted_detail
    assert not constant, constant_detail
    assert not shifted, shifted_detail


def test_criterion_07_classifier_quality():
    # QDA within 0.02 of the closed-form Bayes error
    rng = np.random.default_rng(12)
    n = 10_000
    X_tr = np.vstack([rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + [2, 0]])
    y_tr = np.repeat([False, True], n)
    X_te = np.vstack([rng.standard_normal((n, 2)), rng.standard_normal((n, 2)) + [2, 0]])
    qda = classify.qda_fit(X_tr, y_tr)
    qda_err = float(((classify.qda_predict(qda, X_te)[:, 1] > 0.5) != y_tr).mean())
    bayes = float(norm.cdf(-1.0))
    qda_ok = abs(qda_err - bayes) <= 0.02

    # RBF-SVM separates the annulus
    r = np.concatenate([rng.uniform(0, 1, 150), rng.uniform(2, 3, 150)])
    th = rng.uniform(0, 2 * np.pi, 300)
    X_an = np.column_stack([r * np.cos(th), r * np.sin(th)])
    y_an = np.repeat([False, True], 150)
    svm = svm_fit(X_an, y_an, C=1.0, gamma=1.0)
    svm_acc = float(((svm_predict(svm, X_an) > 0.5) == y_an).mean())
    svm_ok = svm_acc >= 0.99

    # forest OOB error tracks 5-fold CV
    rng2 = np.random.default_rng(2718)
    m = 1500
    X_f = np.vstack([rng2.standard_normal((m // 2, 2)),
                     rng2.standard_normal((m // 2, 2)) + [1.4, 0.4]])
    y_f = np.repeat([False, True], m // 2)
    forest = forest_fit(X_f, y_f, ntree=250, mtry=1, min_node=5, seed=6)
    fam = Family(
        "forest", "classifier",
        lambda Xt, yt, p: (lambda mdl: (lambda Q: forest_predict(mdl, Q)[:, 1] > 0.5))(
            forest_fit(Xt, yt, ntree=250, mtry=1, min_node=5, seed=6)),
    )
    cv = cross_validate(X_f, y_f, fam, {}, kfold_split(m, 5, seed=77, stratify=y_f))
    gap = abs(forest.oob_error - cv.mean_score)
    forest_ok = gap <= 0.03

    ok = qda_ok and svm_ok and forest_ok
    assert _verdict(
        7, "QDA near Bayes, RBF-SVM solves the annulus, forest OOB tracks CV", ok,
        f"qda_err={qda_err:.4f} (bayes={bayes:.4f}) svm_acc={svm_acc:.3f} "
        f"oob={forest.oob_error:.4f} cv={cv.mean_score:.4f} gap={gap:.4f}",
    )


def test_criterion_08_nested_cv_honesty():
    svm_fam = Family(
        "svm", "classifier",
        lambda Xt, yt, p: (lambda mdl: (lambda Q: svm_predict(mdl, Q) > 0.5))(
            svm_fit(Xt, yt, C=p["C"], gamma=p["gamma"])),
    )
    grid = [{"C": 1.0, "gamma": 0.5}, {"C": 1.0, "gamma": 2.0},
            {"C": 10.0, "gamma": 0.5}, {"C": 10.0, "gamma": 2.0}]
    outer_all, inner_all, baseline_all = [], [], []
    for seed in range(20):
        r = np.random.default_rng(4000 + seed)
        X = r.standard_normal((200, 2))
        y = np.repeat([False, True], 100)[r.permutation(200)]  # shuffled labels
        report = nested_cv(X, y, svm_fam, grid, k_outer=5, k_inner=5, seed=seed)
        outer_all.append(report.outer_mean)
        inner_all.append(report.inner_selected_scores.mean())
        baseline_all.append(1 - max(y.mean(), 1 - y.mean()))
    outer = float(np.mean(outer_all))
    inner = float(np.mean(inner_all))
    base = float(np.mean(baseline_all))
    ok = abs(outer - base) <= 0.03 and inner < outer
    assert _verdict(
        8, "nested CV is honest on shuffled labels; inner selection is optimistic", ok,
        f"outer={outer:.4f} majority={base:.4f} inner_selected={inner:.4f}",
    )


def test_criterion_09_gam_properties():
    rng = np.random.default_rng(90)
    # linear truth recovered to 1e-6 by both smoother families
    X = rng.uniform(-2, 2, (500, 2))
    y_lin = 2 + X[:, 0] + X[:, 1]
    lin_ok = True
    for specs in ([spline_spec(4), spline_spec(4)], [loess_spec(0.5), loess_spec(0.5)]):
        model = backfit_gam(X, y_lin, specs)
        lin_ok &= bool(np.abs(model.fitted - y_lin).max() <= 1e-6)

    # natural spline tails are linear beyond the boundary knots
    x = rng.uniform(0, 10, 300)
    basis, B = natural_spline_basis(x, 5)
    D = np.column_stack([np.ones_like(x), B])
    coef, *_ = np.linalg.lstsq(D, np.sin(x), rcond=None)
    q = np.array([10.5, 10.8, 11.1])
    vals = np.column_stack([np.ones_like(q), basis.design(q)]) @ coef
    slope = (vals[2] - vals[0]) / 0.6
    tails_ok = abs(vals[0] - 2 * vals[1] + vals[2]) <= 1e-6 * max(abs(slope), 1.0)

    # backfitting RSS never increases across cycles
    Xc = rng.standard_normal((1500, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    yc = 0.2 * Xc[:, 0] ** 3 + np.sin(2 * Xc[:, 1]) + rng.standard_normal(1500)
    mono_model = backfit_gam(Xc, yc, [spline_spec(5), spline_spec(5)])
    mono_ok = bool(np.all(np.diff(mono_model.rss_path) <= 1e-9 * mono_model.rss_path[0]))

    # cubic truth: spline GAM beats the linear GAM decisively
    Xq = rng.uniform(-2, 2, (2000, 2))
    yq = Xq[:, 0] ** 3 + 0.5 * rng.standard_normal(2000)
    linear = backfit_gam(Xq, yq, [spline_spec(0), spline_spec(0)])
    spline = backfit_gam(Xq, yq, [spline_spec(4), spline_spec(4)])
    cubic_p = anova_compare(linear, spline).p_value
    cubic_ok = cubic_p < 1e-3

    # null calibration of the approximate F test
    rejections = 0
    for seed in range(100):
        r = np.random.default_rng(7000 + seed)
        Xn = r.uniform(0, 1, (200, 2))
        yn = r.standard_normal(200)
        small = backfit_gam(Xn, yn, [spline_spec(0), spline_spec(0)])
        large = backfit_gam(Xn, yn, [spline_spec(4), spline_spec(4)])
        if anova_compare(small, large).p_value < 0.05:
            rejections += 1
    null_ok = 0.02 <= rejections / 100 <= 0.10

    # soft check (reported, not asserted): spline vs loess on the case study
    spec = case_study_project()
    ds = run_ensemble(spec, 6000, seed=1109, ev_levels=[0.5])
    sub = np.sort(generator(3, 0xA).permutation(6000)[:1500])
    Xcs = np.column_stack([ds.t[sub], ds.c[sub]])
    ycs = ds.final_c[sub]
    ns_model = backfit_gam(Xcs, ycs, [spline_spec(4), spline_spec(4)])
    lo_model = backfit_gam(Xcs, ycs, [loess_spec(0.5), loess_spec(0.5)])
    small, large = sorted([ns_model, lo_model], key=lambda mdl: mdl.df)
    soft = anova_compare(small, large)
    ns_rss, lo_rss = ns_model.rss, lo_model.rss
    print(f"\n    soft check (not asserted): spline RSS={ns_rss:.4g} "
          f"loess RSS={lo_rss:.4g} approx-F p={soft.p_value:.4g}")

    ok = lin_ok and tails_ok and mono_ok and cubic_ok and null_ok
    assert _verdict(
        9, "additive-model properties hold", ok,
        f"linear={lin_ok} tails={tails_ok} rss_monotone={mono_ok} "
        f"cubic_p={cubic_p:.2e} null_rejections={rejections}/100",
    )


def test_criterion_10_figure_regeneration(tmp_path):
    config = RunConfig(
        project="case_study.json",
        runs=4000,
        seed=77,
        ev_levels=(0.5,),
        out_dir=str(tmp_path),
        train_subsample=500,
        kde_fit_cap=1500,
        kde_reference_cap=1500,
        scv_subsample=800,
        density_grid_resolution=80,
        grid_resolution=35,
        knot_grid=({"a": 2, "b": 2}, {"a": 4, "b": 4}),
        span_grid=({"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 0.5}),
        cv_forest_ntree=30,
        final_forest_ntree=100,
    )
    cmd_simulate(config)
    result = cmd_analyze(config, at=5.6, ac=12400.0, ev=12306.5,
                         data_dir=str(tmp_path))
    svg_path = cmd_chart(Path(tmp_path) / "report.json", tmp_path / "control.svg")
    svg = svg_path.read_text()

    annotations_ok = (
        svg.count("p(Anomaly)") == 2
        and svg.count("p(OC)") == 1
        and svg.count("p(D)") == 1
        and svg.count("expected over-cost") == 1
        and svg.count("expected delay") == 1
        and svg.count("expected variability") >= 2
    )
    structure_ok = (
        svg.count('class="pv-curve"') == 2
        and 'class="marker-ev"' in svg
        and 'class="marker-ac"' in svg
        and "percentile-rectangle" in svg
        and 'class="contour' in svg
    )
    twin = json.loads((tmp_path / "control.json").read_text())
    original = json.loads((Path(tmp_path) / "report.json").read_text())
    twin_ok = twin == original

    r = result.report
    consistent_ok = (
        0 <= r.p_anomaly <= 1
        and 0 <= r.p_overcost <= 1
        and 0 <= r.p_delay <= 1
        and r.expected_overcost == r.expected_final_cost - r.bac
        and r.expected_delay == r.expected_final_duration - r.pd
        and original["config"] == config.to_dict()
    )
    ok = annotations_ok and structure_ok and twin_ok and consistent_ok
    assert _verdict(
        10, "control chart carries every annotation; JSON twin matches field-for-field",
        ok,
        f"annotations={annotations_ok} structure={structure_ok} twin={twin_ok} "
        f"consistent={consistent_ok}",
    )
