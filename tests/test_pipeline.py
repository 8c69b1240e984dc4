import json
import os
import pickle
import pickletools
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from evmcontrol import csvio, density, pipeline
from evmcontrol.charts import cmd_chart
from evmcontrol.classify import decision_boundary, qda_predict
from evmcontrol.cli import main
from evmcontrol.errors import NumericsError
from evmcontrol.forest import forest_predict
from evmcontrol.gam import gam_predict
from evmcontrol.geometry import convex_hull, marching_squares, points_in_hull
from evmcontrol.pipeline import (
    CONTOUR_LEVELS,
    RunConfig,
    cmd_analyze,
    cmd_simulate,
    target_predict,
)
from evmcontrol.project import load_project
from evmcontrol.simulate import run_ensemble
from evmcontrol.svm import svm_predict
from scalar_reference import evaluate_grid

BASELINE_T50 = 5 + 549.5 / 1002
REPO = Path(__file__).resolve().parent.parent


def small_config(out_dir, **overrides):
    base = dict(
        project="case_study.json",
        runs=3000,
        seed=5,
        ev_levels=(0.5,),
        out_dir=str(out_dir),
        train_subsample=400,
        kde_fit_cap=1200,
        kde_reference_cap=1200,
        scv_subsample=600,
        density_grid_resolution=60,
        grid_resolution=30,
        knot_grid=({"a": 2, "b": 2}, {"a": 4, "b": 4}),
        span_grid=({"a": 1.0, "b": 1.0}, {"a": 0.5, "b": 0.5}),
        cv_forest_ntree=25,
        final_forest_ntree=80,
    )
    base.update(overrides)
    return RunConfig(**base)


def tiny_config(out_dir):
    """``small_config`` cut down to one grid point per GAM family."""
    return small_config(out_dir, runs=800, train_subsample=200, kde_fit_cap=300,
                        kde_reference_cap=300, scv_subsample=200,
                        density_grid_resolution=40, grid_resolution=15,
                        cv_forest_ntree=15, final_forest_ntree=40,
                        knot_grid=({"a": 2, "b": 2},), span_grid=({"a": 1.0, "b": 1.0},))


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = small_config(out)
    cmd_simulate(cfg)
    result = cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5, data_dir=str(out))
    return cfg, result


def test_simulate_outputs(tmp_path):
    cfg = small_config(tmp_path, runs=200)
    manifest = cmd_simulate(cfg)
    assert manifest["runs"] == 200
    assert manifest["bac"] == 24613
    assert manifest["pd"] == 13
    csv_path = tmp_path / manifest["files"]["0.5"]
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 201
    # identical config twice: byte-identical output
    cfg2 = small_config(tmp_path / "again", runs=200)
    manifest2 = cmd_simulate(cfg2)
    assert (tmp_path / "again" / manifest2["files"]["0.5"]).read_bytes() == csv_path.read_bytes()


def test_simulate_single_run(tmp_path):
    cfg = small_config(tmp_path, runs=1)
    manifest = cmd_simulate(cfg)
    assert len((tmp_path / manifest["files"]["0.5"]).read_text().splitlines()) == 2


def test_simulate_stopped_midway_leaves_no_manifest(tmp_path, monkeypatch):
    """A rerun that fails while writing its third pivot file must not leave
    the previous run's manifest pointing at files it replaced, nor replace
    any of them."""
    levels = (0.1, 0.3, 0.5, 0.7)
    cmd_simulate(small_config(tmp_path, runs=50, ev_levels=levels))
    assert (tmp_path / "manifest.json").exists()
    before = {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}
    opened = []

    class FailingFile:
        """A file whose third one fails on its second block of rows."""

        def __init__(self, *args, **kwargs):
            self.fh, self.writes = open(*args, **kwargs), 0
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self is opened[2] and self.writes == 3:  # header, first block, second
                self.fh.write(text[:len(text) // 2])
                raise OSError("disk full")
            self.fh.write(text)

    monkeypatch.setattr(csvio, "BLOCK_ROWS", 16)
    monkeypatch.setattr(csvio, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        cmd_simulate(small_config(tmp_path, runs=60, seed=6, ev_levels=levels))
    assert len(opened) == len(levels) and opened[2].writes == 3
    assert not (tmp_path / "manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        pipeline._level_filename(level) for level in levels]
    # the file that failed was not replaced by its partial write
    assert len((tmp_path / pipeline._level_filename(0.5)).read_text().splitlines()) == 51
    # nor any other: nothing is renamed until every file is written
    assert {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")} == before


def test_simulate_files_are_the_pivot_files(tmp_path, case_study):
    """The one-pass write gives each pivot the bytes its own file has."""
    cfg = small_config(tmp_path / "data", runs=300, ev_levels=pipeline.DEFAULT_EV_LEVELS)
    manifest = cmd_simulate(cfg, case_study)
    dataset = run_ensemble(case_study, cfg.runs, cfg.seed, cfg.ev_levels)
    for index, level in enumerate(cfg.ev_levels):
        alone = tmp_path / "alone.csv"
        dataset.pivot(index).write_csv(alone)
        name = manifest["files"][f"{level:.9g}"]
        assert (tmp_path / "data" / name).read_bytes() == alone.read_bytes()


def test_simulate_files_get_the_umask_permissions(tmp_path):
    manifest = cmd_simulate(small_config(tmp_path, runs=20))
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    mode = plain.stat().st_mode
    assert (tmp_path / "manifest.json").stat().st_mode == mode
    assert (tmp_path / manifest["files"]["0.5"]).stat().st_mode == mode


def test_pivot_csv_same_from_simulate_and_fresh_analysis(tmp_path):
    """The 0.5 pivot's CSV is the same file whether ``simulate`` wrote it
    among nine pivots or ``analyze`` simulated that pivot alone."""
    cfg = small_config(tmp_path / "data", runs=700, ev_levels=pipeline.DEFAULT_EV_LEVELS)
    manifest = cmd_simulate(cfg)
    fresh = small_config(tmp_path / "fresh", runs=700)
    spec = load_project(fresh.project)
    pipeline._load_or_simulate_level(fresh, spec, 0.5, None)
    [cached] = (tmp_path / "fresh" / "cache").glob("triads_*.csv")
    simulated = tmp_path / "data" / manifest["files"]["0.5"]
    assert cached.read_bytes() == simulated.read_bytes()


def test_report_fields_and_identities(analysis):
    cfg, result = analysis
    r = result.report
    assert 0 <= r.p_anomaly <= 1
    assert 0 <= r.p_overcost <= 1
    assert 0 <= r.p_delay <= 1
    assert r.expected_overcost == r.expected_final_cost - r.bac  # exact identity
    assert r.expected_delay == r.expected_final_duration - r.pd
    assert r.x == pytest.approx(0.5, abs=1e-12)
    assert r.sv == pytest.approx(0.0, abs=1e-6)  # status sits on the PV curve
    assert r.status_in_trusted_region
    assert r.band_t[0] < BASELINE_T50 < r.band_t[1]


def test_baseline_status_is_typical(analysis):
    _, result = analysis
    assert result.report.p_anomaly <= 0.10  # densest region of the cloud


def test_delay_probability_above_half_in_cloud(analysis):
    _, result = analysis
    assert result.report.p_delay > 0.5


def test_far_status_is_anomalous(analysis):
    cfg, _ = analysis
    far = cmd_analyze(cfg, at=BASELINE_T50, ac=2 * 24613.0, ev=12306.5, write=False)
    assert far.report.p_anomaly >= 0.99
    assert far.report.cost_extrapolated
    assert not far.report.status_in_trusted_region


def test_report_document_written(analysis):
    cfg, result = analysis
    path = Path(cfg.out_dir) / "report.json"
    doc = json.loads(path.read_text())
    assert doc["config"] == cfg.to_dict()
    assert doc["chart"]["contours"]["0.95"] is not None
    assert doc["report"]["p_anomaly"] == result.report.p_anomaly


def test_model_cache_reused(analysis):
    cfg, result = analysis
    again = cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5, write=False)
    assert again.report.to_dict() == result.report.to_dict()


def test_report_reproducible_byte_for_byte(tmp_path):
    """Independent runs of the same config (fresh caches) write identical
    report JSON."""
    docs = []
    for sub in ("one", "two"):
        cfg = tiny_config(tmp_path / sub)
        cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5)
        raw = (Path(cfg.out_dir) / "report.json").read_bytes()
        # out_dir differs by construction; normalize it before comparing
        raw = raw.replace(str(cfg.out_dir).encode(), b"OUT")
        docs.append(raw)
    assert docs[0] == docs[1]


def test_models_cache_key_has_schema(analysis, monkeypatch):
    cfg, _ = analysis
    spec = load_project(cfg.project)
    key = pipeline._models_cache_key(cfg, spec, 0.5)
    monkeypatch.setattr(pipeline, "CACHE_SCHEMA", pipeline.CACHE_SCHEMA + 1)
    assert pipeline._models_cache_key(cfg, spec, 0.5) != key


def test_corrupt_model_cache_is_repaired(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    report = Path(cfg.out_dir) / "report.json"
    cmd_simulate(cfg)

    def analyze():
        cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5, data_dir=cfg.out_dir)
        return report.read_bytes()

    cold = analyze()
    (model_path,) = (Path(cfg.out_dir) / "cache").glob("models_*.pkl")
    entry = model_path.read_bytes()
    fits = []
    fit = pipeline._fit_level_models

    def counting_fit(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(pipeline, "_fit_level_models", counting_fit)
    for broken in (entry[: len(entry) // 2], b"not a pickle"):  # truncated, foreign
        model_path.write_bytes(broken)
        with pytest.warns(UserWarning, match=f"{model_path.name} failed to load"):
            assert analyze() == cold  # refit ...
        assert model_path.read_bytes() == entry  # ... and rewritten
    assert len(fits) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analyze() == cold
    assert len(fits) == 2  # a cache hit


def test_model_cache_entries_hold_fitted_parameters_only(analysis):
    cfg, _ = analysis
    entries = list((Path(cfg.out_dir) / "cache").glob("models_*.pkl"))
    assert entries
    for entry in entries:
        names = set()
        for _, arg, _ in pickletools.genops(entry.read_bytes()):
            if isinstance(arg, str):
                names.update(arg.split(" "))  # GLOBAL's argument is "module name"
        assert {"AnalysisArtifacts", "GamModel"} <= names
        assert not names & {"_LoessOperator", "_LoessSmoother", "_SplineSmoother",
                            "TriadDataset"}


def test_cache_write_that_raises_leaves_nothing(tmp_path):
    def failing_writer(*paths):
        for path in paths:
            path.write_bytes(b"half an entry")
        raise OSError("disk full")

    for names in (["models_0.pkl"], ["triads_ev0.1.csv", "triads_ev0.2.csv"]):
        with pytest.raises(OSError, match="disk full"):
            pipeline._write_atomic([tmp_path / name for name in names], failing_writer)
        assert list(tmp_path.iterdir()) == []


def test_fresh_simulation_report_survives_model_cache_loss(tmp_path):
    """Without a data dir the triads are simulated and cached as CSV.  A
    refit after the model cache is lost reads that CSV, so the first
    analysis must use the CSV's values too."""
    cfg = tiny_config(tmp_path)
    report = Path(cfg.out_dir) / "report.json"
    cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5)
    fresh = report.read_bytes()
    (model_path,) = (Path(cfg.out_dir) / "cache").glob("models_*.pkl")
    model_path.unlink()
    cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5)
    assert report.read_bytes() == fresh


@pytest.fixture(scope="module")
def cold_tiny(tmp_path_factory):
    """A cold analysis from a simulated data dir, and the report it wrote."""
    cfg = tiny_config(tmp_path_factory.mktemp("cold-tiny"))
    cmd_simulate(cfg)
    cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5, data_dir=cfg.out_dir)
    return cfg, (Path(cfg.out_dir) / "report.json").read_bytes()


def _raise(*args, **kwargs):
    raise AssertionError("a cache hit computed a status-independent layer")


def test_cache_hit_computes_no_status_independent_layer(cold_tiny, monkeypatch):
    """A hit reads neither triads nor grids: a new status is scored from the
    cached entry alone."""
    cfg, _ = cold_tiny
    for owner, name in ((pipeline, "read_triads_csv"), (pipeline, "run_ensemble"),
                        (pipeline, "_load_or_simulate_level"), (pipeline, "_fit_level_models"),
                        (pipeline, "_anomaly_grid"), (pipeline, "marching_squares"),
                        (density.DensityModel, "binned_grid"),
                        (density, "percentile_rectangle")):
        monkeypatch.setattr(owner, name, _raise)
    result = cmd_analyze(cfg, at=BASELINE_T50 + 0.2, ac=12700.0, ev=12306.5,
                         data_dir=cfg.out_dir)
    doc = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    assert doc["report"]["p_anomaly"] == result.report.p_anomaly
    assert list(doc["chart"]["contours"]) == [f"{lvl:g}" for lvl in CONTOUR_LEVELS]
    assert list(doc["chart"]["rectangles"]) == ["0.95", "0.75"]


def test_cache_hit_needs_no_triad_files(cold_tiny):
    cfg, cold = cold_tiny
    triads = list(Path(cfg.out_dir).glob("triads_*.csv"))
    assert triads
    for path in triads:
        path.unlink()
    cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5, data_dir=cfg.out_dir)
    assert (Path(cfg.out_dir) / "report.json").read_bytes() == cold


def test_cache_hit_in_fresh_process_loads_no_scipy(cold_tiny):
    """A cache-hit ``analyze`` in a new process imports no scipy module and
    writes the cold report's bytes."""
    cfg, cold = cold_tiny
    code = (
        "import sys\n"
        "from evmcontrol.pipeline import RunConfig, cmd_analyze\n"
        "cfg = eval(sys.argv[1], {'RunConfig': RunConfig})\n"
        f"cmd_analyze(cfg, at={BASELINE_T50!r}, ac=12306.5, ev=12306.5, data_dir=cfg.out_dir)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, repr(cfg)], cwd=REPO, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (Path(cfg.out_dir) / "report.json").read_bytes() == cold


def test_stored_chart_layers_match_recomputation(analysis):
    """The entry's contours and rectangles are what the chart grid and the
    level rows give, bit for bit."""
    cfg, _ = analysis
    (entry,) = (Path(cfg.out_dir) / "cache").glob("models_*.pkl")
    with open(entry, "rb") as fh:
        artifacts = pickle.load(fh)
    ts, cs, scores = pipeline._anomaly_grid(artifacts.density_model,
                                            cfg.density_grid_resolution)
    assert list(artifacts.contours) == list(CONTOUR_LEVELS)
    for level in CONTOUR_LEVELS:
        stored, fresh = artifacts.contours[level], marching_squares(ts, cs, scores, level)
        assert stored and len(stored) == len(fresh)
        for a, b in zip(stored, fresh):
            np.testing.assert_array_equal(a, b)
    spec = load_project(cfg.project)
    rows = pipeline._load_or_simulate_level(cfg, spec, 0.5, cfg.out_dir)
    assert artifacts.rectangles == {
        lvl: density.percentile_rectangle(rows.t, rows.c, lvl) for lvl in (0.95, 0.75)}
    for art in artifacts.classifiers.values():
        assert isinstance(art.boundary, tuple)
        assert all(isinstance(poly, np.ndarray) for poly in art.boundary)


FAMILIES = ("qda", "forest", "svm", "gam_splines", "gam_loess")
DIRECT_PREDICT = {
    "qda": lambda model, Q: qda_predict(model, Q)[:, 1],
    "forest": lambda model, Q: forest_predict(model, Q)[:, 1],
    "svm": svm_predict,
    "gam_splines": lambda model, Q: gam_predict(model, Q)[0],
    "gam_loess": lambda model, Q: gam_predict(model, Q)[0],
}


def test_learner_table_order():
    assert tuple(pipeline.LEARNERS) == FAMILIES + ("constant",)
    # the tie-break order; "constant" is never cross-validated
    assert pipeline.CLASSIFIERS + pipeline.REGRESSORS == FAMILIES


@pytest.mark.parametrize("name", FAMILIES + ("constant",))
def test_learner_table_matches_direct_calls(name, tmp_path):
    """Every family's table entry predicts what its learner predicts, both
    for a report (P(positive) or expected value) and inside nested CV; the
    constant entry predicts the training mean everywhere."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((120, 2))
    y = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.3 * rng.standard_normal(120)
    Q = 1.5 * rng.standard_normal((40, 2))
    learner = pipeline.LEARNERS[name]
    if learner.kind == "classifier":
        y = y > np.median(y)
    params = learner.grid(small_config(tmp_path))[0]
    model = learner.fit(X, y, params, 15, 3)
    if learner.kind == "constant":
        np.testing.assert_array_equal(learner.predict(model, Q), np.full(len(Q), y.mean()))
        return
    direct = DIRECT_PREDICT[name](model, Q)
    cv_predict = pipeline._family(name, 15, 3).fit(X, y, params)(Q)
    if learner.kind == "classifier":
        art = pipeline.TargetModel(family=name, model=model, selection={})
        np.testing.assert_array_equal(target_predict(art, Q), direct)
        np.testing.assert_array_equal(cv_predict, direct > 0.5)
    else:
        smoother = "spline" if name == "gam_splines" else "loess"
        assert [spec.kind for spec in model.specs] == [smoother, smoother]
        np.testing.assert_array_equal(learner.predict(model, Q), direct)
        np.testing.assert_array_equal(cv_predict, direct)


@pytest.mark.parametrize("label", [True, False])
def test_single_class_target_is_constant(label, tmp_path):
    """A classifier target with one class skips nested CV: its probability is
    that class's, everywhere, and it has no 0.5 boundary."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    art = pipeline._select_target(X, np.full(60, label), "classifier",
                                  small_config(tmp_path), seed=1)
    fixed = float(label)
    assert art.family == "constant"
    assert art.selection == {"note": "single-class target; probability fixed", "fixed": fixed}
    assert art.boundary == ()
    Q = 3.0 * rng.standard_normal((40, 2))
    np.testing.assert_array_equal(target_predict(art, Q), np.full(len(Q), fixed))
    grid = np.linspace(-4.0, 4.0, 15)
    boundary = decision_boundary(lambda P: target_predict(art, P), grid, grid, convex_hull(X))
    assert boundary.polylines == ()


def test_variability_band_matches_rescoring(analysis):
    _, result = analysis
    model = result.artifacts.density_model
    refs = model.reference_points
    # the former band: every reference point re-scored by kernel evaluation
    keep = density.anomaly_probability(model, refs) <= 0.95
    oracle = ((float(refs[keep, 0].min()), float(refs[keep, 0].max())),
              (float(refs[keep, 1].min()), float(refs[keep, 1].max())))
    assert pipeline._variability_band(model) == result.artifacts.band == oracle
    assert (result.report.band_t, result.report.band_c) == oracle


@pytest.mark.parametrize("fit_cap, reference_cap, scv_subsample, resolution, score_bound", [
    (8000, 10000, 1000, 200, 0.005),  # default KDE caps and chart grid
    (2000, 2000, 500, 60, 0.02),      # small caps, coarse grid
])
def test_anomaly_grid_close_to_exact(ensemble_half, fit_cap, reference_cap, scv_subsample,
                                     resolution, score_bound):
    rows = ensemble_half  # its only pivot is 0.5
    model = density.fit_anomaly_model(rows.t, rows.c, seed=0, fit_cap=fit_cap,
                                      reference_cap=reference_cap, scv_subsample=scv_subsample)
    ts, cs, binned = pipeline._anomaly_grid(model, resolution)
    exact = density.exceedance(model.reference_densities, evaluate_grid(model, ts, cs))
    assert np.abs(binned - exact).max() <= score_bound
    step = np.array([ts[1] - ts[0], cs[1] - cs[0]])
    for level in CONTOUR_LEVELS:
        # Hausdorff distance between the contour vertex sets, in grid steps
        a = np.vstack(marching_squares(ts, cs, exact, level)) / step
        b = np.vstack(marching_squares(ts, cs, binned, level)) / step
        dist = cdist(a, b)
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 0.5


def test_classifier_regressor_soft_consistency(analysis):
    """Sign of the expected over-cost agrees with p(OC) >= 0.5 on most of the
    trusted grid."""
    cfg, result = analysis
    art = result.artifacts
    clf = art.classifiers["over_budget"]
    reg = art.regressors["final_cost"]
    # the boundary's grid: the cloud's bounding box (the hull's) padded by 5%
    lo, hi = art.hull.min(axis=0), art.hull.max(axis=0)
    pad = (hi - lo) * 0.05 + 1e-9
    t_grid, c_grid = (np.linspace(lo[k] - pad[k], hi[k] + pad[k], cfg.grid_resolution)
                      for k in range(2))
    tt, cc = np.meshgrid(t_grid, c_grid, indexing="ij")
    flat = np.column_stack([tt.ravel(), cc.ravel()])
    inside = points_in_hull(flat, art.hull)
    p = target_predict(clf, flat[inside])
    expected, _ = gam_predict(reg.model, flat[inside])
    bac = result.report.bac
    agree = ((p >= 0.5) == (expected >= bac))
    near_half = np.abs(p - 0.5) < 0.1  # ambiguous band where sign is noise
    assert agree[~near_half].mean() >= 0.9


def test_zero_variance_project_analysis(tmp_path, zero_variance_case_study):
    import json as _json

    proj = tmp_path / "zero_var.json"
    proj.write_text(_json.dumps({
        "activities": [
            {"id": a.id, "mean_duration": a.mean_duration, "variance": 0.0,
             "cost_rate": a.cost_rate}
            for a in zero_variance_case_study.activities
        ],
        "edges": [list(e) for e in zero_variance_case_study.edges],
    }))
    cfg = small_config(tmp_path, project=str(proj), runs=300)
    res = cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5)
    cold = (Path(cfg.out_dir) / "report.json").read_bytes()
    cmd_analyze(cfg, at=BASELINE_T50, ac=12306.5, ev=12306.5)  # a cache hit
    assert (Path(cfg.out_dir) / "report.json").read_bytes() == cold
    r = res.report
    assert r.p_anomaly == 0.0  # the only reachable point
    assert r.p_overcost == 0.0 and r.p_delay == 0.0  # single-class targets
    assert r.expected_final_cost == pytest.approx(24613.0, rel=1e-12)
    assert r.expected_overcost == pytest.approx(0.0, abs=1e-9)
    assert r.band_t[0] == pytest.approx(r.band_t[1], abs=1e-9)  # zero width
    # the band is the cloud's box, read back from the 9-digit triad CSV
    assert r.band_t == (5.54840319, 5.54840319) and r.band_c == (12306.5, 12306.5)
    note = {"note": "degenerate cloud; observed constant reported"}
    assert r.cost_model == note and r.duration_model == note
    # BASELINE_T50 lies 3.6e-9 past the rounded box: inside the anomaly test's
    # relative 1e-9 tolerance, outside the regressors' training range
    assert r.cost_extrapolated and r.duration_extrapolated
    chart = res.document["chart"]
    assert chart["contours"] == {f"{lvl:g}": [] for lvl in CONTOUR_LEVELS}
    assert chart["boundaries"] == {"over_budget": [], "late": []}
    off = cmd_analyze(cfg, at=BASELINE_T50, ac=20000.0, ev=12306.5, write=False)
    assert off.report.p_anomaly == 1.0
    assert off.report.cost_extrapolated and off.report.duration_extrapolated
    # chart renders with the EV marker on the PV curve
    svg_path = cmd_chart(Path(cfg.out_dir) / "report.json", tmp_path / "zero.svg")
    svg = svg_path.read_text()
    assert svg.count("p(Anomaly)") == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_zero_spread_mixed_labels_report_is_valid_json(tmp_path, monkeypatch):
    """A cloud without spread at the 10% pivot whose runs still end both over
    and under budget: the QDA ridge keeps p_overcost and p_delay finite, and
    a non-finite report is refused rather than written."""
    proj = tmp_path / "two.json"
    proj.write_text(json.dumps({
        "activities": [
            {"id": "A", "mean_duration": 5.0, "variance": 0.0, "cost_rate": 100.0},
            {"id": "B", "mean_duration": 5.0, "variance": 1.0, "cost_rate": 100.0},
        ],
        "edges": [["A", "B"]],
    }))
    cfg = small_config(tmp_path, project=str(proj), runs=600)
    res = cmd_analyze(cfg, at=1.0, ac=100.0, ev=100.0)
    r = res.report
    assert r.ev_level == pytest.approx(0.1)
    assert r.band_t[0] == r.band_t[1] and r.band_c[0] == r.band_c[1]  # no spread
    assert r.overcost_model["chosen_family"] == "qda"
    for p in (r.p_overcost, r.p_delay):
        assert np.isfinite(p) and 0 <= p <= 1
    report_path = Path(cfg.out_dir) / "report.json"
    written = report_path.read_bytes()
    assert json.loads(written, parse_constant=_reject_constant) == res.document

    monkeypatch.setattr(pipeline, "target_predict", lambda art, X: np.array([np.nan]))
    with pytest.raises(NumericsError, match="p_overcost, p_delay"):
        cmd_analyze(cfg, at=1.0, ac=100.0, ev=100.0)
    assert report_path.read_bytes() == written


def test_analyze_rejects_out_of_range_ev(analysis):
    cfg, _ = analysis
    from evmcontrol.errors import ValidationError

    with pytest.raises(ValidationError):
        cmd_analyze(cfg, at=1.0, ac=1.0, ev=0.0, write=False)
    with pytest.raises(ValidationError):
        cmd_analyze(cfg, at=1.0, ac=1.0, ev=99999.0, write=False)


# -- command line -----------------------------------------------------------


def test_cli_simulate_and_chart_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli"
    code = main([
        "simulate", "--project", "case_study.json", "--runs", "150",
        "--seed", "3", "--ev-levels", "0.5", "--out", str(out),
    ])
    assert code == 0
    assert (out / "manifest.json").exists()


def test_cli_analyze_zero_variance(tmp_path, zero_variance_case_study):
    proj = tmp_path / "zv.json"
    proj.write_text(json.dumps({
        "activities": [
            {"id": a.id, "mean_duration": a.mean_duration, "variance": 0.0,
             "cost_rate": a.cost_rate}
            for a in zero_variance_case_study.activities
        ],
        "edges": [list(e) for e in zero_variance_case_study.edges],
    }))
    out = tmp_path / "cli-out"
    code = main([
        "analyze", "--project", str(proj), "--at", "5.5", "--ac", "12258",
        "--ev", "12258", "--runs", "200", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["p_anomaly"] == 0.0
    code = main(["chart", "--report", str(out / "report.json"),
                 "--out", str(out / "c.svg")])
    assert code == 0
    assert (out / "c.svg").exists()
    assert (out / "c.json").exists()


def test_cli_analyze_rejects_data_of_another_project(tmp_path, capsys, zero_variance_case_study):
    """A manifest simulated for another project stops the analysis: the
    error names both fingerprints and nothing is simulated in its place."""
    data = tmp_path / "data"
    assert main(["simulate", "--project", "case_study.json", "--runs", "50",
                 "--ev-levels", "0.5", "--out", str(data)]) == 0
    proj = tmp_path / "zv.json"
    proj.write_text(json.dumps({
        "activities": [
            {"id": a.id, "mean_duration": a.mean_duration, "variance": 0.0,
             "cost_rate": a.cost_rate}
            for a in zero_variance_case_study.activities
        ],
        "edges": [list(e) for e in zero_variance_case_study.edges],
    }))
    out = tmp_path / "out"
    code = main(["analyze", "--project", str(proj), "--at", "5.5", "--ac", "12258",
                 "--ev", "12258", "--runs", "50", "--data", str(data), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    fingerprint = json.loads((data / "manifest.json").read_text())["fingerprint"]
    assert fingerprint in err and zero_variance_case_study.fingerprint() in err
    assert not list((out / "cache").glob("triads_*.csv"))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--project", str(bad), "--out", str(tmp_path)]) == 1

    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps({
        "activities": [
            {"id": "A", "mean_duration": 1, "variance": 0, "cost_rate": 1},
            {"id": "B", "mean_duration": 1, "variance": 0, "cost_rate": 1},
        ],
        "edges": [["A", "B"], ["B", "A"]],
    }))
    assert main(["simulate", "--project", str(cyc), "--out", str(tmp_path)]) == 1

    assert main(["simulate", "--project", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2

    patho = tmp_path / "patho.json"
    patho.write_text(json.dumps({
        "activities": [
            {"id": "A", "mean_duration": 1e-8, "variance": 1e-20, "cost_rate": 1},
        ],
        "edges": [],
    }))
    assert main(["simulate", "--project", str(patho), "--runs", "10",
                 "--out", str(tmp_path)]) == 3
