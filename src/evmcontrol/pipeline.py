"""End-to-end orchestration: simulate, analyze, report.

``cmd_simulate`` writes the triad ensemble per pivot level as CSV plus a
manifest.  ``cmd_analyze`` takes an observed status (AT, AC, EV), pivots
the ensemble at EV/BAC, and assembles a control report: anomaly score
from the fitted density model, over-cost / delay probabilities from the
classifier family chosen by nested cross-validation, and expected final
cost / duration from the additive-model family chosen the same way.

Everything is seeded through one configuration value, so a fixed
``RunConfig`` reproduces its outputs byte for byte.  Fitted models are
cached (content-addressed by project fingerprint, seed, pivot level and the
model settings; an entry that loads is never rewritten) so repeated status
queries do not refit.

Performance defaults: learners with superlinear cost (SVM, forest, loess,
SCV) train on seeded subsamples whose sizes live in ``RunConfig``; the
defaults keep a full analysis in the minutes range on a laptop while
leaving the estimators' statistical behavior intact.  Grids are ordered
from the simplest parameterization to the most flexible, which is also
the inner-loop tie-breaking order.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import secrets
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import classify, density, gam
from .errors import NumericsError, ValidationError
from .forest import forest_fit, forest_predict
from .geometry import convex_hull, marching_squares, points_in_hull
from .model_selection import Family, SelectionReport, nested_cv
from .project import ProjectSpec, baseline_pv, evm_status, load_project
from .rng import generator, mix_seed
from .simulate import TriadDataset, read_triads_csv, run_ensemble
from .svm import svm_fit, svm_predict

DEFAULT_EV_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 10))
CONTOUR_LEVELS = (0.5, 0.75, 0.95)
# Version of the pickled model layout, part of the model-cache key.  Bump it
# whenever a cached artifact's meaning changes (2: reference_points are kept
# in the order of reference_densities; 3: entries hold fitted parameters
# only, without the level's triads or training-time operators; 4: row-local
# kernel sums move reference densities and SVM models in their last bits, and
# forest trees no longer keep their bootstrap rows; 5: entries hold the chart's
# contours and percentile rectangles, and each boundary's polylines only; 6:
# entries hold the variability band, and a zero-spread level's outcomes are
# GAMs with no smooths; 7: one TargetModel type per target, with single-class
# classifier targets held as "constant" GAMs; 8: contours and boundary
# polylines traced by grid edge, one crossing per edge).
CACHE_SCHEMA = 8


def _stable_tag(name: str) -> int:
    """Deterministic 32-bit tag for seed derivation (hash() is salted)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


def _json_dict(obj) -> dict:
    """A dataclass as plain JSON values: tuples become lists, paths strings."""
    return json.loads(json.dumps(asdict(obj), default=os.fspath))


def _grid_pairs(values, reverse=False):
    ordered = sorted(values, reverse=reverse)
    return tuple(
        {"a": a, "b": b} for a in ordered for b in ordered
    )


@dataclass(frozen=True)
class RunConfig:
    """Pipeline settings; echoed verbatim into every output."""

    project: str
    runs: int = 20000
    seed: int = 0
    ev_levels: tuple[float, ...] = DEFAULT_EV_LEVELS
    grid_resolution: int = 60
    density_grid_resolution: int = 200
    out_dir: str = "evmcontrol-out"
    # sampling caps for superlinear learners
    train_subsample: int = 1500
    kde_fit_cap: int = 8000
    kde_reference_cap: int = 10000
    scv_subsample: int = 2000
    # model selection
    k_outer: int = 5
    k_inner: int = 5
    svm_grid: tuple[Mapping, ...] = ({"C": 1.0, "gamma": 0.5}, {"C": 1.0, "gamma": 2.0})
    forest_grid: tuple[Mapping, ...] = ({"min_node": 25}, {"min_node": 5})
    knot_grid: tuple[Mapping, ...] = _grid_pairs((2, 4, 6, 8))
    span_grid: tuple[Mapping, ...] = _grid_pairs((1.0, 0.6, 0.3), reverse=True)
    cv_forest_ntree: int = 60
    final_forest_ntree: int = 300

    def to_dict(self) -> dict:
        return _json_dict(self)


@dataclass(frozen=True)
class ControlReport:
    """Everything a status check reports at one pivot level."""

    ev_level: float
    at: float
    ac: float
    ev: float
    sv: float
    cv: float
    x: float
    bac: float
    pd: float
    p_anomaly: float
    p_overcost: float
    p_delay: float
    expected_final_cost: float
    expected_overcost: float
    expected_final_duration: float
    expected_delay: float
    overcost_model: dict
    delay_model: dict
    cost_model: dict
    duration_model: dict
    status_in_trusted_region: bool
    cost_extrapolated: bool
    duration_extrapolated: bool
    band_t: tuple[float, float]
    band_c: tuple[float, float]

    def to_dict(self) -> dict:
        return _json_dict(self)


# ---------------------------------------------------------------------------
# simulate


def _level_filename(level: float) -> str:
    return f"triads_ev{level:.9g}.csv"


def cmd_simulate(config: RunConfig, spec: ProjectSpec | None = None) -> dict:
    """Run the ensemble and write one triad CSV per pivot level + manifest.

    The old manifest is removed first.  All CSVs are written to temp files
    in one pass and renamed into place once every one is complete, and the
    new manifest is written last, so a run stopped midway leaves no
    manifest that points at files it did not write.
    """
    if spec is None:
        spec = load_project(config.project)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = run_ensemble(spec, config.runs, config.seed, config.ev_levels)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    _write_atomic([out / _level_filename(level) for level in config.ev_levels],
                  lambda *tmps: dataset.write_pivot_csvs(tmps))
    files = {f"{level:.9g}": _level_filename(level) for level in config.ev_levels}
    manifest = {
        "fingerprint": spec.fingerprint(),
        "seed": config.seed,
        "runs": config.runs,
        "ev_levels": [float(l) for l in config.ev_levels],
        "bac": spec.bac,
        "pd": spec.pd,
        "files": files,
        "config": config.to_dict(),
    }
    _write_atomic([manifest_path], lambda p: p.write_text(json.dumps(manifest, indent=2)))
    return manifest


# ---------------------------------------------------------------------------
# model families


@dataclass(frozen=True)
class Learner:
    """One model family: its grid, how to fit it and how to predict with it.

    ``fit(X, y, params, ntree, seed)`` returns a model; ``predict(model, X)``
    returns P(positive) for a classifier and the expected value for a
    regressor or a constant.  Entries look learners up by their module-level
    names when they run, so that rebinding those names (as a tracer does)
    reaches every fit.
    """

    kind: str  # "classifier" | "regressor" | "constant"
    grid: Callable[[RunConfig], tuple]
    fit: Callable
    predict: Callable


def _gam_learner(smoother: Callable[[float], gam.SmootherSpec],
                 grid: Callable[[RunConfig], tuple]) -> Learner:
    return Learner(
        kind="regressor", grid=grid,
        fit=lambda X, y, p, ntree, seed: gam.backfit_gam(X, y, [smoother(p["a"]),
                                                                smoother(p["b"])]),
        predict=lambda m, X: gam.gam_predict(m, X)[0],
    )


def _observed_mean(X, y) -> gam.GamModel:
    """The mean of ``y`` as a GAM with no smooths, trained on the rows of ``X``."""
    mean = float(y.mean())
    return gam.GamModel(
        intercept=mean, specs=(), smooths=(), train_min=X.min(axis=0), train_max=X.max(axis=0),
        fitted=np.full(len(y), mean), rss_path=(float(((y - mean) ** 2).sum()),), edf=(),
        n_cycles=0,
    )


# The one place a family is defined.  Order is the tie-break order between
# families with equal outer error.  "constant" is never cross-validated: it
# answers a single-class classifier target and a zero-spread cloud's outcomes.
LEARNERS: dict[str, Learner] = {
    "qda": Learner(
        kind="classifier", grid=lambda config: ({},),
        fit=lambda X, y, p, ntree, seed: classify.qda_fit(X, y),
        predict=lambda m, X: classify.qda_predict(m, X)[:, 1],
    ),
    "forest": Learner(
        kind="classifier", grid=lambda config: config.forest_grid,
        fit=lambda X, y, p, ntree, seed: forest_fit(X, y, ntree=ntree, mtry=1,
                                                    min_node=p.get("min_node", 5), seed=seed),
        predict=lambda m, X: forest_predict(m, X)[:, 1],
    ),
    "svm": Learner(
        kind="classifier", grid=lambda config: config.svm_grid,
        fit=lambda X, y, p, ntree, seed: svm_fit(X, y, C=p["C"], gamma=p["gamma"]),
        predict=lambda m, X: svm_predict(m, X),
    ),
    "gam_splines": _gam_learner(gam.spline_spec, lambda config: config.knot_grid),
    "gam_loess": _gam_learner(gam.loess_spec, lambda config: config.span_grid),
    "constant": Learner(
        kind="constant", grid=lambda config: ({},),
        fit=lambda X, y, p, ntree, seed: _observed_mean(X, y),
        predict=lambda m, X: gam.gam_predict(m, X)[0],
    ),
}
CLASSIFIERS = tuple(name for name, learner in LEARNERS.items() if learner.kind == "classifier")
REGRESSORS = tuple(name for name, learner in LEARNERS.items() if learner.kind == "regressor")


def _family(name: str, ntree: int, seed: int) -> Family:
    """Nested-CV adapter of a table entry; classifiers predict P > 0.5."""
    learner = LEARNERS[name]

    def fit(X, y, params):
        model = learner.fit(X, y, params, ntree, seed)
        if learner.kind == "classifier":
            return lambda Q: learner.predict(model, Q) > 0.5
        return lambda Q: learner.predict(model, Q)

    return Family(name=name, kind=learner.kind, fit=fit)


def _select(X, y, names, config: RunConfig, seed: int) -> tuple[list[SelectionReport], int]:
    """Nested CV of each named family; the winner has the lowest
    ``(outer_mean, table index)``."""
    reports = [
        nested_cv(X, y, _family(name, config.cv_forest_ntree, mix_seed(seed, 0xF0)),
                  LEARNERS[name].grid(config), k_outer=config.k_outer, k_inner=config.k_inner,
                  seed=mix_seed(seed, _stable_tag(name)))
        for name in names
    ]
    return reports, min(range(len(reports)), key=lambda i: (reports[i].outer_mean, i))


@dataclass
class TargetModel:
    """One target's fitted model, the family it came from and how it was chosen."""

    family: str
    model: object
    selection: dict
    boundary: tuple[np.ndarray, ...] = ()  # a classifier's p = 0.5 polylines


def target_predict(art: TargetModel, X) -> np.ndarray:
    """P(positive) of a classifier target, the expected value of a regressor."""
    return LEARNERS[art.family].predict(art.model, X)


def _select_target(X, y, kind: str, config: RunConfig, seed: int) -> TargetModel:
    """Choose a family of ``kind`` by nested CV and refit it on all rows.

    A classifier target with one class, and ``kind="constant"`` (the
    outcomes of a zero-spread cloud), take the observed mean instead.
    """
    single_class = kind == "classifier" and (y.all() or not y.any())
    if single_class or kind == "constant":
        note = ({"note": "single-class target; probability fixed", "fixed": float(y.mean())}
                if single_class else {"note": "degenerate cloud; observed constant reported"})
        return TargetModel("constant", LEARNERS["constant"].fit(X, y, {}, 0, seed), note)
    reports, best = _select(X, y, CLASSIFIERS if kind == "classifier" else REGRESSORS,
                            config, seed)
    chosen = reports[best]
    model = LEARNERS[chosen.family].fit(X, y, chosen.best_params(), config.final_forest_ntree,
                                        mix_seed(seed, 0xF1))
    error = "outer_error" if kind == "classifier" else "outer_mse"
    selection = {
        "chosen_family": chosen.family,
        "chosen_params": dict(chosen.best_params()),
        error: chosen.outer_mean,
        f"{error}_std": chosen.outer_std,
        "per_family": {r.family: r.outer_mean for r in reports},
    }
    if kind == "classifier":
        selection["class_balance"] = float(y.mean())
    if chosen.family == "qda":
        selection["class_priors"] = model.priors.tolist()
    return TargetModel(chosen.family, model, selection)


@dataclass
class AnalysisArtifacts:
    """A level's fitted models and its status-independent chart layers.

    ``density_model`` is None for a zero-spread cloud, whose ``band`` is its
    bounding box; otherwise ``band`` is the marginal extent of the 95%
    highest-density region.  ``contours`` maps each of ``CONTOUR_LEVELS`` to
    the polylines of that anomaly level; ``rectangles`` maps 0.95 and 0.75
    to the level rows' percentile rectangles.  A cache hit reads all three
    instead of the triads.
    """

    density_model: density.DensityModel | None
    classifiers: dict
    regressors: dict
    hull: np.ndarray
    contours: dict
    rectangles: dict
    band: tuple[tuple[float, float], tuple[float, float]]


# ---------------------------------------------------------------------------
# analyze


def _load_or_simulate_level(config: RunConfig, spec: ProjectSpec, level: float,
                            data_dir: str | None) -> TriadDataset:
    if data_dir:
        manifest_path = Path(data_dir) / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("fingerprint") != spec.fingerprint():
                raise ValidationError(
                    f"{manifest_path} was simulated for project fingerprint "
                    f"{manifest.get('fingerprint')}, not this project's {spec.fingerprint()}")
            for key, name in manifest.get("files", {}).items():
                if abs(float(key) - level) <= 1e-9:
                    return read_triads_csv(Path(data_dir) / name,
                                           fingerprint=manifest["fingerprint"],
                                           seed=manifest["seed"])
    cache = Path(config.out_dir) / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256(
        f"{spec.fingerprint()}|{config.seed}|{config.runs}|{level:.12g}".encode()
    ).hexdigest()[:20]
    cached = cache / f"triads_{key}.csv"
    if cached.exists():
        return read_triads_csv(cached, fingerprint=spec.fingerprint(), seed=config.seed)
    ds = run_ensemble(spec, config.runs, config.seed, [level])
    _write_atomic([cached], ds.write_csv)
    # analyse what a later refit reads back: the CSV rounds to 9 digits
    return read_triads_csv(cached, fingerprint=spec.fingerprint(), seed=config.seed)


def _write_atomic(paths: Sequence[Path], writer: Callable[..., None]) -> None:
    """Write files through temp files, then rename each over its path.

    ``writer`` gets one temp path per entry of ``paths``, in order.  Nothing
    is renamed until it has returned, so readers see each file whole, and
    a writer that fails replaces none of them.  Cache entries are written
    only when missing or failed to load; they are content-addressed and
    deterministic, so a racing writer renames the same bytes into place.
    The writer creates each temp file under a random name, so it gets the
    permissions the umask gives a new file.
    """
    tmps = [path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp") for path in paths]
    try:
        writer(*tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _models_cache_key(config: RunConfig, spec: ProjectSpec, level: float) -> str:
    knobs = config.to_dict()
    knobs.pop("out_dir")
    knobs.pop("ev_levels")
    blob = json.dumps({"schema": CACHE_SCHEMA, "fp": spec.fingerprint(),
                       "level": round(level, 12), "knobs": knobs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _cloud_degenerate(t: np.ndarray, c: np.ndarray) -> bool:
    spread_t = np.ptp(t) <= 1e-9 * max(1.0, abs(float(t.mean())))
    spread_c = np.ptp(c) <= 1e-9 * max(1.0, abs(float(c.mean())))
    return spread_t or spread_c


def _fit_level_models(config: RunConfig, spec: ProjectSpec, level_rows: TriadDataset,
                      level: float) -> AnalysisArtifacts:
    seed = mix_seed(config.seed, int(round(level * 1e6)))
    t, c = level_rows.t, level_rows.c
    rectangles = {lvl: density.percentile_rectangle(t, c, lvl) for lvl in (0.95, 0.75)}
    if _cloud_degenerate(t, c):
        # zero-spread cloud (e.g. a deterministic project): membership of its
        # box replaces the density model; outcomes are the observed means
        dens = None
        band = ((float(t.min()), float(t.max())), (float(c.min()), float(c.max())))
        contours = {lvl: () for lvl in CONTOUR_LEVELS}
    else:
        # fitted before the learners: after them, it raised the peak RSS of a
        # perfbench warm_check set-up from 76 to 84 MB
        dens = density.fit_anomaly_model(
            t, c, seed=seed, bandwidth="scv",
            fit_cap=config.kde_fit_cap, reference_cap=config.kde_reference_cap,
            scv_subsample=config.scv_subsample,
        )
        band = _variability_band(dens)
        ts, cs, scores = _anomaly_grid(dens, config.density_grid_resolution)
        contours = {lvl: tuple(marching_squares(ts, cs, scores, lvl)) for lvl in CONTOUR_LEVELS}
    pts = np.column_stack([t, c])
    sub = generator(seed, 0x7A1).permutation(len(t))[: config.train_subsample]
    sub = np.sort(sub)
    Xs = pts[sub]
    hull = convex_hull(pts)
    pad_t = (t.max() - t.min()) * 0.05 + 1e-9
    pad_c = (c.max() - c.min()) * 0.05 + 1e-9
    t_grid = np.linspace(t.min() - pad_t, t.max() + pad_t, config.grid_resolution)
    c_grid = np.linspace(c.min() - pad_c, c.max() + pad_c, config.grid_resolution)

    classifiers = {}
    for target, labels in (("over_budget", level_rows.over_budget), ("late", level_rows.late)):
        art = _select_target(Xs, labels[sub], "classifier", config,
                             mix_seed(seed, _stable_tag(target)))
        # a constant probability has no 0.5 level set: its boundary is empty
        art.boundary = classify.decision_boundary(
            lambda Q, a=art: target_predict(a, Q), t_grid, c_grid, hull
        ).polylines
        classifiers[target] = art

    # a zero-spread cloud's outcomes are their means over every row
    X, rows, kind = (pts, slice(None), "constant") if dens is None else (Xs, sub, "regressor")
    regressors = {
        target: _select_target(X, values[rows], kind, config, mix_seed(seed, _stable_tag(target)))
        for target, values in (("final_cost", level_rows.final_c),
                               ("final_duration", level_rows.final_t))
    }
    return AnalysisArtifacts(
        density_model=dens,
        classifiers=classifiers,
        regressors=regressors,
        hull=hull,
        contours=contours,
        rectangles=rectangles,
        band=band,
    )


def _anomaly_grid(model: density.DensityModel, resolution: int):
    """Anomaly scores on the density chart grid (bbox + 3 bandwidth sds).

    The grid density is binned (``DensityModel.binned_grid``): it is drawn,
    not reported.  The grid covers every fit point, as binning requires.
    """
    pts = model.points
    sd_t = np.sqrt(model.H[0, 0])
    sd_c = np.sqrt(model.H[1, 1])
    ts = np.linspace(pts[:, 0].min() - 3 * sd_t, pts[:, 0].max() + 3 * sd_t, resolution)
    cs = np.linspace(pts[:, 1].min() - 3 * sd_c, pts[:, 1].max() + 3 * sd_c, resolution)
    return ts, cs, density.exceedance(model.reference_densities, model.binned_grid(ts, cs))


def _variability_band(model: density.DensityModel) -> tuple[tuple[float, float], tuple[float, float]]:
    """Marginal extent of the 95% highest-density region of the reference sample.

    ``reference_points`` is in the order of ``reference_densities``, so the
    sample is scored from its stored densities without a kernel evaluation.
    """
    refs = model.reference_points
    scores = density.exceedance(model.reference_densities, model.reference_densities)
    keep = scores <= 0.95
    if not keep.any():
        keep = np.ones(len(refs), dtype=bool)
    return (
        (float(refs[keep, 0].min()), float(refs[keep, 0].max())),
        (float(refs[keep, 1].min()), float(refs[keep, 1].max())),
    )


@dataclass
class AnalysisResult:
    report: ControlReport
    document: dict
    artifacts: AnalysisArtifacts


def cmd_analyze(config: RunConfig, at: float, ac: float, ev: float,
                data_dir: str | None = None, spec: ProjectSpec | None = None,
                write: bool = True) -> AnalysisResult:
    """Full status analysis at the pivot level EV / BAC.

    A model-cache hit scores the status against the stored entry and reads
    no triads; only a miss loads (or simulates) the level's rows and fits.
    """
    if spec is None:
        spec = load_project(config.project)
    if not 0 < ev < spec.bac:
        raise ValidationError("analysis needs EV strictly inside (0, BAC)")
    status = evm_status(spec, at, ac, ev)
    level = status.x

    cache_dir = Path(config.out_dir) / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    model_key = _models_cache_key(config, spec, level)
    model_path = cache_dir / f"models_{model_key}.pkl"
    artifacts = None
    if model_path.exists():
        try:
            with open(model_path, "rb") as fh:
                artifacts = pickle.load(fh)
        except Exception as exc:  # refit below and replace the broken entry
            warnings.warn(f"model cache entry {model_path} failed to load "
                          f"({type(exc).__name__}: {exc}); refitting it")
    if artifacts is None:
        level_rows = _load_or_simulate_level(config, spec, level, data_dir)
        artifacts = _fit_level_models(config, spec, level_rows, level)
        _write_atomic([model_path], lambda p: p.write_bytes(pickle.dumps(artifacts)))

    point = np.array([at, ac])
    band_t, band_c = artifacts.band
    if artifacts.density_model is None:
        # zero-spread cloud: a status is normal only inside the cloud's box
        (t_lo, t_hi), (c_lo, c_hi) = band_t, band_c
        tol_t = 1e-9 * max(1.0, abs(t_hi))
        tol_c = 1e-9 * max(1.0, abs(c_hi))
        inside = (t_lo - tol_t <= at <= t_hi + tol_t) and (c_lo - tol_c <= ac <= c_hi + tol_c)
        p_anomaly = 0.0 if inside else 1.0
    else:
        p_anomaly = float(density.anomaly_probability(artifacts.density_model, point))

    probs = {}
    for target, art in artifacts.classifiers.items():
        probs[target] = float(target_predict(art, point[None, :])[0])

    expectations = {}
    extrapolated = {}
    for target, art in artifacts.regressors.items():
        yhat, flag = gam.gam_predict(art.model, point[None, :])
        expectations[target] = float(yhat[0])
        extrapolated[target] = bool(flag[0])
    in_hull = bool(points_in_hull(point[None, :], artifacts.hull)[0])

    report = ControlReport(
        ev_level=level,
        at=status.at, ac=status.ac, ev=status.ev,
        sv=status.sv, cv=status.cv, x=status.x,
        bac=spec.bac, pd=spec.pd,
        p_anomaly=p_anomaly,
        p_overcost=probs["over_budget"],
        p_delay=probs["late"],
        expected_final_cost=expectations["final_cost"],
        expected_overcost=expectations["final_cost"] - spec.bac,
        expected_final_duration=expectations["final_duration"],
        expected_delay=expectations["final_duration"] - spec.pd,
        overcost_model=artifacts.classifiers["over_budget"].selection,
        delay_model=artifacts.classifiers["late"].selection,
        cost_model=artifacts.regressors["final_cost"].selection,
        duration_model=artifacts.regressors["final_duration"].selection,
        status_in_trusted_region=in_hull,
        cost_extrapolated=extrapolated["final_cost"],
        duration_extrapolated=extrapolated["final_duration"],
        band_t=band_t,
        band_c=band_c,
    )
    document = _build_document(config, spec, report, artifacts)
    if write:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        try:
            text = json.dumps(document, indent=2, allow_nan=False)
        except ValueError as exc:
            bad = [name for name, value in document["report"].items()
                   if isinstance(value, float) and not np.isfinite(value)]
            raise NumericsError(f"the report holds non-finite numbers "
                                f"({', '.join(bad) or exc}); report.json was not written") from exc
        (out / "report.json").write_text(text)
    return AnalysisResult(report=report, document=document, artifacts=artifacts)


def _polylines_json(polylines) -> list:
    return [np.asarray(p).tolist() for p in polylines]


def _build_document(config: RunConfig, spec: ProjectSpec, report: ControlReport,
                    artifacts: AnalysisArtifacts) -> dict:
    pv = baseline_pv(spec)
    contours = {f"{lvl:g}": _polylines_json(polys) for lvl, polys in artifacts.contours.items()}
    boundaries = {target: _polylines_json(art.boundary)
                  for target, art in artifacts.classifiers.items()}
    rectangles = {
        f"{lvl:g}": {"t_lo": rect.t_lo, "t_hi": rect.t_hi, "c_lo": rect.c_lo, "c_hi": rect.c_hi}
        for lvl, rect in artifacts.rectangles.items()
    }
    return {
        "config": config.to_dict(),
        "report": report.to_dict(),
        "chart": {
            "pv": np.column_stack([pv.times, pv.values]).tolist(),
            "status": {"t": report.at, "c": report.ac, "ev": report.ev},
            "contour_levels": list(CONTOUR_LEVELS),
            "contours": contours,
            "boundaries": boundaries,
            "rectangles": rectangles,
            "hull": artifacts.hull.tolist(),
            "band": {"t": list(report.band_t), "c": list(report.band_c)},
            # favorable (green) below the plan totals, problematic (red) above
            "heatmap_thresholds": {
                "expected_final_cost": spec.bac,
                "expected_final_duration": spec.pd,
            },
        },
    }
