"""The CSV writer against numpy's ``savetxt``, which wrote every file before.

Each oracle below is the ``savetxt`` export it replaced; the files must stay
byte-identical, special floats included.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evmcontrol import csvio, density, gam, pipeline
from evmcontrol.simulate import TRIAD_CSV_HEADER, TriadDataset, run_ensemble

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e300, -1e300, 1.0, 0.1, 123456789.5, 1e16, -3.3e-7]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
FINITE = st.one_of(st.sampled_from([x for x in SPECIAL if np.isfinite(x)]),
                   st.floats(-1e300, 1e300, allow_nan=False))


def _savetxt_triads(ds: TriadDataset, path) -> None:
    cols = np.column_stack([ds.run, ds.ev_level, ds.t, ds.c, ds.final_t, ds.final_c,
                            ds.over_budget.astype(int), ds.late.astype(int)])
    fmt = ["%d", "%.9g", "%.9g", "%.9g", "%.9g", "%.9g", "%d", "%d"]
    np.savetxt(path, cols, fmt=fmt, delimiter=",", header=TRIAD_CSV_HEADER, comments="")


def _savetxt_density_grid(model, ts, cs, path) -> None:
    ts = np.asarray(ts, float)
    cs = np.asarray(cs, float)
    tt, cc = np.meshgrid(ts, cs, indexing="ij")
    flat = np.column_stack([tt.ravel(), cc.ravel()])
    dens = model.evaluate(flat)
    refs = model.reference_densities
    score = density.exceedance(refs, dens) if refs.size else np.full(len(flat), np.nan)
    cols = np.column_stack([flat[:, 0], flat[:, 1], dens, score])
    np.savetxt(path, cols, fmt="%.9g", delimiter=",", header="t,c,density,anomaly_score",
               comments="")


def _savetxt_prediction_grid(artifacts, ts, cs, path) -> None:
    ts = np.asarray(ts, float)
    cs = np.asarray(cs, float)
    tt, cc = np.meshgrid(ts, cs, indexing="ij")
    flat = np.column_stack([tt.ravel(), cc.ravel()])
    cost, flag_cost = gam.gam_predict(artifacts.regressors["final_cost"].model, flat)
    duration, flag_dur = gam.gam_predict(artifacts.regressors["final_duration"].model, flat)
    cols = np.column_stack([flat[:, 0], flat[:, 1], cost, duration,
                            (flag_cost | flag_dur).astype(int)])
    np.savetxt(path, cols, fmt=["%.9g", "%.9g", "%.9g", "%.9g", "%d"], delimiter=",",
               header="t,c,expected_final_cost,expected_final_duration,extrapolated",
               comments="")


def _same_bytes(tmp_path, write, oracle) -> bytes:
    ours, theirs = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    write(ours)
    oracle(theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_bytes()


@st.composite
def triad_datasets(draw):
    n_levels = draw(st.integers(1, 3))
    n_runs = draw(st.integers(1, 6))
    n = n_runs * n_levels
    levels = draw(st.lists(FLOATS, min_size=n_levels, max_size=n_levels))
    floats = st.lists(FLOATS, min_size=n, max_size=n)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return TriadDataset(
        fingerprint="f", seed=0, n_runs=n_runs, ev_levels=tuple(levels),
        run=np.repeat(np.array(draw(st.lists(st.integers(0, 2**53), min_size=n_runs,
                                             max_size=n_runs)), dtype=np.int64), n_levels),
        ev_level=np.tile(np.array(levels, dtype=float), n_runs),
        t=np.array(draw(floats)), c=np.array(draw(floats)),
        final_t=np.array(draw(floats)), final_c=np.array(draw(floats)),
        over_budget=np.array(draw(flags)), late=np.array(draw(flags)),
    )


def _levels_only(levels, n_runs):
    """Rows that differ only in their pivot level."""
    n = n_runs * len(levels)
    return TriadDataset(
        fingerprint="f", seed=0, n_runs=n_runs, ev_levels=tuple(levels),
        run=np.repeat(np.arange(n_runs), len(levels)),
        ev_level=np.tile(np.array(levels, dtype=float), n_runs),
        t=np.ones(n), c=np.ones(n), final_t=np.ones(n), final_c=np.ones(n),
        over_budget=np.zeros(n, dtype=bool), late=np.ones(n, dtype=bool),
    )


@settings(max_examples=150, deadline=None)
@given(triad_datasets())
@example(_levels_only((0.0, -0.0), 2))  # equal as floats, printed differently
@example(_levels_only((np.nan,), 3))
def test_triad_csv_matches_savetxt(tmp_path_factory, ds):
    """Multi-level files, and every pivot of them as its own (one-row when
    ``n_runs`` is 1) file, with a constant level formatted once."""
    tmp_path = tmp_path_factory.mktemp("triads")
    _same_bytes(tmp_path, ds.write_csv, lambda p: _savetxt_triads(ds, p))
    for index in range(len(ds.ev_levels)):
        rows = ds.pivot(index)
        _same_bytes(tmp_path, rows.write_csv, lambda p: _savetxt_triads(rows, p))


def test_triad_csv_matches_savetxt_on_an_ensemble(tmp_path, case_study):
    """Every pivot of a simulated ensemble, across several row blocks."""
    ds = run_ensemble(case_study, 2 * csvio.BLOCK_ROWS + 3, seed=9, ev_levels=[0.1, 0.5, 0.9])
    for index in range(3):
        rows = ds.pivot(index)
        text = _same_bytes(tmp_path, rows.write_csv, lambda p: _savetxt_triads(rows, p))
        assert text.count(b"\n") == 1 + rows.n_runs and b"\r" not in text


def test_empty_triad_csv_is_the_header(tmp_path, case_study):
    ds = run_ensemble(case_study, 4, seed=9, ev_levels=[0.5])
    empty = ds._subset(np.zeros(4, dtype=bool), 0.5)
    text = _same_bytes(tmp_path, empty.write_csv, lambda p: _savetxt_triads(empty, p))
    assert text == (TRIAD_CSV_HEADER + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=5), st.lists(FLOATS, min_size=1, max_size=5))
def test_density_grid_csv_matches_savetxt(tmp_path_factory, ts, cs):
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((60, 2))
    for refs in (rng.standard_normal((40, 2)), None):
        model = density.kde_fit(pts, density.normal_scale_bandwidth(pts), reference_points=refs)
        tmp_path = tmp_path_factory.mktemp("density")
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _same_bytes(tmp_path,
                        lambda p: density.write_density_grid_csv(model, ts, cs, p),
                        lambda p: _savetxt_density_grid(model, ts, cs, p))


@pytest.fixture(scope="module")
def gam_artifacts():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 10, (80, 2))
    y = X[:, 0] ** 2 - 3 * X[:, 1] + rng.standard_normal(80)
    cost = gam.backfit_gam(X, y, [gam.spline_spec(2), gam.spline_spec(2)])
    duration = gam.backfit_gam(X, -y, [gam.loess_spec(1.0), gam.loess_spec(1.0)])
    return SimpleNamespace(degenerate=False, regressors={
        "final_cost": SimpleNamespace(model=cost),
        "final_duration": SimpleNamespace(model=duration),
    })


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=5), st.lists(FINITE, min_size=1, max_size=5))
def test_prediction_grid_csv_matches_savetxt(tmp_path_factory, gam_artifacts, ts, cs):
    tmp_path = tmp_path_factory.mktemp("prediction")
    with np.errstate(all="ignore"):
        _same_bytes(tmp_path,
                    lambda p: pipeline.write_prediction_grid_csv(gam_artifacts, ts, cs, p),
                    lambda p: _savetxt_prediction_grid(gam_artifacts, ts, cs, p))
