"""The CSV writer against numpy's ``savetxt``, which wrote every file before.

Each oracle below is the ``savetxt`` export it replaced; the files must stay
byte-identical, special floats included.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evmcontrol import csvio, density
from evmcontrol.errors import ValidationError
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


def _same_bytes(tmp_path, write, oracle) -> bytes:
    ours, theirs = tmp_path / "ours.csv", tmp_path / "savetxt.csv"
    write(ours)
    oracle(theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_bytes()


def _same_pivot_bytes(tmp_path, ds: TriadDataset) -> list[bytes]:
    """Every pivot file of one ``write_pivot_csvs`` call against ``savetxt``
    of that pivot's rows, and against the pivot's own ``write_csv``."""
    paths = [tmp_path / f"pivot{index}.csv" for index in range(len(ds.ev_levels))]
    ds.write_pivot_csvs(paths)
    texts = []
    for index, path in enumerate(paths):
        rows = ds.pivot(index)
        texts.append(_same_bytes(tmp_path, rows.write_csv, lambda p: _savetxt_triads(rows, p)))
        assert path.read_bytes() == texts[-1]
    return texts


@st.composite
def triad_datasets(draw):
    """Run-major datasets: each run's run, final_t, final_c, over_budget and
    late repeat on its row of every pivot level."""
    n_levels = draw(st.integers(1, 3))
    n_runs = draw(st.integers(1, 6))
    n = n_runs * n_levels
    levels = draw(st.lists(FLOATS, min_size=n_levels, max_size=n_levels))

    def per_run(values):
        return np.repeat(np.array(draw(st.lists(values, min_size=n_runs, max_size=n_runs))),
                         n_levels)

    floats = st.lists(FLOATS, min_size=n, max_size=n)
    return TriadDataset(
        fingerprint="f", seed=0, n_runs=n_runs, ev_levels=tuple(levels),
        run=per_run(st.integers(0, 2**53)).astype(np.int64),
        ev_level=np.tile(np.array(levels, dtype=float), n_runs),
        t=np.array(draw(floats)), c=np.array(draw(floats)),
        final_t=per_run(FLOATS), final_c=per_run(FLOATS),
        over_budget=per_run(st.booleans()), late=per_run(st.booleans()),
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
    """Every pivot written in one call (one-row files when ``n_runs`` is 1),
    with shared columns formatted once and each level once per file."""
    _same_pivot_bytes(tmp_path_factory.mktemp("triads"), ds)


def test_triad_csv_matches_savetxt_on_an_ensemble(tmp_path, case_study):
    """Every pivot of a simulated ensemble, at and across row block edges."""
    block = csvio.BLOCK_ROWS
    for n_runs in (1, block - 1, block, block + 1, 2 * block + 3):
        ds = run_ensemble(case_study, n_runs, seed=9, ev_levels=[0.1, 0.5, 0.9])
        for text in _same_pivot_bytes(tmp_path, ds):
            assert text.count(b"\n") == 1 + n_runs and b"\r" not in text


def test_empty_triad_csv_is_the_header(tmp_path, case_study):
    ds = run_ensemble(case_study, 4, seed=9, ev_levels=[0.5])
    empty = ds._subset(np.zeros(4, dtype=bool), 0.5)
    text = _same_bytes(tmp_path, empty.write_csv, lambda p: _savetxt_triads(empty, p))
    assert text == (TRIAD_CSV_HEADER + "\n").encode()


def test_pivot_files_need_run_major_rows(tmp_path, case_study):
    ds = run_ensemble(case_study, 5, seed=9, ev_levels=[0.1, 0.5, 0.9])
    paths = [tmp_path / f"pivot{index}.csv" for index in range(3)]
    final_c = ds.final_c.copy()
    final_c[4] = np.nextafter(final_c[4], np.inf)  # run 1's second row, one ulp up
    with pytest.raises(ValidationError, match="final_c differs within a run"):
        replace(ds, final_c=final_c).write_pivot_csvs(paths)
    with pytest.raises(ValidationError, match="pivot levels"):
        replace(ds, ev_levels=(0.1, 0.9, 0.5)).write_pivot_csvs(paths)
    with pytest.raises(ValidationError, match="need as many files"):
        ds.write_csv(paths[0])  # three levels do not go in one file
    assert not any(path.exists() for path in paths)


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
