import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol import simulate
from evmcontrol.errors import NumericsError, ValidationError
from evmcontrol.project import Activity, baseline_pv, make_project
from evmcontrol.rng import fold
from evmcontrol.simulate import TRIAD_COLUMNS, TRIAD_CSV_HEADER, read_triads_csv, run_ensemble
from scalar_reference import RunTrace, extract_triad, sample_durations, simulate_run

ZERO_VAR_T50 = 5 + 549.5 / 1002  # PV-curve crossing of half the budget


def test_zero_variance_durations(zero_variance_case_study):
    d = sample_durations(zero_variance_case_study, run_seed=1234)
    means = {a.id: a.mean_duration for a in zero_variance_case_study.activities}
    assert d == means


def test_duration_sampling_moments(case_study):
    # one activity with mean 8, variance 2.82; inverse-CDF sampling is exact
    spec = make_project([Activity("A7", 8.0, 2.82, 875.0)], [])
    draws = np.array(
        [sample_durations(spec, int(fold(5, i)))["A7"] for i in range(2000)]
    )
    se = np.sqrt(2.82 / len(draws))
    assert abs(draws.mean() - 8.0) <= 3 * se
    assert draws.std() == pytest.approx(np.sqrt(2.82), rel=0.1)


def test_sampling_determinism(case_study):
    a = sample_durations(case_study, run_seed=777)
    b = sample_durations(case_study, run_seed=777)
    assert a == b
    assert sample_durations(case_study, run_seed=778) != a


def test_rejection_abort():
    # mean below the positivity floor with tiny variance: every draw rejected
    spec = make_project([Activity("A", 1e-8, 1e-20, 1.0)], [])
    with pytest.raises(NumericsError, match="rejected"):
        sample_durations(spec, run_seed=1)


def test_zero_variance_run_matches_baseline(zero_variance_case_study):
    trace = simulate_run(zero_variance_case_study, run_seed=42)
    pv = baseline_pv(zero_variance_case_study)
    assert trace.final_t == 13
    assert trace.final_c == 24613
    assert np.allclose(np.interp(pv.times, trace.times, trace.ev_values), pv.values)


def test_single_activity_trace_and_triad():
    # duration forced by construction: trace built directly
    times = np.array([0.0, 4.0])
    trace = RunTrace(
        durations={"A": 4.0},
        schedule={"A": (0.0, 4.0)},
        times=times,
        ev_values=np.array([0.0, 20.0]),
        ac_values=np.array([0.0, 40.0]),
        final_t=4.0,
        final_c=40.0,
    )
    triad = extract_triad(trace, 0.5)
    assert triad.t == 2.0
    assert triad.c == 20.0
    full = extract_triad(trace, 1.0)
    assert full.t == trace.final_t
    assert full.c == trace.final_c


def test_zero_variance_triad_exact(zero_variance_case_study):
    trace = simulate_run(zero_variance_case_study, run_seed=9)
    triad = extract_triad(trace, 0.5)
    assert triad.t == pytest.approx(ZERO_VAR_T50, rel=1e-12)
    assert triad.c == pytest.approx(12306.5, rel=1e-12)


def test_extract_triad_validates_level():
    trace = simulate_run(make_project([Activity("A", 2, 0, 10)], []), run_seed=0)
    with pytest.raises(ValidationError):
        extract_triad(trace, 0.0)
    with pytest.raises(ValidationError):
        extract_triad(trace, 1.5)


def test_ensemble_matches_per_run(case_study):
    ds = run_ensemble(case_study, 50, seed=31, ev_levels=[0.3, 0.8])
    for i in (0, 17, 49):
        trace = simulate_run(case_study, int(fold(31, i)))
        for level in (0.3, 0.8):
            triad = extract_triad(trace, level)
            row = np.flatnonzero((ds.run == i) & (np.abs(ds.ev_level - level) < 1e-12))[0]
            assert ds.t[row] == pytest.approx(triad.t, rel=1e-12)
            assert ds.c[row] == pytest.approx(triad.c, rel=1e-9)
            assert ds.final_t[row] == pytest.approx(trace.final_t, rel=1e-12)


def test_ensemble_calibration(ensemble_half, case_study):
    ds = ensemble_half
    se = ds.final_c.std(ddof=1) / np.sqrt(ds.n_runs)
    assert abs(ds.final_c.mean() - case_study.bac) <= 3 * se
    assert abs(ds.over_budget.mean() - 0.5) <= 0.011  # exact 1/2 by symmetry
    assert abs(ds.late.mean() - 0.7575) <= 0.015  # disjoint-path closed form


def test_curve_endpoint_identities(case_study):
    for i in range(5):
        trace = simulate_run(case_study, int(fold(77, i)))
        total = sum(a.cost_rate * trace.durations[a.id] for a in case_study.activities)
        assert trace.ac_values[-1] == pytest.approx(total, rel=1e-9)
        assert trace.ev_values[-1] == pytest.approx(case_study.bac, rel=1e-9)


def test_triads_monotone_across_levels(case_study):
    levels = [0.2, 0.5, 0.8, 1.0]
    ds = run_ensemble(case_study, 200, seed=5, ev_levels=levels)
    t = ds.t.reshape(200, len(levels))
    c = ds.c.reshape(200, len(levels))
    assert np.all(np.diff(t, axis=1) >= -1e-9)
    assert np.all(np.diff(c, axis=1) >= -1e-9)


def test_single_run_dataset(case_study):
    ds = run_ensemble(case_study, 1, seed=0, ev_levels=[0.25, 0.5])
    assert len(ds.t) == 2
    assert ds.n_runs == 1


def test_ensemble_validation(case_study):
    with pytest.raises(ValidationError):
        run_ensemble(case_study, 0, seed=1, ev_levels=[0.5])
    with pytest.raises(ValidationError):
        run_ensemble(case_study, 5, seed=1, ev_levels=[])
    with pytest.raises(ValidationError):
        run_ensemble(case_study, 5, seed=1, ev_levels=[1.2])


def test_csv_round_trip_and_determinism(tmp_path, case_study):
    ds1 = run_ensemble(case_study, 500, seed=12, ev_levels=[0.5])
    ds2 = run_ensemble(case_study, 500, seed=12, ev_levels=[0.5])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ds1.write_csv(p1)
    ds2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical reruns
    header = p1.read_text().splitlines()[0]
    assert header == "run,ev_level,t,c,final_t,final_c,over_budget,late"
    back = read_triads_csv(p1, fingerprint=ds1.fingerprint, seed=12)
    assert np.allclose(back.t, ds1.t, rtol=1e-8)
    assert np.array_equal(back.over_budget, ds1.over_budget)
    assert np.array_equal(back.late, ds1.late)


def _ref_read_triads_csv(path):
    """The genfromtxt reader the CSV reader replaced; its results must match."""
    raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    levels = tuple(np.unique(raw["ev_level"]).tolist())
    return dict(
        n_runs=len(raw) // max(len(levels), 1),
        ev_levels=levels,
        run=raw["run"].astype(np.int64),
        ev_level=raw["ev_level"].astype(float),
        t=raw["t"].astype(float),
        c=raw["c"].astype(float),
        final_t=raw["final_t"].astype(float),
        final_c=raw["final_c"].astype(float),
        over_budget=raw["over_budget"] > 0.5,
        late=raw["late"] > 0.5,
    )


def _triad_csv(path, n, columns):
    rng = np.random.default_rng(0)
    data = {
        "run": np.arange(n) % max(n // 2, 1),
        "ev_level": np.where(np.arange(n) < n // 2, 0.25, 0.5),
        "t": rng.uniform(1, 12, n),
        "c": rng.normal(1.1e4, 900, n),
        "final_t": rng.uniform(8, 20, n),
        "final_c": rng.normal(2.2e4, 1500, n) * 10.0 ** rng.integers(-3, 4, n),
        "over_budget": rng.integers(0, 2, n),
        "late": rng.integers(0, 2, n),
    }
    fmt = {"run": "%d", "over_budget": "%d", "late": "%d"}
    np.savetxt(path, np.column_stack([data[k] for k in columns]),
               fmt=[fmt.get(k, "%.9g") for k in columns], delimiter=",",
               header=",".join(columns), comments="")
    return path


@pytest.mark.parametrize("n, columns", [
    (20_000, TRIAD_CSV_HEADER.split(",")),
    (1, TRIAD_CSV_HEADER.split(",")),
    (0, TRIAD_CSV_HEADER.split(",")),
    (300, ["late", "c", "t", "run", "final_c", "over_budget", "ev_level", "final_t"]),
])
def test_csv_reader_matches_genfromtxt(tmp_path, n, columns):
    path = _triad_csv(tmp_path / "triads.csv", n, columns)
    ds = read_triads_csv(path, fingerprint="f", seed=4)
    ref = _ref_read_triads_csv(path)
    assert ds.n_runs == ref["n_runs"] and ds.ev_levels == ref["ev_levels"]
    for name in TRIAD_CSV_HEADER.split(","):
        got, want = getattr(ds, name), ref[name]
        assert got.dtype == want.dtype and got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes(), name


def test_csv_reader_names_file_missing_a_column(tmp_path):
    path = _triad_csv(tmp_path / "short.csv", 5, ["run", "ev_level", "t", "c", "final_t", "late"])
    with pytest.raises(ValidationError, match=r"short\.csv.*final_c, over_budget"):
        read_triads_csv(path)


def test_rows_at_level(case_study):
    ds = run_ensemble(case_study, 50, seed=3, ev_levels=[0.4, 0.9])
    at = ds.rows_at(0.4)
    assert at.n_runs == 50
    assert np.all(np.abs(at.ev_level - 0.4) < 1e-12)
    with pytest.raises(ValidationError):
        ds.rows_at(0.55)
    for index, level in enumerate(ds.ev_levels):  # the stride path cmd_simulate takes
        by_stride, by_mask = ds.pivot(index), ds.rows_at(level)
        assert (by_stride.n_runs, by_stride.ev_levels) == (by_mask.n_runs, by_mask.ev_levels)
        for name in TRIAD_COLUMNS:
            assert np.array_equal(getattr(by_stride, name), getattr(by_mask, name)), name


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 30))
def test_seed_chain_is_stable(seed, n):
    keys1 = [int(fold(seed, i)) for i in range(n)]
    keys2 = [int(fold(seed, i)) for i in range(n)]
    assert keys1 == keys2
    assert len(set(keys1)) == n  # no collisions across run indices


def _triad_bytes(ds):
    return [getattr(ds, name).tobytes() for name in TRIAD_COLUMNS]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 300),
       st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0]), min_size=1, max_size=3, unique=True))
def test_triads_do_not_depend_on_chunking(case_study, seed, n_runs, levels):
    want = None
    for chunk in (1, 7, 2048, 16384, n_runs + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK_RUNS", chunk)
            got = _triad_bytes(run_ensemble(case_study, n_runs, seed, levels))
        if want is None:
            want = got
        assert got == want, chunk


def test_triads_do_not_depend_on_chunking_across_chunks(case_study, monkeypatch):
    # 5000 runs: two full 2048-run chunks and a tail, against one chunk
    levels = [0.1, 0.5, 0.9]
    monkeypatch.setattr(simulate, "_CHUNK_RUNS", 16384)
    whole = _triad_bytes(run_ensemble(case_study, 5000, 3, levels))
    monkeypatch.setattr(simulate, "_CHUNK_RUNS", 2048)
    assert _triad_bytes(run_ensemble(case_study, 5000, 3, levels)) == whole
