"""Monte Carlo ensemble generation and (EV, t, c) triad extraction.

Each run samples every activity duration from ``Normal(mean, variance)``
(draws below ``EPS_DURATION`` are rejected and redrawn), schedules the run
earliest-start, and accrues two piecewise-linear curves over the actual
intervals: actual cost at ``cost_rate`` per time unit, and earned value at
``budget / sampled_duration`` per time unit so that every activity
contributes exactly its budget when it completes.

For an earned-value pivot level the triad ``(level, t, c)`` records the
earliest time the EV curve reaches ``level * BAC`` (linear interpolation
inside the breakpoint segment containing the crossing) together with the
actual cost at that time.  Final duration and final cost of the run are
carried along and labelled against the baseline (over budget / late).

Randomness is counter-based (see :mod:`evmcontrol.rng`): run ``i`` of an
ensemble uses the key ``fold(seed, i)``, activity ``j`` (in lexicographic
id order) the key ``fold(run_key, j)``, and rejection attempt ``a`` the key
``fold(act_key, a)``.  Normals come from inverting the standard normal CDF
on those uniforms, so ensembles are reproducible bit for bit regardless of
chunking, threading or row order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import csvio
from .errors import NumericsError, ValidationError
from .project import ProjectSpec
from .rng import fold, unit_uniform

EPS_DURATION = 1e-6
MAX_REJECTIONS = 1000

TRIAD_CSV_HEADER = "run,ev_level,t,c,final_t,final_c,over_budget,late"
# the CSV columns, which are also the names of TriadDataset's row fields
TRIAD_COLUMNS = tuple(TRIAD_CSV_HEADER.split(","))

_CHUNK_RUNS = 2048


def _activity_arrays(spec: ProjectSpec):
    """Means, std devs, rates and budgets in canonical (sorted-id) order."""
    ids = spec.sorted_ids()
    by_id = {a.id: a for a in spec.activities}
    means = np.array([by_id[i].mean_duration for i in ids])
    sds = np.array([np.sqrt(by_id[i].variance) for i in ids])
    rates = np.array([by_id[i].cost_rate for i in ids])
    budgets = means * rates
    return ids, means, sds, rates, budgets


def _sample_matrix(run_keys: np.ndarray, means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """Durations for each (run, activity); rejection below EPS_DURATION."""
    from scipy.special import ndtri  # scipy loads only where a command uses it

    n, m = len(run_keys), len(means)
    act_keys = fold(run_keys[:, None], np.arange(m)[None, :])
    d = means + sds * ndtri(unit_uniform(fold(act_keys, 0)))
    bad = d < EPS_DURATION
    attempt = 1
    mean_grid = np.broadcast_to(means, (n, m))
    sd_grid = np.broadcast_to(sds, (n, m))
    while bad.any():
        if attempt > MAX_REJECTIONS:
            run_ix, act_ix = np.argwhere(bad)[0]
            raise NumericsError(
                f"duration sampling rejected {MAX_REJECTIONS} times "
                f"(run {run_ix}, activity column {act_ix}); "
                "the duration distribution has almost no mass above zero"
            )
        redraw = ndtri(unit_uniform(fold(act_keys[bad], attempt)))
        d[bad] = mean_grid[bad] + sd_grid[bad] * redraw
        attempt += 1
        bad = d < EPS_DURATION
    return d


@dataclass(frozen=True)
class TriadDataset:
    """Ensemble triads at fixed EV pivots, labelled against the baseline.

    Rows are ordered run-major (all pivot levels of run 0, then run 1, ...).
    """

    fingerprint: str
    seed: int
    n_runs: int
    ev_levels: tuple[float, ...]
    run: np.ndarray
    ev_level: np.ndarray
    t: np.ndarray
    c: np.ndarray
    final_t: np.ndarray
    final_c: np.ndarray
    over_budget: np.ndarray
    late: np.ndarray

    def pivot(self, index: int) -> "TriadDataset":
        """Rows of pivot ``ev_levels[index]``, taken by stride.

        Valid for the run-major rows :func:`run_ensemble` returns, where the
        pivot's rows are every ``len(ev_levels)``-th row from ``index``.
        """
        return self._subset(slice(index, None, len(self.ev_levels)), self.ev_levels[index])

    def _subset(self, rows, level: float) -> "TriadDataset":
        run = self.run[rows]
        return replace(self, n_runs=len(run), ev_levels=(level,),
                       **{name: getattr(self, name)[rows] for name in TRIAD_COLUMNS})

    def write_csv(self, path: str | Path) -> None:
        """Write the rows under ``TRIAD_CSV_HEADER``: ints as ``%d``, floats
        as ``%.9g``, booleans as ``0``/``1``.  A file's single pivot level is
        formatted once, not once per row."""
        levels = self.ev_level.astype(np.float64)
        bits = levels.view(np.int64)
        constant = bits.size > 0 and bool((bits == bits[0]).all())
        csvio.write_csv(path, TRIAD_CSV_HEADER, [
            ("%d", self.run),
            ("%.9g", levels[0] if constant else levels),
            ("%.9g", self.t),
            ("%.9g", self.c),
            ("%.9g", self.final_t),
            ("%.9g", self.final_c),
            ("%d", self.over_budget),
            ("%d", self.late),
        ])


def read_triads_csv(path: str | Path, fingerprint: str = "", seed: int = 0) -> TriadDataset:
    """Read a triad CSV, mapping its columns by the file's own header."""
    with open(path) as fh:
        names = [name.strip() for name in fh.readline().split(",")]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", ndmin=2)
    values = values.reshape(-1, len(names))  # header only: (0, 1) -> (0, columns)
    missing = [name for name in TRIAD_COLUMNS if name not in names]
    if missing:
        raise ValidationError(f"{path}: triad CSV lacks column(s) {', '.join(missing)}")
    raw = {name: values[:, names.index(name)] for name in TRIAD_COLUMNS}
    levels = tuple(np.unique(raw["ev_level"]).tolist())
    n_levels = max(len(levels), 1)
    return TriadDataset(
        fingerprint=fingerprint,
        seed=seed,
        n_runs=len(values) // n_levels,
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


def run_ensemble(
    spec: ProjectSpec,
    n_runs: int,
    seed: int,
    ev_levels: Sequence[float],
) -> TriadDataset:
    """Simulate ``n_runs`` independent realizations and extract their triads.

    Fully vectorized over runs; results are identical to calling the scalar
    oracle ``simulate_run(spec, fold(seed, i))`` in ``tests/scalar_reference.py``
    run by run.
    """
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    levels = [float(l) for l in ev_levels]
    if not levels:
        raise ValidationError("ev_levels must not be empty")
    for l in levels:
        if not 0 < l <= 1:
            raise ValidationError(f"ev_level {l} outside (0, 1]")

    ids, means, sds, rates, budgets = _activity_arrays(spec)
    m = len(ids)
    pos = {i: j for j, i in enumerate(ids)}
    preds = spec.predecessors()
    topo = [pos[i] for i in spec.topological_order()]
    pred_pos = {pos[i]: [pos[p] for p in preds[i]] for i in spec.ids}

    run_keys = fold(np.uint64(seed & ((1 << 64) - 1)), np.arange(n_runs))
    D = _sample_matrix(run_keys, means, sds)

    S = np.zeros_like(D)
    for j in topo:
        if pred_pos[j]:
            S[:, j] = np.maximum.reduce([S[:, p] + D[:, p] for p in pred_pos[j]])
    F = S + D
    final_t = F.max(axis=1)
    final_c = D @ rates

    bac, pd_ = spec.bac, spec.pd
    n_levels = len(levels)
    t_all = np.empty((n_runs, n_levels))
    c_all = np.empty((n_runs, n_levels))
    for start in range(0, n_runs, _CHUNK_RUNS):
        stop = min(start + _CHUNK_RUNS, n_runs)
        Sc, Dc, Fc = S[start:stop], D[start:stop], F[start:stop]
        T = np.sort(np.concatenate([Sc, Fc], axis=1), axis=1)
        frac = np.clip((T[:, :, None] - Sc[:, None, :]) / Dc[:, None, :], 0.0, 1.0)
        EV = frac @ budgets
        rows = np.arange(stop - start)
        for li, level in enumerate(levels):
            if bac == 0:
                t_all[start:stop, li] = 0.0
                c_all[start:stop, li] = 0.0
                continue
            target = level * bac
            idx = np.clip((EV < target).sum(axis=1), 1, T.shape[1] - 1)
            ev_lo, ev_hi = EV[rows, idx - 1], EV[rows, idx]
            t_lo, t_hi = T[rows, idx - 1], T[rows, idx]
            den = ev_hi - ev_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                t_star = np.where(den > 0, t_lo + (target - ev_lo) * (t_hi - t_lo) / den, t_hi)
            t_all[start:stop, li] = t_star
            c_all[start:stop, li] = (np.clip(t_star[:, None] - Sc, 0.0, Dc) * rates).sum(axis=1)

    reps = np.repeat(np.arange(n_runs, dtype=np.int64), n_levels)
    return TriadDataset(
        fingerprint=spec.fingerprint(),
        seed=int(seed),
        n_runs=n_runs,
        ev_levels=tuple(levels),
        run=reps,
        ev_level=np.tile(np.asarray(levels), n_runs),
        t=t_all.reshape(-1),
        c=c_all.reshape(-1),
        final_t=np.repeat(final_t, n_levels),
        final_c=np.repeat(final_c, n_levels),
        over_budget=np.repeat(final_c > bac, n_levels),
        late=np.repeat(final_t > pd_, n_levels),
    )
