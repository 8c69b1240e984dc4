"""Oracles for the package's vectorized and blocked code.

Scalar, one-run-at-a-time simulation: ``evmcontrol.simulate.run_ensemble``
must give, run for run, the triads that
``extract_triad(simulate_run(spec, fold(seed, i)), level)`` gives here.

Gaussian sums: ``density._PairKernelSum`` must give bit for bit what
:func:`scv_phi_sum` gives as one expression over large temporaries.
``density._gaussian_eval`` whitens its points instead of expanding the
quadratic form, so it must stay within 1e-12 relative of the expanded BLAS
expression in :func:`gaussian_eval`, and within 1e-13 relative of the
extended-precision :func:`gaussian_eval_longdouble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from evmcontrol.errors import ValidationError
from evmcontrol.project import ProjectSpec, earliest_start_schedule
from evmcontrol.simulate import _activity_arrays, _sample_matrix


def sample_durations(spec: ProjectSpec, run_seed: int) -> dict[str, float]:
    """One duration vector keyed by activity id; deterministic in run_seed."""
    ids, means, sds, _, _ = _activity_arrays(spec)
    row = _sample_matrix(np.asarray([run_seed], dtype=np.uint64), means, sds)[0]
    return {i: float(v) for i, v in zip(ids, row)}


@dataclass(frozen=True)
class RunTrace:
    """One simulated realization: schedule plus cumulative AC/EV curves.

    ``times`` holds the breakpoints (every activity start/finish event);
    both curves are linear between breakpoints.
    """

    durations: dict[str, float]
    schedule: dict[str, tuple[float, float]]
    times: np.ndarray
    ev_values: np.ndarray
    ac_values: np.ndarray
    final_t: float
    final_c: float


def simulate_run(spec: ProjectSpec, run_seed: int) -> RunTrace:
    durations = sample_durations(spec, run_seed)
    schedule = earliest_start_schedule(spec, durations)
    events = {0.0}
    for s, f in schedule.values():
        events.add(s)
        events.add(f)
    times = np.array(sorted(events))
    ev = np.zeros_like(times)
    ac = np.zeros_like(times)
    for a in spec.activities:
        s, f = schedule[a.id]
        frac = np.clip((times - s) / (f - s), 0.0, 1.0)
        ev += a.budget * frac
        ac += a.cost_rate * durations[a.id] * frac
    final_t = max(f for _, f in schedule.values())
    final_c = float(sum(a.cost_rate * durations[a.id] for a in spec.activities))
    return RunTrace(
        durations=durations,
        schedule=schedule,
        times=times,
        ev_values=ev,
        ac_values=ac,
        final_t=float(final_t),
        final_c=final_c,
    )


@dataclass(frozen=True)
class Triad:
    ev_level: float
    t: float
    c: float
    final_t: float
    final_c: float


def extract_triad(trace: RunTrace, ev_level: float) -> Triad:
    """Earliest EV-curve crossing of ``ev_level * BAC`` and the AC there."""
    if not 0 < ev_level <= 1:
        raise ValidationError("ev_level must lie in (0, 1]")
    bac = float(trace.ev_values[-1])
    if bac == 0:
        return Triad(ev_level, 0.0, 0.0, trace.final_t, trace.final_c)
    target = ev_level * bac
    idx = int(np.searchsorted(trace.ev_values, target, side="left"))
    idx = min(max(idx, 1), len(trace.times) - 1)
    ev_lo, ev_hi = trace.ev_values[idx - 1], trace.ev_values[idx]
    t_lo, t_hi = trace.times[idx - 1], trace.times[idx]
    if ev_hi > ev_lo:
        t = t_lo + (target - ev_lo) * (t_hi - t_lo) / (ev_hi - ev_lo)
    else:
        t = t_hi
    c = float(np.interp(t, trace.times, trace.ac_values))
    return Triad(ev_level, float(t), c, trace.final_t, trace.final_c)


def project_finish(schedule: Mapping[str, tuple[float, float]]) -> float:
    return max(fin for _, fin in schedule.values())


def gaussian_eval(centers: np.ndarray, H: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mean Gaussian kernel density, one expression per 4M-element chunk."""
    det = H[0, 0] * H[1, 1] - H[0, 1] ** 2
    A = np.array([[H[1, 1], -H[0, 1]], [-H[0, 1], H[0, 0]]]) / det
    norm = 1.0 / (2 * np.pi * np.sqrt(det) * len(centers))
    ca = centers @ A
    rc = (ca * centers).sum(axis=1)
    out = np.empty(len(queries))
    chunk = max(1, int(4_000_000 // max(len(centers), 1)))
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        qa = q @ A
        rq = (qa * q).sum(axis=1)
        sq = rq[:, None] + rc[None, :] - 2.0 * (qa @ centers.T)
        np.maximum(sq, 0.0, out=sq)
        with np.errstate(under="ignore"):
            out[start : start + chunk] = np.exp(-0.5 * sq).sum(axis=1) * norm
    return out


def gaussian_eval_longdouble(centers: np.ndarray, H: np.ndarray, queries: np.ndarray,
                             chunk: int = 50) -> np.ndarray:
    """Mean Gaussian kernel density in ``np.longdouble``, ``chunk`` queries at a time."""
    L = np.longdouble
    h00, h01, h11 = L(H[0, 0]), L(H[0, 1]), L(H[1, 1])
    det = h00 * h11 - h01 * h01
    cen = centers.astype(L)
    out = np.empty(len(queries), dtype=L)
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk].astype(L)
        du = q[:, None, 0] - cen[None, :, 0]
        dv = q[:, None, 1] - cen[None, :, 1]
        quad = (h11 * du * du - 2 * h01 * du * dv + h00 * dv * dv) / det
        out[start : start + chunk] = np.exp(-quad / 2).sum(axis=1)
    return out / (2 * L(np.pi) * np.sqrt(det) * len(centers))


def scv_phi_sum(pts: np.ndarray, S: np.ndarray) -> float:
    """Sum over all ordered pairs (incl. i = j) of the N(0, S) density."""
    n = len(pts)
    iu, ju = np.triu_indices(n, k=1)
    du = pts[iu, 0] - pts[ju, 0]
    dv = pts[iu, 1] - pts[ju, 1]
    p_uu, p_uv, p_vv = du * du, du * dv, dv * dv
    det = S[0, 0] * S[1, 1] - S[0, 1] ** 2
    if not np.isfinite(det) or det <= 0:
        return np.inf
    a00 = S[1, 1] / det
    a11 = S[0, 0] / det
    a01 = -S[0, 1] / det
    q = a00 * p_uu + 2 * a01 * p_uv + a11 * p_vv
    with np.errstate(under="ignore"):
        total = n + 2.0 * np.exp(-0.5 * q).sum()
    return total / (2 * np.pi * np.sqrt(det))
