"""Bitwise comparisons of the blocked Gaussian sums against their oracles.

Run as ``python tests/density_oracles.py CHECK [ARGS]`` with ``src`` and
``tests`` on ``PYTHONPATH``; ``test_density.py`` runs each check in a
subprocess with one BLAS thread, since threaded BLAS may round a matrix
product differently from one run to the next.  Exits non-zero on the first
mismatch.

Checks:
  eval N_CENTRES N_QUERIES   densities of N_QUERIES points against N_CENTRES
  tails                      every last-block length, and a single query
  phi_sum                    SCV pair sums at several sample sizes
"""

from __future__ import annotations

import sys

import numpy as np

from evmcontrol import density
from scalar_reference import gaussian_eval, scv_phi_sum


def _cloud(rng, n: int) -> np.ndarray:
    # (t, c)-like scales: a few time units against thousands of cost units
    return rng.multivariate_normal([5.0, 1.0e4], [[0.36, 300.0], [300.0, 6.4e5]], size=n)


def _assert_same(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        bad = int(np.sum(got != want)) if got.shape == want.shape else "shape"
        raise SystemExit(f"{what}: {bad} value(s) differ from the oracle")


def check_eval(n_centres: int, n_queries: int) -> None:
    rng = np.random.default_rng(n_centres * 7919 + n_queries)
    centres, queries = _cloud(rng, n_centres), _cloud(rng, n_queries)
    H = density.normal_scale_bandwidth(centres)
    _assert_same(density._gaussian_eval(centres, H, queries),
                 gaussian_eval(centres, H, queries), f"{n_centres}x{n_queries}")


def check_tails() -> None:
    rng = np.random.default_rng(5)
    for n_centres in (8000, 1500):
        centres = _cloud(rng, n_centres)
        H = density.normal_scale_bandwidth(centres)
        rows = max(1, density._EVAL_BLOCK // (density._GEMM_ROWS * n_centres)) * density._GEMM_ROWS
        queries = _cloud(rng, 3 * rows + 2)
        # two full blocks, then every tail from 1 row (folded into a block
        # of rows + 1) to rows + 1; and a single query
        for n in [1, *range(2 * rows + 1, 3 * rows + 2)]:
            q = queries[:n]
            _assert_same(density._gaussian_eval(centres, H, q), gaussian_eval(centres, H, q),
                         f"{n_centres} centres, {n} queries")


def check_phi_sum() -> None:
    rng = np.random.default_rng(11)
    for n, n_bandwidths in ((500, 40), (777, 10), (1000, 40), (2000, 6)):
        pts = _cloud(rng, n)
        G = density.normal_scale_bandwidth(pts)
        phi_sum = density._PairKernelSum(pts)
        for k in range(n_bandwidths):
            S = G * (0.2 + 0.1 * k)
            S[0, 1] = S[1, 0] = S[0, 1] * (1.0 - 0.02 * k)
            got, want = phi_sum(S), scv_phi_sum(pts, S)
            if got != want:
                raise SystemExit(f"phi_sum at n={n}, bandwidth {k}: {got!r} != {want!r}")


CHECKS = {"eval": check_eval, "tails": check_tails, "phi_sum": check_phi_sum}

if __name__ == "__main__":
    name, *args = sys.argv[1:]
    CHECKS[name](*map(int, args))
