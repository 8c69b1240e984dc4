"""Gaussian-sum oracles and BLAS-thread digests, each run as a subprocess.

Run as ``python tests/density_oracles.py CHECK [ARGS]`` with ``src`` and
``tests`` on ``PYTHONPATH``, or through ``run_check``, which sets the BLAS
thread count before numpy loads.  A check exits non-zero on the first
mismatch.

Checks:
  eval N_CENTRES N_QUERIES   densities of N_QUERIES points against N_CENTRES,
                             within 1e-12 relative of the expanded expression
  phi_sum                    SCV pair sums at several sample sizes, bit for bit
  digest                     prints a digest of a default-size ``kde_fit``, an
                             SVM fit and its predictions: no BLAS call is left
                             in scoring, so it must not depend on BLAS threads
  gam_digest                 prints a digest of spline GAM fits: the ``pinv``
                             of each smoother and the joint ``lstsq`` limit,
                             compared across BLAS thread counts
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from evmcontrol import density
from evmcontrol.gam import _joint_spline_fit, _SplineSmoother, backfit_gam, spline_spec
from evmcontrol.svm import svm_fit, svm_predict
from scalar_reference import gaussian_eval, scv_phi_sum

TESTS = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_check(*args, threads=1) -> str:
    """Run one check in a subprocess with ``threads`` BLAS threads; its stdout."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads))}
    paths = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, __file__, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _cloud(rng, n: int) -> np.ndarray:
    # (t, c)-like scales: a few time units against thousands of cost units
    return rng.multivariate_normal([5.0, 1.0e4], [[0.36, 300.0], [300.0, 6.4e5]], size=n)


def check_eval(n_centres: int, n_queries: int) -> None:
    rng = np.random.default_rng(n_centres * 7919 + n_queries)
    centres, queries = _cloud(rng, n_centres), _cloud(rng, n_queries)
    H = density.normal_scale_bandwidth(centres)
    got = density._gaussian_eval(centres, H, queries)
    want = gaussian_eval(centres, H, queries)
    worst = float(np.max(np.abs(got - want) / want))
    if not worst <= 1e-12:
        raise SystemExit(f"{n_centres}x{n_queries}: relative difference {worst:.3e} > 1e-12")


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


def check_digest() -> None:
    rng = np.random.default_rng(2024)
    fit, refs = _cloud(rng, 8000), _cloud(rng, 8000)  # kde_fit_cap, kde_reference_cap
    model = density.kde_fit(fit, density.normal_scale_bandwidth(fit), reference_points=refs)
    X = _cloud(rng, 400)
    y = X[:, 1] + rng.normal(0.0, 400.0, len(X)) > 1.0e4
    svm = svm_fit(X, y, C=1.0, gamma=0.5)
    digest = hashlib.sha256()
    for arr in (model.reference_densities, model.reference_points, svm.alphas,
                np.array([svm.bias, svm.platt_a, svm.platt_b]), svm_predict(svm, refs)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    print(digest.hexdigest())


def check_gam_digest() -> None:
    rng = np.random.default_rng(77)
    digest = hashlib.sha256()
    for n in (96, 120, 150, 960, 1500):  # inner-fold, outer-fold and final-fit sizes
        X = _cloud(rng, n)
        y = 0.5 * X[:, 1] + 2.0e3 * np.sin(2.0 * X[:, 0]) + rng.normal(0.0, 200.0, n)
        for knots in (2, 4, 8):
            model = backfit_gam(X, y, [spline_spec(knots), spline_spec(knots)])
            workers = [_SplineSmoother(X[:, j], knots) for j in range(2)]
            joint = _joint_spline_fit(workers, y, model.intercept)
            for arr in (model.fitted, np.array(model.rss_path), joint,
                        *(s.beta for s in model.smooths), *(w.beta for w in workers)):
                digest.update(np.ascontiguousarray(arr).tobytes())
    print(digest.hexdigest())


CHECKS = {"eval": check_eval, "phi_sum": check_phi_sum, "digest": check_digest,
          "gam_digest": check_gam_digest}

if __name__ == "__main__":
    name, *args = sys.argv[1:]
    CHECKS[name](*map(int, args))
