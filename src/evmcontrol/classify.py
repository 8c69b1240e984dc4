"""Over-run classification on (t, c) features.

The triad cloud at one pivot level becomes a binary problem: did the run
finish over budget (final cost above BAC) or late (final duration above
PD)?  ``TriadDataset.over_budget`` and ``TriadDataset.late`` are the labels.
This module holds the Gaussian class-conditional classifier (quadratic
discriminant analysis) and the probability-0.5 decision-boundary extraction
shared by all classifiers.

QDA posterior, computed in log space for numerical safety:

    P(k | x) = pi_k N(x; mu_k, S_k) / sum_l pi_l N(x; mu_l, S_l)

Each class covariance is ridge-stabilized with 1e-6 * trace/2 * I when its
condition number exceeds 1e8 (degenerate clouds, e.g. a constant feature),
or with 1e-6 * I when its trace is 0 (both features constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import marching_squares
from .quadform import sq_dists, whiten

RIDGE_CONDITION = 1e8
RIDGE_FACTOR = 1e-6


@dataclass(frozen=True)
class QdaModel:
    priors: np.ndarray      # (2,)
    means: np.ndarray       # (2, 2)
    covariances: np.ndarray # (2, 2, 2)
    ridged: tuple[bool, bool]


def qda_fit(X, y) -> QdaModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).astype(bool)
    priors = np.empty(2)
    means = np.empty((2, 2))
    covs = np.empty((2, 2, 2))
    ridged = []
    for k, mask in enumerate((~y, y)):
        n_k = int(mask.sum())
        if n_k < 3:
            raise ValidationError(f"class {k} has {n_k} points; QDA needs at least 3 per class")
        Xk = X[mask]
        priors[k] = n_k / len(y)
        means[k] = Xk.mean(axis=0)
        cov = np.cov(Xk.T, ddof=1)
        hit = np.linalg.cond(cov) > RIDGE_CONDITION
        if hit:
            # a zero-spread class has trace 0: ridge it on the unit scale
            scale = np.trace(cov) / 2.0 or 1.0
            cov = cov + RIDGE_FACTOR * scale * np.eye(2)
        covs[k] = cov
        ridged.append(bool(hit))
    return QdaModel(priors=priors, means=means, covariances=covs, ridged=tuple(ridged))


def qda_predict(model: QdaModel, X) -> np.ndarray:
    """Posterior class probabilities, columns [P(class 0), P(class 1)]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    log_post = np.empty((len(X), 2))
    for k in range(2):
        cov = model.covariances[k]
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        quad = sq_dists(*whiten(X, cov), *whiten(model.means[k : k + 1], cov))[:, 0]
        log_post[:, k] = np.log(model.priors[k]) - 0.5 * np.log(det) - 0.5 * quad
    log_post -= log_post.max(axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class DecisionBoundary:
    """p = 0.5 level set on a grid, with the training cloud's convex hull:
    the boundary is trusted only inside it."""

    polylines: tuple[np.ndarray, ...]
    hull: np.ndarray


def decision_boundary(
    predict_positive: Callable[[np.ndarray], np.ndarray],
    t_grid: Sequence[float],
    c_grid: Sequence[float],
    hull,
) -> DecisionBoundary:
    """Extract the 0.5 level set of a probability predictor over a grid.

    ``hull`` is the training cloud's convex hull, counter-clockwise as
    :func:`geometry.convex_hull` returns it.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    c_grid = np.asarray(c_grid, dtype=float)
    tt, cc = np.meshgrid(t_grid, c_grid, indexing="ij")
    flat = np.column_stack([tt.ravel(), cc.ravel()])
    prob = np.asarray(predict_positive(flat), dtype=float).reshape(tt.shape)
    polylines = marching_squares(t_grid, c_grid, prob, 0.5)
    return DecisionBoundary(polylines=tuple(polylines), hull=np.asarray(hull, dtype=float))
