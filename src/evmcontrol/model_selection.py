"""k-fold and nested cross-validation.

Plain k-fold CV scores one parameterization; nested CV wraps an inner
selection loop (choose the grid point with the lowest inner CV error) in
an outer loop whose test folds never touch the inner search, giving an
unbiased estimate of the selected model's error.  Reporting the inner
winner's score instead is optimistically biased; ``SelectionReport``
retains both so the bias is visible.

Families are thin adapters: ``fit(X, y, params) -> predict`` where
``predict`` returns class labels (classification, scored by error rate)
or values (regression, scored by mean squared error).  Ties in the inner
loop go to the lowest grid index, so grids should be ordered from the
simplest parameterization to the most flexible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .rng import generator, mix_seed


@dataclass(frozen=True)
class Family:
    name: str
    kind: str  # "classifier" | "regressor"
    fit: Callable[[np.ndarray, np.ndarray, Mapping], Callable[[np.ndarray], np.ndarray]]

    def score(self, predictions: np.ndarray, truth: np.ndarray) -> float:
        if self.kind == "classifier":
            return float((np.asarray(predictions).astype(bool) != truth.astype(bool)).mean())
        return float(((np.asarray(predictions, float) - truth) ** 2).mean())


@dataclass(frozen=True)
class FoldPlan:
    n: int
    k: int
    seed: int
    assignment: np.ndarray
    stratified: bool = False

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train, test) row indices for one fold."""
        test = np.flatnonzero(self.assignment == fold)
        train = np.flatnonzero(self.assignment != fold)
        return train, test


def kfold_split(n: int, k: int, seed: int, stratify=None) -> FoldPlan:
    """Shuffled fold assignment; sizes differ by at most one.

    With ``stratify`` (a label vector) each class is dealt round-robin
    across folds, keeping per-fold class counts within one of each other.
    """
    if k < 2:
        raise ValidationError("k must be at least 2")
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of rows n={n}")
    rng = generator(mix_seed(seed, n, k))
    assignment = np.empty(n, dtype=np.int64)
    if stratify is None:
        perm = rng.permutation(n)
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        stop = np.cumsum(sizes)
        start = stop - sizes
        for fold in range(k):
            assignment[perm[start[fold] : stop[fold]]] = fold
        return FoldPlan(n=n, k=k, seed=seed, assignment=assignment)
    labels = np.asarray(stratify)
    if len(labels) != n:
        raise ValidationError("stratify labels must have length n")
    offset = 0
    for value in np.unique(labels):
        rows = np.flatnonzero(labels == value)
        rows = rows[rng.permutation(len(rows))]
        assignment[rows] = (offset + np.arange(len(rows))) % k
        offset += len(rows)
    return FoldPlan(n=n, k=k, seed=seed, assignment=assignment, stratified=True)


@dataclass(frozen=True)
class CvResult:
    mean_score: float
    fold_scores: np.ndarray


def cross_validate(X, y, family: Family, params: Mapping, plan: FoldPlan) -> CvResult:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(X) != plan.n:
        raise ValidationError("fold plan was built for a different number of rows")
    scores = np.empty(plan.k)
    for fold in range(plan.k):
        train, test = plan.fold_indices(fold)
        try:
            predict = family.fit(X[train], y[train], params)
        except Exception as exc:
            raise type(exc)(f"training failed in fold {fold}: {exc}") from exc
        scores[fold] = family.score(predict(X[test]), y[test])
    return CvResult(mean_score=float(scores.mean()), fold_scores=scores)


@dataclass(frozen=True)
class SelectionReport:
    """Nested-CV outcome for one family over one parameter grid."""

    family: str
    grid: tuple[dict, ...]
    inner_scores: np.ndarray          # (k_outer, len(grid))
    chosen: tuple[int, ...]           # winning grid index per outer fold
    inner_selected_scores: np.ndarray # winner's inner score per outer fold
    outer_scores: np.ndarray          # held-out score of the refit winner
    outer_test_indices: tuple[np.ndarray, ...] = field(repr=False, default=())

    @property
    def outer_mean(self) -> float:
        return float(self.outer_scores.mean())

    @property
    def outer_std(self) -> float:
        return float(self.outer_scores.std(ddof=1)) if len(self.outer_scores) > 1 else 0.0

    def best_params(self) -> dict:
        """Overall pick: the lowest-index grid point among fold winners with
        the most wins (majority vote, ties toward the simplest)."""
        counts = np.bincount(self.chosen, minlength=len(self.grid))
        return dict(self.grid[int(counts.argmax())])


def nested_cv(
    X,
    y,
    family: Family,
    param_grid: Sequence[Mapping],
    k_outer: int = 5,
    k_inner: int = 5,
    seed: int = 0,
    stratified: bool | None = None,
) -> SelectionReport:
    """Inner loop selects grid parameters, outer loop scores the selection.

    Classification targets are stratified by default.  Inner fold plans are
    seeded per outer fold, so the whole report is deterministic in
    ``(data, grid, k_outer, k_inner, seed)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    grid = tuple(dict(p) for p in param_grid)
    if not grid:
        raise ValidationError("parameter grid must not be empty")
    if stratified is None:
        stratified = family.kind == "classifier"
    outer_plan = kfold_split(len(y), k_outer, seed, stratify=y if stratified else None)
    inner_scores = np.empty((k_outer, len(grid)))
    chosen: list[int] = []
    outer_scores = np.empty(k_outer)
    inner_selected = np.empty(k_outer)
    test_sets = []
    for fold in range(k_outer):
        train, test = outer_plan.fold_indices(fold)
        inner_plan = kfold_split(
            len(train),
            k_inner,
            mix_seed(seed, fold + 1),
            stratify=y[train] if stratified else None,
        )
        for g, params in enumerate(grid):
            inner_scores[fold, g] = cross_validate(
                X[train], y[train], family, params, inner_plan
            ).mean_score
        winner = int(np.argmin(inner_scores[fold]))  # ties -> lowest index
        chosen.append(winner)
        inner_selected[fold] = inner_scores[fold, winner]
        predict = family.fit(X[train], y[train], grid[winner])
        outer_scores[fold] = family.score(predict(X[test]), y[test])
        test_sets.append(test)
    return SelectionReport(
        family=family.name,
        grid=grid,
        inner_scores=inner_scores,
        chosen=tuple(chosen),
        inner_selected_scores=inner_selected,
        outer_scores=outer_scores,
        outer_test_indices=tuple(test_sets),
    )
