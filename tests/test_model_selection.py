import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.classify import qda_fit, qda_predict
from evmcontrol.errors import ValidationError
from evmcontrol.model_selection import (
    Family,
    cross_validate,
    kfold_split,
    nested_cv,
)
from evmcontrol.svm import svm_fit, svm_predict


def qda_family():
    return Family(
        name="qda",
        kind="classifier",
        fit=lambda X, y, p: (lambda m: (lambda Q: qda_predict(m, Q)[:, 1] > 0.5))(qda_fit(X, y)),
    )


def svm_family():
    return Family(
        name="svm",
        kind="classifier",
        fit=lambda X, y, p: (
            lambda m: (lambda Q: svm_predict(m, Q) > 0.5)
        )(svm_fit(X, y, C=p["C"], gamma=p["gamma"])),
    )


def mean_family():
    return Family(
        name="mean",
        kind="regressor",
        fit=lambda X, y, p: (lambda mu: (lambda Q: np.full(len(Q), mu)))(y.mean()),
    )


def constant_family(label):
    return Family(
        name="const",
        kind="classifier",
        fit=lambda X, y, p: (lambda Q: np.full(len(Q), label, dtype=bool)),
    )


def test_fold_sizes_even():
    plan = kfold_split(100, 5, seed=1)
    sizes = np.bincount(plan.assignment)
    assert sizes.tolist() == [20] * 5


def test_fold_sizes_remainder():
    plan = kfold_split(7, 3, seed=1)
    assert sorted(np.bincount(plan.assignment).tolist(), reverse=True) == [3, 2, 2]


def test_stratified_counts():
    y = np.repeat([True, False], [60, 40])
    plan = kfold_split(100, 5, seed=9, stratify=y)
    for fold in range(5):
        positives = y[plan.assignment == fold].sum()
        assert abs(positives - 12) <= 1


def test_fold_determinism():
    a = kfold_split(53, 4, seed=77)
    b = kfold_split(53, 4, seed=77)
    assert np.array_equal(a.assignment, b.assignment)
    c = kfold_split(53, 4, seed=78)
    assert not np.array_equal(a.assignment, c.assignment)


def test_k_bounds():
    with pytest.raises(ValidationError):
        kfold_split(3, 5, seed=0)
    with pytest.raises(ValidationError):
        kfold_split(10, 1, seed=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 200), st.integers(2, 8), st.integers(0, 1000))
def test_fold_partition_property(n, k, seed):
    if k > n:
        k = n
    plan = kfold_split(n, k, seed)
    sizes = np.bincount(plan.assignment, minlength=k)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    train, test = plan.fold_indices(0)
    assert set(train) | set(test) == set(range(n))
    assert not set(train) & set(test)


def test_cv_constant_labels():
    X = np.random.default_rng(0).standard_normal((40, 2))
    y = np.ones(40, dtype=bool)
    res = cross_validate(X, y, constant_family(True), {}, kfold_split(40, 5, seed=2))
    assert res.mean_score == 0.0


def test_cv_majority_baseline():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((1000, 2))
    y = rng.random(1000) < 0.3
    res = cross_validate(X, y, constant_family(False), {}, kfold_split(1000, 5, seed=3))
    assert res.mean_score == pytest.approx(0.30, abs=0.02)


def test_cv_mean_predictor_mse():
    rng = np.random.default_rng(8)
    n = 10000
    X = rng.standard_normal((n, 2))
    y = rng.standard_normal(n) * 2.0
    res = cross_validate(X, y, mean_family(), {}, kfold_split(n, 5, seed=4))
    assert res.mean_score == pytest.approx(y.var(ddof=1), rel=0.05)


def test_cv_propagates_failures_with_fold():
    def broken(X, y, p):
        raise ValueError("nope")

    fam = Family(name="broken", kind="classifier", fit=broken)
    X = np.zeros((10, 2))
    y = np.arange(10) % 2 == 0
    with pytest.raises(ValueError, match="fold 0"):
        cross_validate(X, y, fam, {}, kfold_split(10, 5, seed=0))


def test_nested_single_setting_equals_plain_cv():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((120, 2))
    y = X[:, 0] + 0.5 * rng.standard_normal(120) > 0
    fam = qda_family()
    report = nested_cv(X, y, fam, [{}], k_outer=5, k_inner=3, seed=11)
    plan = kfold_split(120, 5, seed=11, stratify=y)
    plain = cross_validate(X, y, fam, {}, plan)
    assert report.outer_scores == pytest.approx(plain.fold_scores)
    assert report.outer_mean == pytest.approx(plain.mean_score)


def test_nested_cv_near_bayes_with_matched_family():
    rng = np.random.default_rng(6)
    n = 5000
    X = np.vstack([rng.standard_normal((n // 2, 2)),
                   rng.standard_normal((n // 2, 2)) + [2, 0]])
    y = np.repeat([False, True], n // 2)
    report = nested_cv(X, y, qda_family(), [{}], k_outer=5, k_inner=3, seed=5)
    from scipy.stats import norm

    assert abs(report.outer_mean - norm.cdf(-1)) <= 0.02


def test_nested_cv_outer_test_never_in_inner():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((80, 2))
    y = rng.random(80) > 0.5
    report = nested_cv(X, y, qda_family(), [{}], k_outer=4, k_inner=3, seed=2)
    all_test = np.concatenate(report.outer_test_indices)
    assert len(all_test) == 80
    assert len(set(all_test.tolist())) == 80  # partition: no row in two outer tests


def test_nested_cv_selection_bias_direction():
    """On pure-noise labels the inner winner's score is optimistic: lower on
    average than the honest outer score."""
    rng = np.random.default_rng(14)
    grid = [{"C": 1.0, "gamma": 0.5}, {"C": 1.0, "gamma": 2.0},
            {"C": 10.0, "gamma": 0.5}, {"C": 10.0, "gamma": 2.0}]
    inner_means, outer_means = [], []
    for seed in range(10):
        X = rng.standard_normal((90, 2))
        y = rng.random(90) > 0.5
        report = nested_cv(X, y, svm_family(), grid, k_outer=3, k_inner=3, seed=seed)
        inner_means.append(report.inner_selected_scores.mean())
        outer_means.append(report.outer_mean)
    assert np.mean(inner_means) < np.mean(outer_means)


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        nested_cv(np.zeros((10, 2)), np.zeros(10, bool), qda_family(), [], seed=0)
