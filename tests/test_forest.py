import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.errors import ValidationError
from evmcontrol.forest import ForestModel, _Tree, forest_fit, forest_predict
from evmcontrol.model_selection import Family, cross_validate, kfold_split
from evmcontrol.rng import generator


def separable_data(n=200, seed=7):
    rng = np.random.default_rng(seed)
    t = np.concatenate([rng.uniform(0, 4.5, n // 2), rng.uniform(5.5, 10, n // 2)])
    X = np.column_stack([t, rng.uniform(0, 1, n)])
    y = np.repeat([False, True], n // 2)
    return X, y


def test_separable_threshold_problem():
    X, y = separable_data()
    model = forest_fit(X, y, ntree=100, mtry=1, min_node=5, seed=2)
    pred = forest_predict(model, X)
    assert ((pred[:, 1] > 0.5) == y).mean() == 1.0
    assert model.oob_error <= 0.02


def test_probabilities_are_vote_fractions():
    X, y = separable_data(80)
    model = forest_fit(X, y, ntree=40, mtry=1, min_node=5, seed=0)
    p = forest_predict(model, X)
    assert np.allclose(p.sum(axis=1), 1.0)
    votes = p * 40
    assert np.allclose(votes, np.round(votes), atol=1e-9)  # multiples of 1/ntree


def test_duplicated_points_leave_votes_stable():
    # duplicating every row (with the leaf-size floor scaled to match the
    # doubled row count) leaves vote fractions within the Monte Carlo noise
    # floor measured by an independent refit of the original data
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 2))
    y = X[:, 0] + 0.5 * rng.standard_normal(60) > 0
    q = rng.standard_normal((25, 2))
    m1 = forest_fit(X, y, ntree=800, mtry=1, min_node=5, seed=11)
    m2 = forest_fit(np.vstack([X, X]), np.concatenate([y, y]),
                    ntree=800, mtry=1, min_node=10, seed=12)
    m3 = forest_fit(X, y, ntree=800, mtry=1, min_node=5, seed=13)
    p1 = forest_predict(m1, q)[:, 1]
    p2 = forest_predict(m2, q)[:, 1]
    p3 = forest_predict(m3, q)[:, 1]
    noise_floor = np.abs(p1 - p3).max()
    assert np.abs(p1 - p2).max() <= noise_floor + 0.05
    assert np.abs(p1 - p2).mean() <= 0.05


def test_oob_close_to_cross_validation():
    rng = np.random.default_rng(9)
    n = 600
    X = rng.standard_normal((n, 2))
    y = (X[:, 0] + 0.8 * rng.standard_normal(n)) > 0
    model = forest_fit(X, y, ntree=150, mtry=1, min_node=5, seed=3)

    fam = Family(
        name="forest",
        kind="classifier",
        fit=lambda Xt, yt, params: (
            lambda m: (lambda Q: forest_predict(m, Q)[:, 1] > 0.5)
        )(forest_fit(Xt, yt, ntree=150, mtry=1, min_node=5, seed=3)),
    )
    cv = cross_validate(X, y, fam, {}, kfold_split(n, 5, seed=21, stratify=y))
    assert abs(model.oob_error - cv.mean_score) <= 0.06


def test_feature_order_stability():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((150, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.6 * rng.standard_normal(150)) > 0
    m1 = forest_fit(X, y, ntree=800, mtry=1, min_node=5, seed=4)
    m2 = forest_fit(X[:, ::-1], y, ntree=800, mtry=1, min_node=5, seed=5)
    q = rng.standard_normal((20, 2))
    p1 = forest_predict(m1, q)[:, 1]
    p2 = forest_predict(m2, q[:, ::-1])[:, 1]
    assert np.abs(p1 - p2).max() <= 0.06


def test_single_class_training_allowed():
    X = np.arange(20, dtype=float).reshape(10, 2)
    y = np.zeros(10, dtype=bool)
    model = forest_fit(X, y, ntree=20, mtry=1, min_node=5, seed=0)
    assert forest_predict(model, X)[:, 1].max() == 0.0
    assert model.oob_error == 0.0


def test_impure_leaves_obey_min_node():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((300, 2))
    y = rng.random(300) > 0.5  # pure noise: splits rarely purify
    min_node = 7
    model = forest_fit(X, y, ntree=10, mtry=2, min_node=min_node, seed=1)
    for tree in model.trees:
        leaves = tree.feature == -1
        counts = tree.counts[leaves]
        impure = (counts[:, 0] > 0) & (counts[:, 1] > 0)
        assert np.all(counts[impure].sum(axis=1) >= min_node)


def test_validation_errors():
    X = np.zeros((1, 2))
    with pytest.raises(ValidationError):
        forest_fit(X, np.array([True]), ntree=5)
    X = np.zeros((4, 2))
    y = np.array([True, False, True, False])
    with pytest.raises(ValidationError):
        forest_fit(X, y, ntree=0)
    with pytest.raises(ValidationError):
        forest_fit(X, y, mtry=3)
    with pytest.raises(ValidationError):
        forest_fit(np.zeros((5, 2)), y)
    with pytest.raises(ValidationError):
        forest_fit(np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, np.inf], [2.0, 3.0]]), y)


# ---------------------------------------------------------------------------
# Reference: the forest grown one tree and one node at a time.  The lockstep
# grower in ``evmcontrol.forest`` must reproduce it bit for bit.


def _ref_best_split(Xf, y01, min_node):
    """Best Gini split of one feature column; returns (score, threshold)."""
    n = len(y01)
    order = np.argsort(Xf, kind="stable")
    xs = Xf[order]
    ys = y01[order]
    pos = np.cumsum(ys)
    total_pos = pos[-1]
    ks = np.arange(1, n)  # split size of the left block
    valid = (xs[1:] != xs[:-1]) & (ks >= min_node) & (n - ks >= min_node)
    if not valid.any():
        return None
    ks = ks[valid]
    left_pos = pos[:-1][valid]
    right_pos = total_pos - left_pos
    left_n = ks
    right_n = n - ks
    score = (left_pos**2 + (left_n - left_pos) ** 2) / left_n + (
        right_pos**2 + (right_n - right_pos) ** 2
    ) / right_n
    best = int(np.argmax(score))
    parent_score = (total_pos**2 + (n - total_pos) ** 2) / n
    if score[best] <= parent_score + 1e-12:
        return None
    k = ks[best]
    threshold = 0.5 * (xs[k - 1] + xs[k])
    return float(score[best]), threshold


def _ref_grow_tree(X, y01, rows, mtry, min_node, rng):
    feature, threshold, left, right, vote, counts = [], [], [], [], [], []
    n_features = X.shape[1]

    def new_node(idx):
        node = len(feature)
        n_pos = int(y01[idx].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((len(idx) - n_pos, n_pos))
        vote.append(int(n_pos * 2 > len(idx)))
        return node

    stack = [(new_node(rows), rows)]
    while stack:
        node, idx = stack.pop()
        n = len(idx)
        n_pos = counts[node][1]
        if n < 2 * min_node or n_pos == 0 or n_pos == n:
            continue
        candidates = rng.permutation(n_features)[:mtry]
        best = None
        for f in candidates:
            found = _ref_best_split(X[idx, f], y01[idx], min_node)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1])
        if best is None:
            continue
        _, f, thr = best
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left_id = new_node(idx[go_left])
        right_id = new_node(idx[~go_left])
        left[node] = left_id
        right[node] = right_id
        stack.append((left_id, idx[go_left]))
        stack.append((right_id, idx[~go_left]))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        vote=np.asarray(vote, dtype=np.int64),
        counts=np.asarray(counts, dtype=np.int64),
    )


def _ref_tree_votes(tree, X):
    node = np.zeros(len(X), dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        idx = np.flatnonzero(active)
        nd = node[idx]
        go_left = X[idx, tree.feature[nd]] <= tree.threshold[nd]
        node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = tree.feature[node] >= 0
    return tree.vote[node]


def _ref_forest_fit(X, y, ntree, mtry, min_node, seed):
    X = np.asarray(X, dtype=float)
    y01 = np.asarray(y).astype(bool).astype(np.int64)
    n = len(y01)
    trees = []
    oob_votes = np.zeros((n, 2), dtype=np.int64)
    for tree_ix in range(ntree):
        rng = generator(seed, 0xF03E57, tree_ix)
        rows = rng.integers(0, n, size=n)
        tree = _ref_grow_tree(X, y01, rows, mtry, min_node, rng)
        trees.append(tree)
        oob = np.setdiff1d(np.arange(n), rows, assume_unique=False)
        if len(oob):
            votes = _ref_tree_votes(tree, X[oob])
            oob_votes[oob, votes] += 1
    covered = oob_votes.sum(axis=1) > 0
    if covered.any():
        oob_pred = oob_votes.argmax(axis=1)
        oob_error = float((oob_pred[covered] != y01[covered]).mean())
    else:
        oob_error = float("nan")
    return ForestModel(trees=tuple(trees), ntree=ntree, mtry=mtry, min_node=min_node,
                       oob_error=oob_error, oob_coverage=float(covered.mean()))


def _ref_forest_predict(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pos = np.zeros(len(X))
    for tree in model.trees:
        pos += _ref_tree_votes(tree, X)
    pos /= model.ntree
    return np.column_stack([1.0 - pos, pos])


def _assert_same_forest(got, want):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for field in dataclasses.fields(_Tree):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name
    for field in ("ntree", "mtry", "min_node", "oob_error", "oob_coverage"):
        x, y = getattr(got, field), getattr(want, field)
        assert x == y or (np.isnan(x) and np.isnan(y)), field


@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rounding to few decimals gives many tied values, down to a constant column
    X = np.round(rng.standard_normal((n, 2)) * draw(st.sampled_from([0.05, 1.0, 30.0])),
                 draw(st.integers(0, 2)))
    rate = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.98, 1.0]))
    y = rng.random(n) < rate  # nearly single-class y gives pure bootstraps
    return (X, y, draw(st.integers(1, 30)), draw(st.integers(1, 2)), draw(st.integers(1, 30)),
            draw(st.integers(0, 2**31 - 1)))


@settings(max_examples=80, deadline=None)
@given(forest_problems())
def test_lockstep_forest_matches_one_tree_at_a_time(problem):
    X, y, ntree, mtry, min_node, seed = problem
    got = forest_fit(X, y, ntree=ntree, mtry=mtry, min_node=min_node, seed=seed)
    want = _ref_forest_fit(X, y, ntree, mtry, min_node, seed)
    _assert_same_forest(got, want)
    queries = np.vstack([X, np.round(np.random.default_rng(seed).standard_normal((7, 2)), 1)])
    assert forest_predict(got, queries).tobytes() == _ref_forest_predict(want, queries).tobytes()
    assert pickle.dumps(got) == pickle.dumps(want)
