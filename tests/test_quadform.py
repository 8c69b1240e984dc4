import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol.classify import qda_fit, qda_predict
from evmcontrol.density import _gaussian_eval, normal_scale_bandwidth
from evmcontrol.quadform import sq_dists, whiten
from evmcontrol.svm import svm_fit, svm_predict

COV = np.array([[0.36, 300.0], [300.0, 6.4e5]])  # (t, c)-like scales


def test_whitened_distance_is_the_quadratic_form():
    rng = np.random.default_rng(4)
    a = rng.multivariate_normal([5.0, 1.0e4], COV, size=30)
    b = rng.multivariate_normal([5.0, 1.0e4], COV, size=20)
    S = COV * 0.05
    got = sq_dists(*whiten(a, S), *whiten(b, S))
    d = a[:, None, :] - b[None, :, :]
    want = np.einsum("ijk,kl,ijl->ij", d, np.linalg.inv(S), d)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.fixture(scope="module")
def scorers():
    """Each scoring path, fitted once: density, SVM and QDA probabilities."""
    rng = np.random.default_rng(6)
    centres = rng.multivariate_normal([5.0, 1.0e4], COV, size=8000)  # 16-row eval blocks
    H = normal_scale_bandwidth(centres)
    X = rng.multivariate_normal([5.0, 1.0e4], COV, size=300)
    y = X[:, 1] + rng.normal(0.0, 400.0, len(X)) > 1.0e4
    svm, qda = svm_fit(X, y, C=1.0, gamma=0.5), qda_fit(X, y)
    queries = rng.multivariate_normal([5.0, 1.0e4], COV * 4.0, size=60)
    return queries, (lambda q: _gaussian_eval(centres, H, q),
                     lambda q: svm_predict(svm, q),
                     lambda q: qda_predict(qda, q))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_scores_do_not_depend_on_batches_or_order(scorers, data):
    queries, fns = scorers
    n = len(queries)
    perm = np.array(data.draw(st.permutations(range(n))))
    if data.draw(st.booleans()):
        cuts = list(range(1, n))  # one row at a time
    else:
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12)))
    for fn in fns:
        whole = fn(queries)
        parts = [fn(queries[perm[lo:hi]]) for lo, hi in zip([0, *cuts], [*cuts, n])]
        got = np.empty_like(whole)
        got[perm] = np.concatenate(parts)
        assert got.tobytes() == whole.tobytes()
