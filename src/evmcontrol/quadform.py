"""Row-local 2-D quadratic forms: the kernel and discriminant arithmetic.

Every Gaussian kernel, RBF kernel and Gaussian discriminant in the package
needs ``(x - y)^T S^-1 (x - y)`` for 2-D points.  Whitening both point sets
by the Cholesky factor of S turns that into a plain squared distance, which
takes three elementwise operations per pair and no matrix product.  So each
row's result depends only on that row's inputs: not on how many rows are
scored in one call, on their order, or on the BLAS build and thread count.
"""

from __future__ import annotations

import numpy as np


def whiten(points, S) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``z0, z1`` of ``L^-1 x`` for each row x of ``points``, S = L L^T.

    The squared Euclidean distance between two whitened rows is
    ``(x - y)^T S^-1 (x - y)``.  S must be a symmetric positive-definite 2x2
    matrix.
    """
    pts = np.asarray(points, dtype=float)
    l00 = np.sqrt(S[0, 0])
    l10 = S[0, 1] / l00
    l11 = np.sqrt(S[1, 1] - l10 * l10)
    z0 = pts[:, 0] / l00
    return z0, (pts[:, 1] - l10 * z0) / l11


def sq_dists(a0, a1, b0, b1, out=None, tmp=None) -> np.ndarray:
    """Squared distances ``(a0_i - b0_j)^2 + (a1_i - b1_j)^2`` as an (n_a, n_b) array.

    ``out`` and ``tmp``, when given, are (n_a, n_b) buffers to reuse; the
    result is written into ``out``.
    """
    out = np.subtract.outer(a0, b0, out=out)
    tmp = np.subtract.outer(a1, b1, out=tmp)
    np.multiply(out, out, out=out)
    np.multiply(tmp, tmp, out=tmp)
    return np.add(out, tmp, out=out)
