"""Planar geometry helpers: convex hulls and level-set extraction.

The trust region of a fitted model is the convex hull of its training
points; chart cells outside it are rendered transparent.  Level sets of
gridded scalar fields (probability 0.5 boundaries, anomaly contours) are
extracted with marching squares and linear edge interpolation.
"""

from __future__ import annotations

import numpy as np


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """Drop the points strictly inside the polygon of the extreme points.

    The polygon joins the points extreme in eight directions: the axes and,
    on the bounding box scaled to a unit square, its diagonals.  No point
    inside it can be a hull vertex (Akl & Toussaint 1978).  A point is
    dropped only when it lies inside every edge by a margin of 1e-9 of the
    bounding box's area, far above the round-off of the test and of the
    chain's orientation tests, so the hull is unchanged.
    """
    if len(pts) < 5:
        return pts
    x, y = pts[:, 0], pts[:, 1]
    u = (x - x.min()) / max(np.ptp(x), 1e-300)
    v = (y - y.min()) / max(np.ptp(y), 1e-300)
    # counter-clockwise: left, lower left, bottom, lower right, right, ...
    corners = pts[[x.argmin(), (u + v).argmin(), y.argmin(), (u - v).argmax(),
                   x.argmax(), (u + v).argmax(), y.argmax(), (u - v).argmin()]]
    # an extreme point may serve several directions: the polygon has fewer sides
    edges = [(a, b) for a, b in zip(corners, np.roll(corners, -1, axis=0)) if (a != b).any()]
    if len(edges) < 3:
        return pts
    tol = 1e-9 * np.ptp(x) * np.ptp(y)
    inside = np.ones(len(pts), dtype=bool)
    for a, b in edges:
        inside &= (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) > tol
    return pts[~inside]


def convex_hull(points) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices counter-clockwise.

    Degenerate inputs (all collinear) return the two extreme points.
    Points inside the polygon of the extreme points are dropped first.
    The chain runs on Python floats, which round exactly as float64 does.
    """
    pts = np.unique(_drop_interior(np.asarray(points, dtype=float)), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    coords = pts.tolist()

    def half_chain(seq):
        chain: list[list[float]] = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    hull = half_chain(coords)[:-1] + half_chain(reversed(coords))[:-1]
    if len(hull) < 3:
        return pts[[0, -1]]
    return np.array(hull)


def points_in_hull(queries, hull: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Boolean mask of query points inside (or on) a convex polygon.

    ``hull`` must be counter-clockwise as produced by :func:`convex_hull`.
    A degenerate hull (< 3 vertices) accepts only points on its bounding
    segment.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if len(hull) < 3:
        lo = hull.min(axis=0) - eps
        hi = hull.max(axis=0) + eps
        return np.all((q >= lo) & (q <= hi), axis=1)
    scale = max(np.abs(hull).max(), 1.0)
    inside = np.ones(len(q), dtype=bool)
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        cross = (b[0] - a[0]) * (q[:, 1] - a[1]) - (b[1] - a[1]) * (q[:, 0] - a[0])
        inside &= cross >= -eps * scale * scale
    return inside


def _interp_crossing(p1, p2, v1, v2, level):
    frac = 0.5 if v2 == v1 else (level - v1) / (v2 - v1)
    return (p1[0] + frac * (p2[0] - p1[0]), p1[1] + frac * (p2[1] - p1[1]))


def marching_squares(xs, ys, values: np.ndarray, level: float) -> list[np.ndarray]:
    """Polylines of the ``values == level`` contour on a rectangular grid.

    ``values[i, j]`` is the field at ``(xs[i], ys[j])``.  Each cell
    contributes straight segments with linearly interpolated crossings;
    saddle cells are disambiguated by the cell-center average.  Segments
    sharing endpoints are chained into polylines.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    above = (values[: len(xs), : len(ys)] > level).astype(np.uint8)
    code = above[:-1, :-1] | above[1:, :-1] << 1 | above[1:, 1:] << 2 | above[:-1, 1:] << 3
    # only cells with corners on both sides of the level; argwhere keeps the
    # row-major (i, then j) order of a double loop over the cells
    for i, j in np.argwhere((code != 0) & (code != 15)).tolist():
        corners = [
            ((xs[i], ys[j]), values[i, j]),
            ((xs[i + 1], ys[j]), values[i + 1, j]),
            ((xs[i + 1], ys[j + 1]), values[i + 1, j + 1]),
            ((xs[i], ys[j + 1]), values[i, j + 1]),
        ]
        edges = []  # crossing point per crossed cell edge
        for k in range(4):
            (pa, va), (pb, vb) = corners[k], corners[(k + 1) % 4]
            if (va > level) != (vb > level):
                edges.append(_interp_crossing(pa, pb, va, vb, level))
        if len(edges) == 2:
            segments.append((edges[0], edges[1]))
        elif len(edges) == 4:
            # saddle: pair crossings by the sign of the center value
            center = np.mean([v for _, v in corners])
            if (center > level) == (corners[0][1] > level):
                segments.append((edges[0], edges[3]))
                segments.append((edges[1], edges[2]))
            else:
                segments.append((edges[0], edges[1]))
                segments.append((edges[2], edges[3]))
    return _chain_segments(segments)


def _round_key(p, decimals=9):
    return (round(p[0], decimals), round(p[1], decimals))


def _chain_segments(segments) -> list[np.ndarray]:
    adjacency: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(_round_key(a), []).append(idx)
        adjacency.setdefault(_round_key(b), []).append(idx)
    used = [False] * len(segments)
    polylines: list[np.ndarray] = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for grow_end in (True, False):
            while True:
                tip = _round_key(chain[-1] if grow_end else chain[0])
                nxt = next((k for k in adjacency.get(tip, []) if not used[k]), None)
                if nxt is None:
                    break
                used[nxt] = True
                pa, pb = segments[nxt]
                point = pb if _round_key(pa) == tip else pa
                if grow_end:
                    chain.append(point)
                else:
                    chain.insert(0, point)
        polylines.append(np.asarray(chain))
    return polylines
