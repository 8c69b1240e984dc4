"""Planar geometry helpers: convex hulls and level-set extraction.

The trust region of a fitted model is the convex hull of its training
points; chart cells outside it are rendered transparent.  Level sets of
gridded scalar fields (probability 0.5 boundaries, anomaly contours) are
extracted with marching squares: each grid edge the level crosses gets one
linearly interpolated crossing, and segments are chained by edge identity,
so no coordinate is compared or rounded.
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


def marching_squares(xs, ys, values: np.ndarray, level: float) -> list[np.ndarray]:
    """Polylines of the ``values == level`` contour on a rectangular grid.

    ``values[i, j]`` is the field at ``(xs[i], ys[j])``; NaN counts as not
    above the level.  Each grid edge whose ends straddle the level is crossed
    once, at the point interpolated linearly from its lower-index end.  A
    crossed cell joins its crossed sides, taken in the order bottom, right,
    top, left, by one segment; a saddle joins them by two, paired by the sign
    of its corners' mean.  Segments are chained through the edges they share:
    a closed contour ends on its first vertex, and a grid node exactly at the
    level shows as two consecutive vertices at that node, within one polyline.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    v = values[: len(xs), : len(ys)]
    above = v > level
    cross_x = above[:-1] != above[1:]  # edges (i, j)-(i + 1, j)
    cross_y = above[:, :-1] != above[:, 1:]  # edges (i, j)-(i, j + 1)
    x_id = np.arange(cross_x.size).reshape(cross_x.shape)
    y_id = cross_x.size + np.arange(cross_y.size).reshape(cross_y.shape)
    crossed_edge = np.concatenate([cross_x.ravel(), cross_y.ravel()])
    points = np.empty((len(crossed_edge), 2))
    i, j = np.nonzero(cross_x)
    f = (level - v[i, j]) / (v[i + 1, j] - v[i, j])
    points[x_id[i, j]] = np.column_stack([xs[i] + f * (xs[i + 1] - xs[i]), ys[j]])
    i, j = np.nonzero(cross_y)
    f = (level - v[i, j]) / (v[i, j + 1] - v[i, j])
    points[y_id[i, j]] = np.column_stack([xs[i], ys[j] + f * (ys[j + 1] - ys[j])])

    # crossed cells in row-major order, each naming its sides' edges
    i, j = np.nonzero(cross_x[:, :-1] | cross_x[:, 1:] | cross_y[:-1] | cross_y[1:])
    sides = np.stack([x_id[i, j], y_id[i + 1, j], x_id[i, j + 1], y_id[i, j]], axis=1)
    crossed = crossed_edge[sides]
    saddle = crossed.all(axis=1)
    # crossed sides first, in side order: a cell's segment, or a saddle's two
    pick = np.argsort(~crossed, axis=1, kind="stable")
    a, b = i[saddle], j[saddle]
    center = np.stack([v[a, b], v[a + 1, b], v[a + 1, b + 1], v[a, b + 1]], axis=1).mean(axis=1)
    pick[np.flatnonzero(saddle)[(center > level) == above[a, b]]] = (0, 3, 1, 2)
    pairs = np.take_along_axis(sides, pick, axis=1).reshape(-1, 2, 2)
    segments = pairs[np.column_stack([np.ones_like(saddle), saddle])]

    # slots 2s and 2s + 1 hold segment s's edges; an edge's other slot, if
    # any, belongs to the neighbouring cell's segment
    flat = segments.ravel()
    order = np.argsort(flat, kind="stable")
    shared = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
    other = np.full(len(flat), -1)
    other[order[shared]] = order[shared + 1]
    other[order[shared + 1]] = order[shared]
    flat, other = flat.tolist(), other.tolist()
    used = [False] * len(segments)
    polylines: list[np.ndarray] = []
    for s in range(len(segments)):
        if used[s]:
            continue
        used[s] = True
        halves = []
        for slot in (2 * s + 1, 2 * s):  # grow the end, then the start
            half = [flat[slot]]
            while other[slot] >= 0 and not used[other[slot] // 2]:
                slot = other[slot] ^ 1
                used[slot // 2] = True
                half.append(flat[slot])
            halves.append(half)
        polylines.append(points[halves[1][::-1] + halves[0]])
    return polylines
