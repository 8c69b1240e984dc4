import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmcontrol import geometry
from evmcontrol.geometry import (
    _chain_segments,
    _interp_crossing,
    convex_hull,
    marching_squares,
    points_in_hull,
)
from evmcontrol.pipeline import DEFAULT_EV_LEVELS
from evmcontrol.simulate import run_ensemble


def test_hull_of_square_with_interior_points():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7]], dtype=float)
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_counter_clockwise():
    rng = np.random.default_rng(0)
    hull = convex_hull(rng.standard_normal((100, 2)))
    # shoelace area positive for CCW ordering
    x, y = hull[:, 0], hull[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0


def test_points_in_hull_membership():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    hull = convex_hull(pts)
    queries = np.array([[1, 1], [0, 0], [2, 1], [3, 1], [-0.1, 1]])
    inside = points_in_hull(queries, hull)
    assert inside.tolist() == [True, True, True, False, False]


def test_degenerate_hull_segment():
    line = np.column_stack([np.arange(5.0), np.zeros(5)])
    hull = convex_hull(line)
    assert len(hull) == 2
    inside = points_in_hull(np.array([[2.0, 0.0], [2.0, 1.0]]), hull)
    assert inside.tolist() == [True, False]


def test_marching_squares_circle():
    xs = np.linspace(-2, 2, 81)
    ys = np.linspace(-2, 2, 81)
    vals = xs[:, None] ** 2 + ys[None, :] ** 2
    polys = marching_squares(xs, ys, vals, 1.0)
    pts = np.concatenate(polys)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.min() > 0.99
    assert radii.max() <= 1.0 + 1e-9
    # crossing interpolation is exact on a quadratic only up to grid error
    assert len(pts) > 50


def test_marching_squares_level_outside_range():
    xs = np.linspace(0, 1, 5)
    ys = np.linspace(0, 1, 5)
    vals = np.zeros((5, 5))
    assert marching_squares(xs, ys, vals, 0.5) == []


def test_marching_squares_single_crossing_per_edge():
    # monotone field: one horizontal line at y = 0.5
    xs = np.linspace(0, 1, 11)
    ys = np.linspace(0, 1, 11)
    vals = np.tile(ys, ( 11, 1))
    polys = marching_squares(xs, ys, vals, 0.5)
    pts = np.concatenate(polys)
    assert np.allclose(pts[:, 1], 0.5)
    total_points = sum(len(p) for p in polys)
    assert len(polys) == 1 and total_points == 11  # chained into one polyline


# ---------------------------------------------------------------------------
# References: the monotone chain on numpy scalars and marching squares as a
# double loop over every cell.  The package versions must match them bit for
# bit.


def _ref_convex_hull(points):
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return pts[[0, -1]]
    return hull


def _ref_marching_squares(xs, ys, values, level):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [
                ((xs[i], ys[j]), values[i, j]),
                ((xs[i + 1], ys[j]), values[i + 1, j]),
                ((xs[i + 1], ys[j + 1]), values[i + 1, j + 1]),
                ((xs[i], ys[j + 1]), values[i, j + 1]),
            ]
            code = sum(1 << k for k, (_, v) in enumerate(corners) if v > level)
            if code in (0, 15):
                continue
            edges = []
            for k in range(4):
                (pa, va), (pb, vb) = corners[k], corners[(k + 1) % 4]
                if (va > level) != (vb > level):
                    edges.append(_interp_crossing(pa, pb, va, vb, level))
            if len(edges) == 2:
                segments.append((edges[0], edges[1]))
            elif len(edges) == 4:
                center = np.mean([v for _, v in corners])
                if (center > level) == (corners[0][1] > level):
                    segments.append((edges[0], edges[3]))
                    segments.append((edges[1], edges[2]))
                else:
                    segments.append((edges[0], edges[1]))
                    segments.append((edges[2], edges[3]))
    return _chain_segments(segments)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def point_clouds(draw):
    """Small integer lattices (duplicates, collinear runs) scaled and shifted."""
    n = draw(st.integers(1, 40))
    span = draw(st.integers(0, 4))
    coords = draw(st.lists(st.tuples(st.integers(-span, span), st.integers(-span, span)),
                           min_size=n, max_size=n))
    if draw(st.booleans()):  # all on one line
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        coords = [(x, a * x + b) for x, _ in coords]
    scale = draw(st.sampled_from([1.0, 0.1, 1e-7, 3.7e4]))
    shift = draw(st.floats(-1e3, 1e3, allow_nan=False))
    return np.asarray(coords, dtype=float) * scale + shift


@st.composite
def gaussian_clouds(draw):
    """Correlated clouds with duplicates and extra points on hull edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = draw(st.integers(5, 300))
    rho = draw(st.sampled_from([0.0, 0.9, -0.999, 1.0]))
    scale = np.array([1.0, draw(st.sampled_from([1.0, 1e-6, 2e3]))])
    z = rng.standard_normal((n, 2))
    z[:, 1] = rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]
    pts = z * scale + draw(st.floats(-1e4, 1e4, allow_nan=False))
    hull = _ref_convex_hull(pts)
    a, b = hull[0], hull[1 % len(hull)]
    on_edge = a + rng.uniform(0, 1, (draw(st.integers(0, 5)), 1)) * (b - a)
    dupes = pts[rng.integers(0, n, draw(st.integers(0, 10)))]
    return rng.permutation(np.concatenate([pts, on_edge, dupes]))


@settings(max_examples=300, deadline=None)
@given(point_clouds())
def test_convex_hull_matches_reference(points):
    assert _same_array(convex_hull(points), _ref_convex_hull(points))


@settings(max_examples=200, deadline=None)
@given(gaussian_clouds())
def test_convex_hull_matches_reference_on_gaussian_clouds(points):
    assert _same_array(convex_hull(points), _ref_convex_hull(points))


@pytest.mark.parametrize("seed", range(10))
def test_interior_filter_keeps_the_hull_at_every_pivot(case_study, monkeypatch, seed):
    ds = run_ensemble(case_study, 20000, seed, DEFAULT_EV_LEVELS)
    clouds = [np.column_stack([p.t, p.c]) for p in map(ds.pivot, range(len(ds.ev_levels)))]
    filtered = [convex_hull(pts) for pts in clouds]
    monkeypatch.setattr(geometry, "_drop_interior", lambda pts: pts)
    for pts, hull in zip(clouds, filtered):
        assert _same_array(hull, convex_hull(pts))


@st.composite
def level_fields(draw):
    """Fields on few distinct values: saddles, values exactly at the level, NaN."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    level = draw(st.sampled_from([0.5, 1.0, 0.0]))
    choices = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, 0.25, float("nan")])
    values = np.asarray(draw(st.lists(choices, min_size=nx * ny, max_size=nx * ny)))
    noise = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = values + noise * np.round(rng.standard_normal(nx * ny), 1)
    xs = np.cumsum(rng.uniform(0.1, 1.0, nx))
    ys = np.cumsum(rng.uniform(0.1, 1.0, ny))
    return xs, ys, values.reshape(nx, ny), level


@settings(max_examples=300, deadline=None)
@given(level_fields())
def test_marching_squares_matches_reference(field):
    xs, ys, values, level = field
    got = marching_squares(xs, ys, values, level)
    want = _ref_marching_squares(xs, ys, values, level)
    assert len(got) == len(want)
    assert all(_same_array(a, b) for a, b in zip(got, want))


def test_marching_squares_matches_reference_on_smooth_field():
    rng = np.random.default_rng(4)
    xs = np.linspace(0, 10, 60)
    ys = np.linspace(-3, 3, 50)
    values = np.sin(xs[:, None]) * np.cos(2 * ys[None, :]) + 0.1 * rng.standard_normal((60, 50))
    for level in (0.0, 0.3, -0.7):
        got = marching_squares(xs, ys, values, level)
        want = _ref_marching_squares(xs, ys, values, level)
        assert len(got) == len(want) > 0
        assert all(_same_array(a, b) for a, b in zip(got, want))
