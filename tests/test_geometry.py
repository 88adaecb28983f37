import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxpat.errors import DimensionMismatch
from apxpat.geometry import (
    Homothety,
    Pattern,
    Point,
    PointSet,
    apply_homothety,
    diameter,
    min_pairwise_distance,
)


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point((0.0, float("nan")))
    with pytest.raises(ValueError):
        Point((float("inf"),))


def test_pointset_dimension_uniform():
    with pytest.raises(DimensionMismatch):
        PointSet(2, [(0, 0), (1, 2, 3)])
    with pytest.raises(ValueError):
        PointSet(1, [])


def test_pointset_coords_are_read_only():
    rows = np.asarray([[0.0, 1.0], [2.0, 3.0]])
    s = PointSet(2, rows)
    assert s.coords.dtype == np.float64 and s.coords.shape == (2, 2)
    assert not s.coords.flags.writeable
    with pytest.raises(ValueError):
        s.coords[0, 0] = 5.0
    rows[0, 0] = 5.0  # the set holds its own copy
    assert s.coords[0, 0] == 0.0
    with pytest.raises(AttributeError):
        s.coords = rows
    assert not Pattern(2, rows).coords.flags.writeable
    assert not s.subset([1]).coords.flags.writeable


def test_pointset_equality():
    a = PointSet(2, [(0, 1), (2, 3)])
    assert a == PointSet(2, np.asarray([[0.0, 1.0], [2.0, 3.0]]))
    assert hash(a) == hash(PointSet(2, [(-0.0, 1), (2, 3)]))
    assert a == PointSet(2, [(-0.0, 1), (2, 3)])
    assert a != PointSet(2, [(0, 1), (2, 4)])
    assert a != PointSet(2, [(0, 1)])
    assert PointSet(1, [(0,), (1,)]) != PointSet(2, [(0, 1)])
    assert PointSet(1, [(0,), (1,)]) != PointSet(1, [(1,), (0,)])
    p = Pattern(2, [(0, 1), (2, 3)])
    assert p == Pattern(2, a.coords)
    assert p != a and a != p
    assert Pattern(a.dim, a.coords) == p


def test_pointset_array_and_list_errors_agree():
    cases = [
        (2, [(0, 0, 0), (1, 1, 1)]),
        (3, [(0, 0), (1, 1)]),
        (2, [(0, float("nan")), (1, 1)]),
        (2, [(0, 1), (float("-inf"), 1)]),
        (2, []),
    ]
    for dim, rows in cases:
        arr = np.asarray(rows, dtype=float) if rows else np.empty((0, dim))
        with pytest.raises(ValueError) as from_list:
            PointSet(dim, rows)
        with pytest.raises(ValueError) as from_array:
            PointSet(dim, arr)
        assert type(from_list.value) is type(from_array.value), (dim, rows)
    with pytest.raises(DimensionMismatch):
        PointSet(2, np.zeros((4, 3)))


def test_pointset_points_are_built_on_demand():
    s = PointSet(2, [(0, 1), (2, 3)])
    assert s.points == (Point((0, 1)), Point((2, 3)))
    assert list(s) == list(s.points) and s[1] == s[-1] == Point((2, 3))
    assert s.subset([1, 0]) == PointSet(2, [(2, 3), (0, 1)])


def test_min_pairwise_examples():
    assert min_pairwise_distance(PointSet(1, [(0,), (1,), (3,)])) == 1.0
    assert min_pairwise_distance(PointSet(2, [(0, 0), (3, 4)])) == 5.0
    # {1, 1/8, 1/64}: closest pair is 1/8 - 1/64 = 7/64
    s = PointSet(1, [(1.0,), (0.125,), (0.015625,)])
    assert min_pairwise_distance(s) == pytest.approx(7 / 64, rel=1e-15)
    with pytest.raises(ValueError):
        min_pairwise_distance(PointSet(1, [(0,)]))


def test_diameter_examples():
    assert diameter(PointSet(1, [(0,), (1,), (3,)])) == 3.0
    assert diameter(PointSet(2, [(0, 0), (1, 0), (0, 1)])) == pytest.approx(math.sqrt(2))


def test_diameter_at_least_min_pairwise_random():
    import random

    rng = random.Random(42)
    s = PointSet(2, [(rng.random(), rng.random()) for _ in range(100)])
    assert diameter(s) >= min_pairwise_distance(s)


def test_pattern_rejects_duplicates_and_caches():
    with pytest.raises(ValueError):
        Pattern(2, [(0, 0), (0, 0)])
    p = Pattern(1, [(0,), (1,), (3,)])
    assert p.min_pairwise == 1.0
    assert p.diameter == 3.0


def test_apply_homothety_examples():
    p = Pattern(2, [(0, 0), (1, 0)])
    ident = apply_homothety(Homothety((0, 0), 1.0), p)
    assert [pt.coords for pt in ident] == [(0.0, 0.0), (1.0, 0.0)]
    moved = apply_homothety(Homothety((1, 1), 2.0), p)
    assert [pt.coords for pt in moved] == [(1.0, 1.0), (3.0, 1.0)]
    with pytest.raises(DimensionMismatch):
        apply_homothety(Homothety((0,), 1.0), p)


def test_homothety_scale_positive():
    with pytest.raises(ValueError):
        Homothety((0, 0), 0.0)
    with pytest.raises(ValueError):
        Homothety((0, 0), -2.0)


@given(
    lam=st.floats(min_value=1e-3, max_value=10.0),
    ax=st.floats(min_value=-50, max_value=50),
    ay=st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_homothety_scales_min_pairwise(lam, ax, ay):
    p = Pattern(2, [(0, 0), (1, 0), (0, 2), (3, 3)])
    out = apply_homothety(Homothety((ax, ay), lam), p)
    assert min_pairwise_distance(out) == pytest.approx(lam * p.min_pairwise, rel=1e-12)
    assert diameter(out) == pytest.approx(lam * p.diameter, rel=1e-12)


def test_metrics_invariant_under_translation_and_rotation():
    pts = [(0.3, 1.2), (2.0, -0.7), (1.1, 0.4), (-2.2, 0.9)]
    s = PointSet(2, pts)
    m0, d0 = min_pairwise_distance(s), diameter(s)
    th = 0.7321
    ca, sa = math.cos(th), math.sin(th)
    moved = PointSet(2, [(ca * x - sa * y + 5.0, sa * x + ca * y - 3.0) for x, y in pts])
    assert min_pairwise_distance(moved) == pytest.approx(m0, rel=1e-12)
    assert diameter(moved) == pytest.approx(d0, rel=1e-12)


@given(lam=st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_homothety_preserves_distance_ratios(lam):
    p = Pattern(2, [(0, 0), (1, 0), (0.5, 2.5), (4, 1)])
    out = apply_homothety(Homothety((1, -2), lam), p)
    k = len(p)
    for i in range(k):
        for j in range(i + 1, k):
            orig = math.dist(p[i].coords, p[j].coords)
            img = math.dist(out[i].coords, out[j].coords)
            assert img / orig == pytest.approx(lam, rel=1e-12)
