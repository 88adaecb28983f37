"""Scale invariance: scaling every length by 2^k, |k| up to 1000, scales
every distance the package reports by exactly 2^k and changes no verdict.

Coordinates are multiples of 1/8 of magnitude at most 8, so every
coordinate and every difference stays a normal float at every scale
drawn here, and every scaling is exact.  The collinear finder is checked
up to the largest k that keeps every coordinate finite, where a
difference of two coordinates can pass the float range.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apxpat import _kernels
from apxpat.collinear import angle_bucket, bucket_count, find_collinear
from apxpat.cli import main
from apxpat.generators import _packs, gen_random_separated
from apxpat.geometry import Pattern, PointSet, diameter, min_pairwise_distance
from apxpat.pointio import emit_svg
from apxpat.verifier import verify_collinear, verify_homothetic

from _reference import cylinder_radius

POWERS = st.integers(min_value=-1000, max_value=1000)


@st.composite
def point_rows(draw, min_size=2, max_size=12):
    """(dim, rows) with rows multiples of 1/8 in [-8, 8]."""
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    vals = draw(st.lists(st.integers(min_value=-64, max_value=64),
                         min_size=n * dim, max_size=n * dim))
    return dim, np.reshape(vals, (n, dim)) / 8.0


@settings(max_examples=80, deadline=None)
@given(drawn=point_rows(), k=POWERS)
def test_pair_metrics_scale_exactly(drawn, k):
    dim, rows = drawn
    s, t = PointSet(dim, rows), PointSet(dim, np.ldexp(rows, k))
    assert min_pairwise_distance(t) == math.ldexp(min_pairwise_distance(s), k)
    assert diameter(t) == math.ldexp(diameter(s), k)
    assert cylinder_radius(t) == math.ldexp(cylinder_radius(s), k)
    if len(np.unique(rows, axis=0)) == len(rows):
        p, q = Pattern(dim, rows), Pattern(dim, t.coords)
        assert q.min_pairwise == math.ldexp(p.min_pairwise, k)
        assert q.diameter == math.ldexp(p.diameter, k)


@settings(max_examples=60, deadline=None)
@given(drawn=point_rows(max_size=5), k=POWERS,
       noise=st.lists(st.integers(min_value=-6, max_value=6), min_size=15, max_size=15),
       eps=st.sampled_from([0.05, 0.2, 1 / 3]))
def test_homothety_verdict_ignores_the_pattern_scale(drawn, k, noise, eps):
    dim, rows = drawn
    assume(len(np.unique(rows, axis=0)) == len(rows))
    # A copy at scale 3, moved by 1 and jittered by up to 6/64.
    cand = rows * 3.0 + 1.0 + np.reshape(noise[: rows.size], rows.shape) / 64.0
    assume(len(np.unique(cand, axis=0)) == len(cand))
    q, sigma = PointSet(dim, cand), list(range(len(rows)))
    want = verify_homothetic(q, Pattern(dim, rows), sigma, eps)
    got = verify_homothetic(q, Pattern(dim, np.ldexp(rows, k)), sigma, eps)
    assert got.accepted == want.accepted
    assert got.max_relative_deviation == want.max_relative_deviation


@settings(max_examples=80, deadline=None)
@given(drawn=point_rows(max_size=30), k=POWERS, pick=st.integers(min_value=0, max_value=10**6),
       step=st.sampled_from([-1, 0, 1]))
def test_audit_verdict_ignores_the_scale(drawn, k, pick, step):
    dim, rows = drawn
    flat = rows.ravel()
    # A threshold at one pair's distance or a float next to it, so the
    # strict boundary is exercised.
    i, j = sorted(np.random.default_rng(pick).choice(len(rows), 2, replace=False))
    thr = float(np.sqrt(((rows[i] - rows[j]) ** 2).sum())) or 1.0
    thr = math.nextafter(thr, math.inf * step) if step else thr
    want = _kernels.has_close_pair(flat, dim, thr)
    best = min(((a - b) ** 2).sum() for a, b in
               ((rows[x], rows[y]) for x in range(len(rows)) for y in range(x + 1, len(rows))))
    assert want == (best < thr * thr)
    assert _kernels.has_close_pair(np.ldexp(flat, k), dim, math.ldexp(thr, k)) == want


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=3), count=st.integers(min_value=2, max_value=25),
       seed=st.integers(min_value=0, max_value=2**64 - 1), k=POWERS)
def test_random_separated_scales_exactly(dim, count, seed, k):
    length = 40.0 if dim == 1 else 10.0  # room for the count at every dim
    want = gen_random_separated(dim, length, 1.0, count, seed).coords
    got = gen_random_separated(dim, math.ldexp(length, k), math.ldexp(1.0, k), count, seed)
    assert np.array_equal(got.coords, np.ldexp(want, k))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(min_value=1, max_value=10**6), dim=st.integers(min_value=1, max_value=5),
       length=st.integers(min_value=1, max_value=200), delta=st.integers(min_value=1, max_value=16),
       k=POWERS)
def test_packing_verdict_ignores_the_scale(count, dim, length, delta, k):
    want = _packs(count, dim, length / 8.0, delta / 8.0)
    assert _packs(count, dim, math.ldexp(length / 8.0, k), math.ldexp(delta / 8.0, k)) == want


@pytest.mark.parametrize("text", ["2\n-1e308 0\n1e308 1\n", "2\n1e-310 0\n3e-310 2e-310\n"])
def test_plot_frame_holds_extreme_scales(tmp_path, text):
    (tmp_path / "in.txt").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["plot", "--input", str(tmp_path / "in.txt"),
                     "--out", str(tmp_path / "out.svg")])
    assert code == 0
    svg = (tmp_path / "out.svg").read_text()
    values = [float(v) for v in re.findall(r'c[xy]="([^"]*)"', svg)]
    assert len(values) == 4 and all(40.0 <= v <= 600.0 for v in values)


@settings(max_examples=80, deadline=None)
@given(drawn=point_rows(min_size=1), picks=st.lists(st.integers(-3, 14), max_size=4),
       anchors=st.integers(min_value=0, max_value=2),
       # Every scaled coordinate, down to subnormals, stays exact.
       k=st.integers(min_value=-1071, max_value=1020))
@example(drawn=(2, np.array([[0.0, 0.0], [0.0, 0.5]])), k=3, picks=[], anchors=0)
@example(drawn=(1, np.array([[-8.0], [8.0]])), k=1020, picks=[1], anchors=1)
@example(drawn=(2, np.array([[0.125, 0.0], [0.375, 0.25]])), k=-1071, picks=[0], anchors=1)
def test_svg_ignores_the_scale(drawn, k, picks, anchors):
    dim, rows = drawn
    assume(dim <= 2)
    marks = rows[:anchors] + 0.5
    # Indices outside the set are refused; the figure of the others is
    # compared.
    valid = [i for i in picks if 0 <= i < len(rows)]
    if valid != picks:
        with pytest.raises(ValueError, match="highlight index"):
            emit_svg(PointSet(dim, rows), picks, marks.tolist())
    want = emit_svg(PointSet(dim, rows), valid, marks.tolist())
    got = emit_svg(PointSet(dim, np.ldexp(rows, k)), valid, np.ldexp(marks, k).tolist())
    assert got == want


def _largest_finite_power(rows):
    """The largest k with every coordinate of rows * 2^k finite."""
    return 1024 - math.frexp(float(np.abs(rows).max()))[1]


def _assert_collinear_ignores_the_scale(rows, k, eps, r, size):
    s, t = PointSet(2, rows), PointSet(2, np.ldexp(rows, k))
    assert find_collinear(t, size, eps) == find_collinear(s, size, eps)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            want = angle_bucket(rows[i], rows[j], r)
            assert angle_bucket(t.coords[i], t.coords[j], r) == want, (i, j)


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64)), min_size=3,
                     max_size=12, unique=True),
       k=st.integers(min_value=-1000, max_value=1021), size=st.integers(min_value=3, max_value=5),
       eps=st.sampled_from([0.05, 0.1, 0.3]))
@example(vals=[(-64, 0), (64, 1), (0, 64)], k=1000, size=3, eps=0.1)
def test_collinear_outcome_and_buckets_ignore_the_scale(vals, k, size, eps):
    # At the drawn k, and at the largest k that keeps every coordinate
    # finite, where differences of coordinates of both signs pass the
    # float range.
    rows = np.asarray(vals) / 8.0
    top = _largest_finite_power(rows)
    for power in (min(k, top), top):
        _assert_collinear_ignores_the_scale(rows, power, eps, bucket_count(eps), size)


def test_planted_line_is_found_up_to_the_float_limit():
    # A 6-point line at 30 degrees among 6 uniform points, at unit scale
    # and scaled by 2^k up to the float limit (about 1.7e308): the finder
    # keeps finding the line, and the line's end points keep their bucket.
    t = np.arange(6) / 5.0
    line = np.c_[t * math.cos(math.pi / 6), t * math.sin(math.pi / 6)] * 2.0 - 1.0
    rows = np.r_[line, np.random.default_rng(0).uniform(-1.0, 1.0, (6, 2))] * 1.9
    want = find_collinear(PointSet(2, rows), 6, 0.05)
    assert want.found and want.subset == tuple(range(6))
    top = _largest_finite_power(rows)
    assert np.abs(np.ldexp(rows, top)).max() > 1.7e308
    for k in (1000, top - 1, top):
        _assert_collinear_ignores_the_scale(rows, k, 0.05, bucket_count(0.05), 6)
        assert verify_collinear(PointSet(2, np.ldexp(rows[:6], k)), 0.05)[0]
