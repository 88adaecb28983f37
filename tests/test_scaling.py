"""Scale invariance: scaling every length by 2^k, |k| up to 1000, scales
every distance the package reports by exactly 2^k and changes no verdict.

Coordinates are multiples of 1/8 of magnitude at most 8, so every
coordinate and every difference stays a normal float at every scale
drawn here, and every scaling is exact.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apxpat import _kernels
from apxpat.generators import gen_random_separated
from apxpat.geometry import Pattern, PointSet, diameter, min_pairwise_distance
from apxpat.verifier import cylinder_radius, verify_homothetic

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
