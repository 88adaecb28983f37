import math
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxpat import _kernels, verifier
from apxpat.geometry import Pattern, Point, PointSet
from apxpat.verifier import (
    TAU,
    triangle_angles,
    verify_ap,
    verify_collinear,
    verify_homothetic,
)

from _reference import brent_homothetic, cylinder_radius, min_enclosing_ball

SQUARE = Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)])


class TestVerifyAp:
    def test_exact_ap_zero_eps(self):
        r = verify_ap((0, 1, 2, 3), 0.0)
        assert r.accepted
        assert r.max_relative_deviation == 0.0
        assert r.witness_anchor.coords[0] == pytest.approx(0.0, abs=1e-12)
        assert r.witness_scale == pytest.approx(1.0, rel=1e-12)

    def test_jittered_triple(self):
        r = verify_ap((0, 1.1, 2.0), 1 / 3)
        assert r.accepted
        assert r.max_relative_deviation == pytest.approx(0.05, abs=1e-12)
        assert r.witness_anchor.coords[0] == pytest.approx(0.05, abs=1e-12)
        assert r.witness_scale == pytest.approx(1.0, rel=1e-12)

    def test_geometric_triple_rejected(self):
        # {1/64, 1/8, 1} has no 1/4-approximate 3-term AP.
        r = verify_ap((1 / 64, 1 / 8, 1.0), 0.25)
        assert not r.accepted
        assert r.max_relative_deviation == pytest.approx(0.3888888888888889, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_ap((0, 1), 0.1)
        with pytest.raises(ValueError):
            verify_ap((0, 1, 1), 0.1)
        with pytest.raises(ValueError):
            verify_ap((2, 1, 0), 0.1)
        with pytest.raises(ValueError):
            verify_ap((0, 1, 2), 0.5)

    def test_non_finite_terms_raise(self):
        # [0, 1, inf] raised ZeroDivisionError.
        for q in ([0, 1, math.inf], [-math.inf, 0, 1], [0, math.nan, 1], [0, 1, 2, math.nan]):
            with pytest.raises(ValueError, match="terms must be finite"):
                verify_ap(q, 0.3)

    def test_witness_attains_reported_deviation(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.choice([3, 4, 5])
            q = sorted(rng.uniform(0, 10) for _ in range(k))
            if any(b - a < 1e-9 for a, b in zip(q, q[1:])):
                continue
            r = verify_ap(q, 1 / 3)
            a = r.witness_anchor.coords[0]
            dev = max(abs(q[i] - a - i * r.witness_scale) for i in range(k)) / r.witness_scale
            assert dev == pytest.approx(r.max_relative_deviation, abs=1e-9)

    def test_monotone_in_eps(self):
        q = (0, 0.9, 2.3)
        dev = verify_ap(q, 1 / 3).max_relative_deviation
        for eps in (0.05, 0.1, 0.2, 1 / 3):
            assert verify_ap(q, eps).accepted == (dev <= eps + 1e-9)


def _verify_ap_in_input_units(vals, eps):
    """Reference: verify_ap's formula evaluated in the input's units, as
    (accepted, anchor, scale, deviation)."""
    best_t, best = -1.0, (0, 1, 2)
    for i, j, l in combinations(range(len(vals)), 3):
        rho = (l - i) / (vals[l] - vals[i])
        t = abs((j - i) - rho * (vals[j] - vals[i])) / 2.0
        if t > best_t:
            best_t, best = t, (i, j, l)
    i, j, l = best
    rho = (l - i) / (vals[l] - vals[i])
    e = (j - i) - rho * (vals[j] - vals[i])
    alpha = rho * vals[i] - i - e / 2.0
    dev = max(abs(rho * vals[m] - alpha - m) for m in range(len(vals)))
    return dev <= eps + TAU, alpha * (1.0 / rho), 1.0 / rho, dev


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=3, max_size=7,
                unique=True),
       st.integers(-250, 250), st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.1, 0.25, 1 / 3]))
def test_verify_ap_unit_range_keeps_the_bits(unit, power, shift, eps):
    # On normal-range input, scaling by a power of two changes no bit of the
    # verdict, the deviation or the witness.
    vals = sorted(10.0**power * (v + shift) for v in unit)
    if len(set(vals)) < len(vals) or any(0.0 < abs(v) < 1e-290 for v in vals):
        return
    r = verify_ap(vals, eps)
    got = (r.accepted, r.witness_anchor.coords[0], r.witness_scale, r.max_relative_deviation)
    assert got == _verify_ap_in_input_units(vals, eps)


class TestVerifyApRange:
    def test_span_past_the_float_range(self):
        # -1e308 to 1e308 spans past the largest float; the parent's slope
        # was 0 and its witness a ZeroDivisionError.
        r = verify_ap((-1e308, 0.0, 1e308), 0.0)
        assert r.accepted and r.max_relative_deviation == 0.0
        assert (r.witness_anchor.coords[0], r.witness_scale) == (-1e308, 1e308)

    def test_subnormal_terms(self):
        # The slope 2 / 2e-310 overflows in the input's units.
        r = verify_ap((0.0, 1e-310, 2e-310), 0.0)
        assert r.accepted and r.max_relative_deviation == 0.0
        assert (r.witness_anchor.coords[0], r.witness_scale) == (0.0, 1e-310)

    def test_subnormal_span_inside_the_unit_range(self):
        # In the unit range the triple (0, 1, 2) spans a subnormal gap, so
        # its chord slope overflows, though its exact error is 0; the best
        # triple is (0, 2, 3), and its witness is a finite float.
        q = (0.0, 1e-320, 2e-320, 1.0)
        r = verify_ap(q, 0.3)
        assert not r.accepted and r.max_relative_deviation == 1.0
        a, scale = r.witness_anchor.coords[0], r.witness_scale
        assert (a, scale) == (-1 / 3, 1 / 3)
        reproduced = max(abs((v - a) / scale - m) for m, v in enumerate(q))
        assert reproduced == pytest.approx(1.0, rel=1e-12)

    def test_witness_past_the_float_range(self):
        with pytest.raises(ValueError, match="float range"):
            verify_ap((-1.7e308, -1.6e308, 1.7e308), 0.3)

    def test_terms_that_coincide_in_the_unit_range(self):
        with pytest.raises(ValueError, match="coincide"):
            verify_ap((1e-300, 2e-300, 3e-300, 1e300), 0.3)


class TestMinEnclosingBall:
    def test_single_point(self):
        b = min_enclosing_ball([Point((3, 4))])
        assert b.radius == 0.0
        assert b.center.coords == (3.0, 4.0)

    def test_antipodal_pair(self):
        b = min_enclosing_ball([Point((0, 0)), Point((2, 0))])
        assert b.center.coords[0] == pytest.approx(1.0, abs=1e-12)
        assert b.radius == pytest.approx(1.0, abs=1e-12)

    def test_equilateral_circumradius(self):
        tri = [Point((0, 0)), Point((1, 0)), Point((0.5, math.sqrt(3) / 2))]
        b = min_enclosing_ball(tri)
        assert b.radius == pytest.approx(1 / math.sqrt(3), abs=1e-10)

    def test_contains_all_points_fuzz(self):
        rng = random.Random(11)
        for trial in range(60):
            d = rng.choice([1, 2, 3])
            n = rng.randint(1, 40)
            pts = [Point(tuple(rng.uniform(-5, 5) for _ in range(d))) for _ in range(n)]
            b = min_enclosing_ball(pts)
            for p in pts:
                assert math.dist(p.coords, b.center.coords) <= b.radius * (1 + 1e-10) + 1e-12

    def test_support_size_bound(self):
        # The optimum ball is determined by <= d+1 points on its boundary.
        rng = random.Random(13)
        for _ in range(30):
            d = rng.choice([1, 2, 3])
            pts = [Point(tuple(rng.uniform(-5, 5) for _ in range(d))) for _ in range(15)]
            b = min_enclosing_ball(pts)
            on_boundary = sum(
                1
                for p in pts
                if abs(math.dist(p.coords, b.center.coords) - b.radius) <= 1e-7 * max(b.radius, 1)
            )
            assert on_boundary >= min(2, len(pts)) or b.radius == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            min_enclosing_ball([])

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(17 + d)
        for _ in range(40):
            pts = rng.uniform(-5, 5, size=(int(rng.integers(2, 9)), d))
            b = min_enclosing_ball(pts.tolist())
            assert b.radius == pytest.approx(_brute_radius(pts), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_repeated_points_far_from_origin(self, d):
        # A small cluster far from the origin, with repeated rows: the
        # center's rounding is far above the radius's, and a repeat of a
        # support point must still test inside.
        rng = np.random.default_rng(29 + d)
        for _ in range(60):
            base = rng.uniform(-1e3, 1e3, size=d)
            pts = base + rng.uniform(-1e-3, 1e-3, size=(int(rng.integers(3, 8)), d))
            pts = rng.permutation(np.vstack([pts, pts[rng.integers(0, len(pts), size=3)]]))
            b = min_enclosing_ball(pts.tolist())
            assert b.radius == pytest.approx(_brute_radius(pts - base), rel=1e-8)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 0), (1, 1), (3, 3)],  # collinear triple
            [(0, 0, 0), (1, 2, 3), (2, 4, 6), (-1, -2, -3)],  # collinear in 3-D
            [(1, 0), (0, 1), (-1, 0), (0, -1)],  # cocircular quadruple
            [(math.cos(t), math.sin(t)) for t in (0.1, 1.7, 2.9, 4.4, 5.6)],
            [(1, 0, 2), (0, 1, 2), (-1, 0, 2), (0, -1, 2), (0.3, 0.2, 2)],  # coplanar
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0.5, 0.5, 0)],
            [(2.5, -1.0)] * 5,  # repeated rows
            [(0, 0), (0, 0), (2, 0), (2, 0), (1, 1)],
            [(0, 0, 0), (0, 0, 0), (0, 0, 4), (0, 0, 4)],
        ],
    )
    def test_degenerate_sets_are_enclosed(self, rows):
        b = min_enclosing_ball(rows)
        assert all(math.dist(r, b.center.coords) <= b.radius for r in rows)
        half_diameter = max(math.dist(a, c) for a in rows for c in rows) / 2
        assert half_diameter <= b.radius <= half_diameter * math.sqrt(2) + 1e-12

    @pytest.mark.parametrize(
        "support",
        [
            [[1.5, -2.0]],
            [[1.0, 2.0], [1.0, 2.0]],
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
            [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-13]],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
            [[3.0, 3.0, 3.0]] * 4,
            [[0.0, 0.0], [0.0, 1e-9], [1.0, 0.0]],
            [[-1.5, 0.5]] * 3,
        ],
    )
    def test_singular_support_does_not_raise(self, support):
        # Each support gets the first ball of the solver's one loop, which
        # picks the ball by support size, with the previous solver's bits
        # and the support's indices.  Each also gives weights that rebuild
        # its center from the support.
        idx = tuple(range(len(support)))
        center, r2, (got, beta) = verifier._mtf(support, [0], 0, idx, len(support[0]))
        assert got == idx and len(beta) == len(support) - 1
        assert all(math.isfinite(c) for c in center) and math.isfinite(r2)
        assert _bits((center, r2)) == _bits(_previous_circumball(support))
        s0 = support[0]
        rebuilt = [x + sum(b * (s[a] - x) for b, s in zip(beta, support[1:])) for a, x in enumerate(s0)]
        assert rebuilt == pytest.approx(center, abs=1e-12)


class TestVerifyHomothetic:
    def test_exact_grid_identity(self):
        q = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        r = verify_homothetic(q, SQUARE, range(4), 1 / 3)
        assert r.accepted
        assert r.max_relative_deviation <= 1e-9
        assert r.witness_scale == pytest.approx(1.0, rel=1e-6)

    def test_jittered_grid_accepted(self):
        # Each coordinate moved by <= 0.2: deviation 0.2*sqrt(2) ~ 0.283 <= 1/3.
        q = PointSet(2, [(0.2, -0.2), (1.2, 0.2), (-0.2, 1.2), (0.8, 0.8)])
        r = verify_homothetic(q, SQUARE, range(4), 1 / 3)
        assert r.accepted
        assert r.max_relative_deviation == pytest.approx(0.2 * math.sqrt(2), abs=1e-6)

    def test_collinear_vs_square_rejected(self):
        q = PointSet(2, [(0, 0), (1, 0), (2, 0), (3, 0)])
        r = verify_homothetic(q, SQUARE, range(4), 1 / 3)
        assert not r.accepted
        assert r.max_relative_deviation > 1 / 3

    def test_numerically_coincident_candidate_rejected(self):
        # Both sets are scaled by powers of two into the unit range, so an
        # exact copy is accepted at any scale.  Distinct points whose squared
        # radius underflows there are rejected like exact duplicates, and a
        # witness that leaves the float range in the input's units raises.
        tri = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        for size in (1e-300, 1e-160, 1e-150, 1e150, 1e160):
            q = PointSet(2, [(0, 0), (size, 0), (0, size)])
            r = verify_homothetic(q, tri, range(3), 0.3)
            assert r.accepted and r.max_relative_deviation <= 1e-12
            assert r.witness_scale == pytest.approx(size, rel=1e-12)
        q = PointSet(2, [(0.5, 0), (0.5, 1e-170), (0.5, 2e-170)])
        with pytest.raises(ValueError, match="normal float range"):
            verify_homothetic(q, tri, range(3), 0.3)
        for size, pat in ((1e300, 1e-150), (1e-300, 1e150)):
            q = PointSet(2, [(0, 0), (size, 0), (0, size)])
            tiny = Pattern(2, [(0, 0), (pat, 0), (0, pat)])
            with pytest.raises(ValueError, match="float range"):
                verify_homothetic(q, tiny, range(3), 0.3)

    def test_bad_assignment(self):
        q = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            verify_homothetic(q, SQUARE, [0, 0, 1, 2], 1 / 3)
        with pytest.raises(ValueError):
            verify_homothetic(PointSet(2, [(0, 0)] * 4), SQUARE, range(4), 1 / 3)

    def test_exact_copies_any_scale(self):
        rng = random.Random(3)
        p = Pattern(2, [(0, 0), (2, 1), (1, 3)])
        for _ in range(20):
            lam = rng.uniform(0.05, 20)
            ax, ay = rng.uniform(-10, 10), rng.uniform(-10, 10)
            q = PointSet(2, [(ax + lam * pt[0], ay + lam * pt[1]) for pt in p.points])
            r = verify_homothetic(q, p, range(3), 0.01)
            assert r.accepted
            assert r.max_relative_deviation <= 1e-7
            assert r.witness_scale == pytest.approx(lam, rel=1e-5)

    def test_affine_invariance(self):
        rng = random.Random(5)
        p = Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        for _ in range(20):
            pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(4)]
            if len(set(pts)) < 4:
                continue
            q = PointSet(2, pts)
            alpha, bx, by = rng.uniform(0.2, 5), rng.uniform(-9, 9), rng.uniform(-9, 9)
            q2 = PointSet(2, [(alpha * x + bx, alpha * y + by) for x, y in pts])
            r1 = verify_homothetic(q, p, range(4), 0.25)
            r2 = verify_homothetic(q2, p, range(4), 0.25)
            assert r1.accepted == r2.accepted
            assert r1.max_relative_deviation == pytest.approx(
                r2.max_relative_deviation, abs=1e-9
            )
            if r1.accepted:
                assert r2.witness_scale == pytest.approx(alpha * r1.witness_scale, rel=1e-6)

    def test_agrees_with_verify_ap_on_the_line(self):
        rng = random.Random(9)
        checked = 0
        for _ in range(200):
            k = rng.choice([3, 4])
            if rng.random() < 0.5:
                a, r0 = rng.uniform(-5, 5), rng.uniform(0.5, 3)
                q = sorted(a + i * r0 + rng.uniform(-0.4, 0.4) * r0 for i in range(k))
            else:
                q = sorted(rng.uniform(0, 10) for _ in range(k))
            if any(b - a < 1e-6 for a, b in zip(q, q[1:])):
                continue
            eps = rng.uniform(0.05, 1 / 3)
            ap = verify_ap(q, eps)
            # Skip razor-thin margins where the two solvers' tolerances differ.
            if abs(ap.max_relative_deviation - eps) < 1e-6:
                continue
            pat = Pattern(1, [(float(i),) for i in range(k)])
            hom = verify_homothetic(PointSet(1, [(v,) for v in q]), pat, range(k), eps)
            assert ap.accepted == hom.accepted, (q, eps)
            # On the line the homothety search solves verify_ap's exact
            # Chebyshev fit (the search stops at a relative tolerance of 1e-13).
            assert hom.max_relative_deviation == pytest.approx(
                ap.max_relative_deviation, rel=1e-9
            ), (q, eps)
            checked += 1
        assert checked >= 150

    def test_optima_at_zero_reject_with_a_finite_witness(self):
        # Reversed assignments, and others whose best slope is not positive:
        # no positive scale beats a single point.  The search stops near 0,
        # with a finite witness that reproduces the deviation, which is the
        # exact optimum's.
        cases = [(PointSet(1, [(0,), (1,)]), Pattern(1, [(0,), (1,)]), [1, 0]),
                 (PointSet(1, [(0,), (1,), (2,)]), Pattern(1, [(0,), (1,), (2,)]), [2, 1, 0])]
        rng = random.Random(67)
        while len(cases) < 60:
            q, p, sigma, _ = _random_instance(rng, d=1, k_max=7)
            if rng.random() < 0.5:
                sigma = sorted(range(len(p)), key=lambda i: -p.coords[i, 0])
                q = PointSet(1, sorted(q.coords.tolist()))
            if (len(set(q.coords[:, 0].tolist())) == len(q)
                    and _exact_line_optimum(q, p, sigma)[0] == 0):
                cases.append((q, p, sigma))
        for q, p, sigma in cases:
            r = verify_homothetic(q, p, sigma, 1 / 3)
            assert not r.accepted
            assert math.isfinite(r.witness_scale) and math.isfinite(r.witness_anchor.coords[0])
            dev = r.max_relative_deviation
            assert _witness_deviation(q, p, sigma, r) == pytest.approx(dev, rel=1e-12)
            assert dev == pytest.approx(float(_exact_line_optimum(q, p, sigma)[1]), rel=1e-12)

    def test_line_points_that_coincide_numerically_get_a_verdict(self):
        # Distinct candidate points that are equal once scaled into the unit
        # range, or a subnormal distance apart there, are still certified.
        cases = [((1e-300, 2e-300, 1e300), (0, 1, 2)), ((0, 1e-320, 2e-320, 1), (0, 1, 2, 3))]
        for rows, pat in cases:
            q, p = PointSet(1, [(v,) for v in rows]), Pattern(1, [(v,) for v in pat])
            r = verify_homothetic(q, p, range(len(rows)), 0.3)
            assert not r.accepted and math.isfinite(r.max_relative_deviation)
            assert math.isfinite(r.witness_scale) and math.isfinite(r.witness_anchor.coords[0])
        # The first two coincide only once centred on the ball's center: the
        # copy is still exact.
        rows = [(2.0**-80,), (2.0**-79,), (0.75,)]
        r = verify_homothetic(PointSet(1, rows), Pattern(1, rows), range(3), 0.01)
        assert r.accepted and r.max_relative_deviation == 0.0 and r.witness_scale == 1.0

    def test_monotone_in_eps(self):
        q = PointSet(2, [(0.1, 0), (1.2, 0.1), (0, 1.1), (1, 0.9)])
        accepted = [verify_homothetic(q, SQUARE, range(4), e).accepted for e in (0.05, 0.15, 0.25, 1 / 3)]
        for a, b in zip(accepted, accepted[1:]):
            assert (not a) or b  # once accepted, stays accepted

    def test_witness_does_not_depend_on_eps(self):
        # eps only decides acceptance; the search minimises the deviation
        # itself.
        rng = random.Random(23)
        for _ in range(10):
            q = PointSet(2, [(x + rng.uniform(-0.3, 0.3), y + rng.uniform(-0.3, 0.3))
                             for x, y in SQUARE.coords.tolist()])
            results = [verify_homothetic(q, SQUARE, range(4), e) for e in (0.05, 0.15, 0.25, 1 / 3)]
            for r in results[1:]:
                assert r.max_relative_deviation == results[0].max_relative_deviation
                assert r.witness_scale == results[0].witness_scale
                assert r.witness_anchor == results[0].witness_anchor

    def test_meb_solves_per_grid_certificate(self):
        # The support walk with warm-started balls: 2 radius solves and 11
        # walk solves for this near-exact grid, whose many kinks near the
        # minimum left Brent's search few parabolic steps (62 solves, and
        # about 105 for the two searches before it).
        rng = random.Random(6)
        grid = Pattern(2, [(i, j) for i in range(6) for j in range(6)])
        q = PointSet(2, [(3.7 + 2 * i + rng.uniform(-0.3, 0.3), -1.2 + 2 * j + rng.uniform(-0.3, 0.3))
                         for i, j in grid.coords.tolist()])
        r, solves = _certify(q, grid, range(36), 1 / 3)
        assert r.accepted
        assert solves <= 20

    def test_general_elimination_only_for_four_point_supports(self, monkeypatch):
        # The written-out levels build every ball of a plane certificate, so
        # the general elimination is not called; a certificate in space
        # reaches supports of four points, and calls it.
        calls = []
        general = verifier._circumball

        def counting(support):
            calls.append(len(support))
            return general(support)

        monkeypatch.setattr(verifier, "_circumball", counting)
        rng = random.Random(6)
        grid = Pattern(2, [(i, j) for i in range(6) for j in range(6)])
        q = PointSet(2, [(3.7 + 2 * i + rng.uniform(-0.3, 0.3), -1.2 + 2 * j + rng.uniform(-0.3, 0.3))
                         for i, j in grid.coords.tolist()])
        assert verify_homothetic(q, grid, range(36), 1 / 3).accepted
        assert calls == []
        cube = Pattern(3, [(i, j, l) for i in range(3) for j in range(3) for l in range(3)])
        q = PointSet(3, [tuple(2 * x + rng.uniform(-0.3, 0.3) for x in row) for row in cube.coords.tolist()])
        assert verify_homothetic(q, cube, range(27), 1 / 3).accepted
        assert calls and min(calls) == 4

    def test_matches_two_search_reference(self):
        _compare_with_reference(random.Random(31), 200)

    def test_walk_matches_brent_with_fewer_solves(self):
        # 2,000 instances in d = 1..3: the same verdicts as Brent's search
        # (the certificate before the walk) and as the two-search
        # certificate (every eighth instance), deviations never above
        # theirs by more than 1e-12 relative plus the rounding of evaluating
        # a deviation at the candidate's coordinates, at most 8 ball solves
        # per certificate on average against Brent's 34 (7.2; the two radius
        # solves included), and a witness that gives the reported deviation
        # bit for bit.
        rng = random.Random(47)
        compared = walk_solves = brent_solves = 0
        while compared < 2000:
            q, p, sigma, eps = _random_instance(rng)
            if len(set(map(tuple, q.coords.tolist()))) < len(q):
                continue
            r, n = _certify(q, p, sigma, eps)
            b, m = _certify(q, p, sigma, eps, brent_homothetic)
            rounding = 16 * np.finfo(float).eps * np.abs(q.coords).max() / (r.witness_scale * p.min_pairwise)
            assert r.accepted == b.accepted
            assert r.max_relative_deviation <= b.max_relative_deviation * (1 + 1e-12) + rounding
            assert _witness_deviation_nd(q, p, sigma, r) == r.max_relative_deviation
            if compared % 8 == 0:
                accepted, dev = _reference_homothetic(q, p, sigma, eps)
                assert r.accepted == accepted
                assert r.max_relative_deviation <= dev * (1 + 1e-12) + rounding
            compared += 1
            walk_solves += n
            brent_solves += m
        assert walk_solves <= 8 * compared and brent_solves >= 30 * compared

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_walk_matches_brent_on_grid_candidates(self, k):
        # Jittered k x k grid copies, accepted, and copies stretched along x
        # by 1 + 4 eps, which fit no homothety: the same verdicts as
        # Brent's search, and at most 16 ball solves per certificate, the
        # two radius solves included (7.1 to 7.6 on average; Brent's took
        # 44 to 46).
        rng = random.Random(50 + k)
        grid = Pattern(2, [(i, j) for i in range(k) for j in range(k)])
        solves = []
        for stretched in (False, True):
            for _ in range(15):
                ax, ay, lam = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.5, 5.0)
                jit, sx = 0.2 / 3, 7 / 3 if stretched else 1.0
                q = PointSet(2, [(ax + lam * (sx * x + rng.uniform(-jit, jit)),
                                  ay + lam * (y + rng.uniform(-jit, jit)))
                                 for x, y in grid.coords.tolist()])
                r, n = _certify(q, grid, range(k * k), 1 / 3)
                b = brent_homothetic(q, grid, range(k * k), 1 / 3)
                assert r.accepted == b.accepted == (not stretched)
                assert r.max_relative_deviation <= b.max_relative_deviation * (1 + 1e-12)
                assert _witness_deviation_nd(q, grid, range(k * k), r) == r.max_relative_deviation
                solves.append(n)
        assert max(solves) <= 16

    def test_minimum_at_zero_is_decided_from_the_slope_at_zero(self):
        # Random triangles against the right triangle at eps 1/3: where no
        # scale fits better than a single point, P's ball already shows a
        # slope >= 0 at mu = 0, so the certificate takes the two radius
        # solves and the witness's (Brent's search took about 77 there).
        # The witness is finite and gives the deviation R(0)/m_P.
        rng = random.Random(3)
        tri = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        at_zero = 0
        for _ in range(400):
            q = PointSet(2, [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)])
            r, n = _certify(q, tri, range(3), 1 / 3)
            b = brent_homothetic(q, tri, range(3), 1 / 3)
            assert r.accepted == b.accepted
            assert r.max_relative_deviation <= b.max_relative_deviation * (1 + 1e-12)
            if r.witness_scale > 1e12:
                at_zero += 1
                assert not r.accepted and n <= 3
                assert math.isfinite(r.witness_scale)
                assert all(math.isfinite(c) for c in r.witness_anchor.coords)
                assert r.max_relative_deviation == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert at_zero >= 150

    def test_meb_keeps_the_bits_and_order_of_the_previous_solver(self):
        # Clouds in d = 1..4 of 1 to 41 points (log-uniform), with repeated
        # rows: the same center, squared radius and visiting order, bit for
        # bit.
        rng = random.Random(53)
        for _ in range(10_000):
            d, k = rng.randint(1, 4), int(41.99 ** rng.random())
            cloud = [[rng.uniform(-3, 3) for _ in range(d)] for _ in range(k)]
            cloud += [list(rng.choice(cloud)) for _ in range(rng.randint(0, 3))]
            order = list(range(len(cloud)))
            rng.shuffle(order)
            ref_order = list(order)
            assert verifier._meb(cloud, order)[:2] == _previous_meb(cloud, ref_order)
            assert order == ref_order

    def test_three_point_balls_keep_the_bits_of_the_previous_elimination(self):
        # Triples that take every branch of the written-out 2x2 elimination:
        # a column skipped at the first pivot (b within 1e-16..1e-12 of a) or
        # at the second (collinear, or off a line by 1e-9..1e-5 of its
        # length, so the pivot lies near tiny), rows swapped (c far along
        # b - a), about a third of the coordinates up to 1e6 from the origin.
        rng = random.Random(61)
        for _ in range(4000):
            d = rng.randint(2, 6)
            base = [rng.uniform(-1e6, 1e6) if rng.random() < 0.3 else 0.0 for _ in range(d)]
            a = [x + rng.uniform(-1, 1) for x in base]
            u = [rng.gauss(0, 1) for _ in range(d)]
            kind = rng.randrange(4)
            if kind == 0:
                b = [x + 10.0 ** rng.uniform(-16, -12) * t for x, t in zip(a, u)]
                c = [x + rng.uniform(-1, 1) for x in a]
            else:
                t, off = rng.uniform(-3, 3), (0.0, 10.0 ** rng.uniform(-9, -5), 1.0)[kind - 1]
                b = [x + y for x, y in zip(a, u)]
                c = [x + t * y + off * rng.gauss(0, 1) for x, y in zip(a, u)]
            support = rng.choice([[a, b, c], [a, c, b], [c, a, b]])
            assert _bits(verifier._circumball3(*support)[:2]) == _bits(_previous_circumball(support))

    def test_meb_keeps_the_bits_and_order_on_degenerate_clouds(self):
        # Collinear, nearly collinear, near-repeated, cocircular, stretched
        # and far-offset clouds in d = 1..6, each in four visiting orders:
        # the same center, squared radius and order, bit for bit.
        rng = random.Random(59)
        for _ in range(2000):
            cloud = _degenerate_cloud(rng)
            for _ in range(4):
                order = list(range(len(cloud)))
                rng.shuffle(order)
                ref_order = list(order)
                assert _bits(verifier._meb(cloud, order)[:2]) == _bits(_previous_meb(cloud, ref_order))
                assert order == ref_order

    def test_certificates_keep_their_bits_with_the_previous_solver(self):
        # Whole certificates by Brent's search equal those made with the
        # previous ball solver: on jittered k x k grids and grids stretched
        # by 1 + 4 eps along x, k = 3..6, and on random instances in
        # d = 1..3.
        rng = random.Random(67)
        cases = []
        for k in range(3, 7):
            grid = Pattern(2, [(i, j) for i in range(k) for j in range(k)])
            for n in range(48):
                ax, ay, lam = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.5, 5.0)
                jit, sx = 0.2 / 3, 7 / 3 if n % 2 else 1.0
                q = PointSet(2, [(ax + lam * (sx * x + rng.uniform(-jit, jit)),
                                  ay + lam * (y + rng.uniform(-jit, jit)))
                                 for x, y in grid.coords.tolist()])
                cases.append((q, grid, range(k * k), 1 / 3))
        while len(cases) < 192 + 1000:
            q, p, sigma, eps = _random_instance(rng)
            if len(set(map(tuple, q.coords.tolist()))) == len(q):
                cases.append((q, p, sigma, eps))
        for case in cases:
            assert _bits(brent_homothetic(*case)) == _bits(brent_homothetic(*case, meb=_previous_meb))


class TestCollinear:
    def test_collinear_points_accepted(self):
        acc, _ = verify_collinear(PointSet(2, [(0, 0), (1, 0), (2, 0)]), 0.01)
        assert acc

    def test_equilateral_rejected_at_eps_1(self):
        tri = PointSet(2, [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        acc, worst = verify_collinear(tri, 1.0)
        assert not acc
        angles = sorted(triangle_angles(*(tri.points[i] for i in worst)))
        assert angles[1] == pytest.approx(math.pi / 3, rel=1e-9)

    def test_flat_triangle_accepted(self):
        acc, _ = verify_collinear(PointSet(2, [(0, 0), (1, 0.01), (2, 0)]), 0.05)
        assert acc

    def test_duplicate_points_raise(self):
        with pytest.raises(ValueError):
            verify_collinear(PointSet(2, [(0, 0), (0, 0), (1, 0)]), 0.1)

    def test_works_in_3d(self):
        s = PointSet(3, [(0, 0, 0), (1, 0.001, 0.002), (2, 0, 0), (3, 0.001, 0)])
        acc, _ = verify_collinear(s, 0.01)
        assert acc


class TestCylinderRadius:
    def test_collinear_zero(self):
        assert cylinder_radius(PointSet(2, [(0, 0), (1, 0), (2, 0)])) == 0.0

    def test_height_above_diameter(self):
        assert cylinder_radius(PointSet(2, [(0, 0), (2, 0), (1, 0.1)])) == pytest.approx(0.1)

    def test_tied_diameter_takes_the_first_pair_in_index_order(self):
        # Pairs (0, 3) and (1, 2) both have squared length 40.  The line
        # through points 0 and 3 is 28/sqrt(40) from point 1; the line
        # through points 1 and 2 would give 24/sqrt(40).
        pts = [(5, 0), (0, 1), (6, 3), (3, 6)]
        assert _kernels.pair_sq_extremes(np.asarray(pts, float))[1:] == (40.0, (0, 3))
        assert cylinder_radius(PointSet(2, pts)) == pytest.approx(28 / math.sqrt(40), rel=1e-15)

    def test_diameter_past_the_float_range(self):
        # Squares of these differences overflow in the input's units.
        s = PointSet(2, [(0, 0), (1e308, 1e308), (-1e308, -1e308)])
        assert cylinder_radius(s) == 0.0
        s = PointSet(2, [(0, 0), (1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)])
        assert cylinder_radius(s) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)

    def test_coincident_points_lie_on_every_line(self):
        assert cylinder_radius(PointSet(2, [(3, 4)] * 3)) == 0.0

    def test_bound_on_accepted_sets(self):
        # Every accepted eps-collinear set lies in a cylinder of radius eps*D.
        rng = random.Random(21)
        for _ in range(40):
            eps = rng.uniform(0.02, 0.5)
            n = rng.randint(3, 8)
            length = rng.uniform(1, 5)
            pts = []
            for _ in range(n):
                t = rng.uniform(0, length)
                off = rng.uniform(-1, 1) * eps * 0.05
                pts.append((t, off))
            if len(set(pts)) < n:
                continue
            s = PointSet(2, pts)
            acc, _ = verify_collinear(s, eps)
            if acc:
                from apxpat.geometry import diameter

                assert cylinder_radius(s) <= eps * diameter(s) + 1e-12


@given(
    offs=st.lists(
        st.floats(min_value=-0.3, max_value=0.3), min_size=4, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_homothetic_witness_deviation_consistent(offs):
    pts = [(0 + offs[0], 0), (1 + offs[1], 0), (0 + offs[2], 1), (1 + offs[3], 1)]
    if len(set(pts)) < 4:
        return
    q = PointSet(2, pts)
    r = verify_homothetic(q, SQUARE, range(4), 1 / 3)
    # The witness itself realizes the reported deviation.
    dev = max(
        math.dist(
            q[i].coords,
            tuple(r.witness_anchor.coords[a] + r.witness_scale * SQUARE[i].coords[a] for a in range(2)),
        )
        for i in range(4)
    ) / (r.witness_scale * SQUARE.min_pairwise)
    assert dev == pytest.approx(r.max_relative_deviation, abs=1e-12)
    assert r.accepted == (r.max_relative_deviation <= 1 / 3 + 1e-9)


# ---------------------------------------------------------------------------
# The ball solver before its lean rewrite, kept as the reference the solver
# must match bit for bit, and a counter of a certificate's ball solves.
# ---------------------------------------------------------------------------

_PIVOT_REL = 1e-14
_CONTAIN_REL = 5e-14
_CENTER_REL = 4e-15


def _certify(q, p, sigma, eps, certificate=verify_homothetic):
    """The certificate, and the number of balls it solved."""
    meb = verifier._meb
    solves = 0

    def counting(*args):
        nonlocal solves
        solves += 1
        return meb(*args)

    verifier._meb = counting
    try:
        return certificate(q, p, sigma, eps), solves
    finally:
        verifier._meb = meb


def _previous_circumball(support):
    s0 = support[0]
    u = [[x - y for x, y in zip(s, s0)] for s in support[1:]]
    m = len(u)
    if m == 0:
        return list(s0), 0.0
    if m == 1:
        offset = [0.5 * t for t in u[0]]
        return [x + y for x, y in zip(s0, offset)], sum(map(mul, offset, offset))
    rows = [[sum(map(mul, ui, uj)) for uj in u] + [0.5 * sum(map(mul, ui, ui))] for ui in u]
    tiny = _PIVOT_REL * max([rows[j][j] for j in range(m)])
    pivots = []
    r = 0
    for c in range(m):
        p = r
        for i in range(r + 1, m):
            if abs(rows[i][c]) > abs(rows[p][c]):
                p = i
        if abs(rows[p][c]) <= tiny:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r]
        for row in rows[r + 1 :]:
            f = row[c] / piv[c]
            for j in range(c, m + 1):
                row[j] -= f * piv[j]
        pivots.append((r, c))
        r += 1
    beta = [0.0] * m
    for r, c in reversed(pivots):
        row = rows[r]
        beta[c] = (row[m] - sum(map(mul, row[c + 1 : m], beta[c + 1 :]))) / row[c]
    offset = [sum(map(mul, beta, col)) for col in zip(*u)]
    return [x + y for x, y in zip(s0, offset)], sum(map(mul, offset, offset))


def _previous_reach(center, r2):
    r = math.sqrt(r2)
    return r * (1.0 + _CONTAIN_REL) + _CENTER_REL * max(map(abs, center))


def _previous_mtf(cloud, order, end, support, dim):
    if support:
        center, r2 = _previous_circumball(support)
        if len(support) == dim + 1:
            return center, r2
        lim = _previous_reach(center, r2)
    else:
        center, r2, lim = cloud[order[0]], 0.0, -1.0
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if math.dist(p, center) > lim:
            center, r2 = _previous_mtf(cloud, order, i, support + [p], dim)
            lim = _previous_reach(center, r2)
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


def _previous_meb(cloud, order):
    return _previous_mtf(cloud, order, len(order), [], len(cloud[0]))


def _bits(x):
    """x's repr, which tells every float bit apart (-0.0 from 0.0 too)."""
    return repr(x)


def _degenerate_cloud(rng):
    """A cloud of 3 to 12 points in d = 1..6, of one of six kinds, with up to
    two rows repeated."""
    d, kind, k = rng.randint(1, 6), rng.randrange(6), rng.randint(3, 12)
    scale = 10.0 ** rng.uniform(-3, 3)
    base = [rng.uniform(-1e6, 1e6) if kind == 5 else rng.uniform(-1, 1) for _ in range(d)]
    line = [rng.gauss(0, 1) for _ in range(d)]
    if kind == 0:  # collinear
        cloud = [[b + scale * t * x for b, x in zip(base, line)]
                 for t in [rng.uniform(-1, 1) for _ in range(k)]]
    elif kind == 1:  # off a line by 1e-9..1e-5 of its length
        cloud = [[b + scale * (t * x + 10.0 ** rng.uniform(-9, -5) * rng.gauss(0, 1))
                  for b, x in zip(base, line)] for t in [rng.uniform(-1, 1) for _ in range(k)]]
    elif kind == 2:  # two points 1e-14..1e-8 apart among three or four others
        cloud = [[b + scale * rng.uniform(-1, 1) for b in base] for _ in range(rng.randint(4, 5))]
        cloud.append([x + scale * 10.0 ** rng.uniform(-14, -8) * rng.gauss(0, 1) for x in cloud[0]])
    elif kind == 3:  # on a circle, half of them at quarter turns
        plane = [[rng.gauss(0, 1) for _ in range(d)] for _ in range(2)]
        cloud = []
        for _ in range(k):
            t = rng.randrange(4) * math.pi / 2 if rng.random() < 0.5 else rng.uniform(0, 2 * math.pi)
            cloud.append([b + scale * (math.cos(t) * x + math.sin(t) * y) for b, x, y in zip(base, *plane)])
    elif kind == 4:  # stretched tenfold along the first axis
        cloud = [[b + scale * rng.uniform(-1, 1) * (10.0 if a == 0 else 1.0) for a, b in enumerate(base)]
                 for _ in range(k)]
    else:  # a cluster offset by up to 1e6 from the origin
        cloud = [[b + scale * 1e-3 * rng.uniform(-1, 1) for b in base] for _ in range(k)]
    return cloud + [list(rng.choice(cloud)) for _ in range(rng.randint(0, 2))]


def _brute_radius(pts):
    """The minimum enclosing ball's radius, as the smallest ball that has at
    most d+1 of the points on its boundary, its center in their affine
    hull, and every point inside."""
    best = math.inf
    for size in range(1, pts.shape[1] + 2):
        for sub in combinations(pts, size):
            center, r = _brute_circumball(np.array(sub))
            if center is not None and np.all(np.linalg.norm(pts - center, axis=1) <= r * (1 + 1e-12)):
                best = min(best, r)
    return best


def _brute_circumball(sub):
    """Center and radius of the ball with every row of sub on its boundary
    and its center in their affine hull; (None, inf) if they are affinely
    dependent."""
    u = sub[1:] - sub[0]
    if len(u) == 0:
        return sub[0], 0.0
    g = u @ u.T
    if np.linalg.matrix_rank(g, tol=1e-9 * np.abs(g).max()) < len(u):
        return None, math.inf
    offset = np.linalg.solve(g, 0.5 * np.einsum("ij,ij->i", u, u)) @ u
    return sub[0] + offset, float(np.linalg.norm(offset))


# ---------------------------------------------------------------------------
# The homothety certificate before it became one convex search over 1/scale:
# a golden-section search for the scale that first meets eps, a bracket
# widened up to 7 times, then a second search for the smallest relative
# deviation, each solving a numpy Welzl ball per evaluation.  Kept as the
# reference the new search must never do worse than.
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _ref_circumball(support):
    if not support:
        return None
    p0 = np.asarray(support[0], dtype=float)
    if len(support) == 1:
        return p0, 0.0
    u = np.asarray(support[1:], dtype=float) - p0
    g = u @ u.T
    rhs = 0.5 * np.einsum("ij,ij->i", u, u)
    try:
        beta = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(g, rhs, rcond=None)[0]
    offset = beta @ u
    return p0 + offset, float(np.dot(offset, offset))


def _ref_mb(pts, end, support, dim):
    ball = _ref_circumball(support)
    if len(support) == dim + 1:
        return ball
    for i in range(end):
        p = pts[i]
        if ball is None:
            ball = _ref_mb(pts, i, support + [p], dim)
            continue
        center, r2 = ball
        d2 = 0.0
        for a in range(dim):
            t = p[a] - center[a]
            d2 += t * t
        if d2 > r2 * (1.0 + 1e-13) + 1e-300:
            ball = _ref_mb(pts, i, support + [p], dim)
    return ball


def _ref_meb(cloud):
    if cloud.shape[1] == 1:
        lo, hi = float(cloud.min()), float(cloud.max())
        return np.asarray([(lo + hi) / 2.0]), (hi - lo) / 2.0
    shuffled = cloud.tolist()
    random.Random(0x5EEDBA11).shuffle(shuffled)
    center, r2 = _ref_mb(shuffled, len(shuffled), [], cloud.shape[1])
    return center, math.sqrt(max(r2, 0.0))


def _ref_golden_min(f, lo, hi):
    a, b = lo, hi
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > 1e-10 * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _reference_homothetic(q, p, sigma, eps):
    """(accepted, deviation) of the two-search certificate."""
    k = len(q)
    qa, pa, m_p = q.coords, p.coords[list(sigma)], p.min_pairwise
    d2 = [float(np.dot(qa[i] - qa[j], qa[i] - qa[j])) for i in range(k) for j in range(i + 1, k)]
    lam_lo = math.sqrt(min(d2)) / (2.0 * m_p)
    lam_hi = 2.0 * math.sqrt(max(d2)) / p.diameter
    if lam_hi <= lam_lo:
        lam_lo, lam_hi = min(lam_lo, lam_hi) * 0.5, max(lam_lo, lam_hi) * 2.0

    def radius_at(lam):
        return _ref_meb(qa - lam * pa)[1]

    lo, hi = lam_lo, lam_hi
    for _ in range(7):
        lam_f, gap_f = _ref_golden_min(lambda lam: radius_at(lam) - eps * lam * m_p, lo, hi)
        if gap_f <= 0.0:
            break
        width = hi - lo
        if hi - lam_f <= 1e-3 * width:
            hi *= 4.0
        elif lam_f - lo <= 1e-3 * width:
            lo *= 0.25
        else:
            break
    lam_g, _ = _ref_golden_min(lambda lam: radius_at(lam) / (lam * m_p), lo, hi)
    dev = min(radius_at(lam) / (lam * m_p) for lam in (lam_f, lam_g))
    return dev <= eps + TAU, dev


def _random_instance(rng, d=None, k_max=12):
    """A noisy homothetic copy of a random pattern: d = 1..3 unless given,
    k = 2..k_max, noise from exact to 1.0 * m_P, and a permuted assignment
    in 3 of 10."""
    d, k = d or rng.randint(1, 3), rng.randint(2, k_max)
    while True:
        pts = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(k)]
        if len(set(pts)) == k:
            p = Pattern(d, pts)
            if p.min_pairwise > 1e-3:
                break
    lam = math.exp(rng.uniform(-3, 3))
    anchor = [rng.uniform(-50, 50) for _ in range(d)]
    noise = rng.choice([0.0, 1e-9, 1e-3, 0.05, 0.2, 1 / 3, 0.5, 1.0]) * rng.random()
    sigma = list(range(k))
    if rng.random() < 0.3:
        rng.shuffle(sigma)
    rows = []
    for i in range(k):
        v = [rng.gauss(0, 1) for _ in range(d)]
        norm = math.hypot(*v) or 1.0
        r = noise * p.min_pairwise * lam * rng.random() ** (1 / d)
        rows.append(tuple(anchor[a] + lam * p.coords[sigma[i]][a] + r * v[a] / norm for a in range(d)))
    return PointSet(d, rows), p, sigma, rng.choice([0.05, 0.15, 0.25, 1 / 3])


def _compare_with_reference(rng, n):
    """Same verdicts as the two-search certificate, and never a larger
    deviation, beyond 1e-9 relative and the float rounding of evaluating a
    deviation at the candidate's coordinates (which both searches share)."""
    compared = 0
    for _ in range(n):
        q, p, sigma, eps = _random_instance(rng)
        if len(set(map(tuple, q.coords.tolist()))) < len(q):
            continue
        r = verify_homothetic(q, p, sigma, eps)
        accepted, dev = _reference_homothetic(q, p, sigma, eps)
        assert r.accepted == accepted
        rounding = 16 * np.finfo(float).eps * np.abs(q.coords).max() / (r.witness_scale * p.min_pairwise)
        assert r.max_relative_deviation <= dev * (1 + 1e-9) + rounding
        compared += 1
    assert compared >= 0.95 * n


# ---------------------------------------------------------------------------
# 1-D references: the exact optimum in rationals, and a witness's deviation.
# ---------------------------------------------------------------------------

def _exact_line_optimum(q, p, sigma):
    """(mu, deviation) of the exact 1-D optimum, in rationals.  R(mu)/m_P is
    convex in mu >= 0, and least at 0 or at the slope of a chord through
    two of the points (q_i, p_sigma(i)); 0 wins ties."""
    xs = [Fraction(v) for v in q.coords[:, 0].tolist()]
    ys = [Fraction(p.coords[s, 0].item()) for s in sigma]
    ps = sorted(ys)
    m_p = min(b - a for a, b in zip(ps, ps[1:]))

    def radius(mu):
        cloud = [mu * x - y for x, y in zip(xs, ys)]
        return (max(cloud) - min(cloud)) / 2

    slopes = [(ys[j] - ys[i]) / (xs[j] - xs[i]) for i, j in combinations(range(len(xs)), 2)]
    mu = min([Fraction(0)] + [s for s in slopes if s > 0], key=radius)
    return mu, radius(mu) / m_p


def _witness_deviation_nd(q, p, sigma, r):
    """The relative deviation of r's witness in the input's units, with the
    certificate's operations: the scaling into the unit range is exact, so
    it gives the reported deviation bit for bit."""
    anchor, s = r.witness_anchor.coords, r.witness_scale
    return max([math.dist(x, [a + s * y for a, y in zip(anchor, p.coords[i].tolist())])
                for x, i in zip(q.coords.tolist(), sigma)]) / (s * p.min_pairwise)


def _witness_deviation(q, p, sigma, r):
    """The relative deviation of r's witness, in the input's units."""
    a, s = r.witness_anchor.coords[0], r.witness_scale
    return max(abs(x - a - s * p.coords[i, 0]) for x, i in zip(q.coords[:, 0], sigma)) / (
        s * p.min_pairwise)

