"""Certification of candidate subsets.

Every searcher output passes through here.  Acceptance is always decided
from an explicitly constructed witness: the anchor translation and scale
(or common difference) that realize the best achievable relative
deviation, which is then compared against eps plus a fixed feasibility
tolerance TAU.  Constraint balls are closed, so boundary contact counts
as containment.

A homothetic copy is certified by one convex search.  With mu = 1/scale,
the relative deviation of a scale and its best anchor is R(mu)/m_P, where
R(mu) is the radius of the minimum enclosing ball of {mu*q_i - p_sigma(i)}.
R is convex in mu and its minimum lies in [0, 2*rad(P)/rad(Q)], so Brent's
minimiser over that bracket finds the best scale: parabolic steps through
the three best points so far, with a golden-section step wherever a
parabola would not shrink the bracket fast enough (R. P. Brent, Algorithms
for Minimization without Derivatives, 1973, ch. 5).  It needs about half
the evaluations of golden-section search alone.  Each evaluation's ball is
solved by Welzl's move-to-front recursion in Python floats, starting from
the order the previous solve left, so the previous support is tested
first.  The recursion's levels that hold zero to three support points are
written out as loops that take their support points as arguments, and the
three-point ball's 2x2 elimination is spelled out; they keep the
recursion's visiting order and every bit of its centers and radii.  Only
supports of four or more points (d >= 3) go through the general level.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

import numpy as np

from ._kernels import _to_unit
from .errors import DimensionMismatch
from .geometry import Pattern, Point, PointSet

__all__ = [
    "TAU",
    "VerifyResult",
    "verify_ap",
    "verify_homothetic",
    "verify_collinear",
    "triangle_angles",
]

# Relative feasibility tolerance: constraints satisfied up to TAU count as
# satisfied, so float rounding never flips a certificate on exact inputs.
TAU = 1e-9

_BRENT_REL_TOL = 1e-13
_PIVOT_REL = 1e-14
_CONTAIN = 1.0 + 5e-14
_CENTER_REL = 4e-15
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_MEB_SHUFFLE_SEED = 0x5EEDBA11


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    witness_anchor: Point
    witness_scale: float
    max_relative_deviation: float


# ---------------------------------------------------------------------------
# 1-D arithmetic progressions: exact 2-parameter Chebyshev fit.
#
# Feasibility |q_i - (a + i*r)| <= eps*r for some a, r > 0 is, after
# substituting rho = 1/r and alpha = a/r, the minimax line fit of the index
# sequence 0..k-1 against the coordinates.  For a 2-parameter Chebyshev fit
# on distinct abscissae the optimum is attained on a 3-point reference set
# with equioscillating errors, so the exact optimum is the maximum over all
# index triples of the triple's best error.
# ---------------------------------------------------------------------------

def verify_ap(q: Sequence[float], eps: float) -> VerifyResult:
    """Certify a strictly increasing k >= 3 sequence as an eps-approximate AP.

    Computed on the terms scaled by a power of two into the unit range.
    Raises ValueError when terms coincide once scaled, and when the witness
    leaves the float range in the input's units."""
    vals = [float(v) for v in q]
    k = len(vals)
    if k < 3:
        raise ValueError("need at least three terms")
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ValueError("duplicate values")
        if a > b:
            raise ValueError("input must be sorted ascending")
    eps = float(eps)
    if not (0.0 <= eps <= 1.0 / 3.0):
        raise ValueError("eps must lie in [0, 1/3]")

    # In the unit range, by an exact power of two, so no span overflows and
    # no slope does; on normal-range input every step below gives the bits
    # of the same formula in the input's units.
    unit, ex = _to_unit(np.asarray(vals))
    vals = unit.tolist()
    if any(a == b for a, b in zip(vals, vals[1:])):
        raise ValueError("values coincide once scaled into the unit range")

    best_t = -1.0
    best = (0, 1, 2)
    for i, j, l in combinations(range(k), 3):
        rho = (l - i) / (vals[l] - vals[i])
        if rho == math.inf:
            # A subnormal span: score the triple by the ratio of its spans.
            e = (j - i) - (l - i) * ((vals[j] - vals[i]) / (vals[l] - vals[i]))
        else:
            e = (j - i) - rho * (vals[j] - vals[i])
        t = abs(e) / 2.0
        if t > best_t:
            best_t = t
            best = (i, j, l)
    i, j, l = best
    rho = (l - i) / (vals[l] - vals[i])
    e = (j - i) - rho * (vals[j] - vals[i])
    # Optimal line: chord through the outer pair, shifted by half the
    # middle residual; alpha is its negated intercept in rho*x - alpha = y.
    alpha = rho * vals[i] - i - e / 2.0
    dev = max(abs(rho * vals[m] - alpha - m) for m in range(k))
    r = 1.0 / rho
    a = alpha * r
    try:
        r, a = math.ldexp(r, ex), math.ldexp(a, ex)
    except OverflowError:
        r = 0.0
    if r == 0.0:
        raise ValueError("the witness leaves the float range in the input's units")
    return VerifyResult(
        accepted=dev <= eps + TAU,
        witness_anchor=Point((a,)),
        witness_scale=r,
        max_relative_deviation=dev,
    )


# ---------------------------------------------------------------------------
# Minimum enclosing ball: Welzl's recursion with the move-to-front heuristic,
# in Python floats.  Each point that leaves the current ball is moved to the
# front of the visiting order, so a later solve over a slightly moved cloud
# meets its support first and usually finishes in one containment pass.
# ---------------------------------------------------------------------------

def _circumball(support: list[list[float]]) -> tuple[list[float], float]:
    """Center and squared radius of the smallest ball with a support of four
    or more points on its boundary.

    The center is s_0 + sum_j beta_j u_j with u_j = s_j - s_0, where beta
    solves the Gram system (u_i . u_j) beta = |u_i|^2 / 2 by Gaussian
    elimination with partial pivoting.  A column whose best pivot is
    negligible (an affinely dependent support) gets beta_j = 0, so a
    degenerate support never raises.
    """
    s0 = support[0]
    m = len(support) - 1
    u = [[x - y for x, y in zip(s, s0)] for s in support[1:]]
    rows = [[sum(map(mul, ui, uj)) for uj in u] + [0.5 * sum(map(mul, ui, ui))] for ui in u]
    tiny = _PIVOT_REL * max([rows[j][j] for j in range(m)])
    pivots = []  # (row, column) of each pivot taken
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


def _circumball3(a, b, c):
    """_circumball for the support (a, b, c), written out for its 2x2 Gram
    system: the same pivots, skipped columns and float operations, in the
    same order."""
    u = [x - y for x, y in zip(b, a)]
    v = [x - y for x, y in zip(c, a)]
    g00 = sum(map(mul, u, u))
    g01 = sum(map(mul, u, v))
    g11 = sum(map(mul, v, v))
    tiny = _PIVOT_REL * max(g00, g11)
    # Column 0 pivots on the row with the larger entry, the first on a tie.
    if abs(g01) > g00:
        p0, p1, p2, o0, o1, o2 = g01, g11, 0.5 * g11, g00, g01, 0.5 * g00
    else:
        p0, p1, p2, o0, o1, o2 = g00, g01, 0.5 * g00, g01, g11, 0.5 * g11
    if abs(p0) <= tiny:
        # Column 0 skipped, so |g00| and |g01| are at most tiny and g11 is
        # 0 or above tiny: column 1 pivots on g11 if it is the larger entry,
        # and is skipped otherwise.
        beta0 = 0.0
        beta1 = 0.5 * g11 / g11 if g11 > abs(g01) else 0.0
    else:
        f = o0 / p0
        o1 -= f * p1
        o2 -= f * p2
        beta1 = 0.0 if abs(o1) <= tiny else o2 / o1
        # Each 0.0 + is the start of the sum it replaces, which turns a
        # first term of -0.0 into 0.0.
        beta0 = (p2 - (0.0 + p1 * beta1)) / p0
    offset = [0.0 + beta0 * x + beta1 * y for x, y in zip(u, v)]
    return [x + y for x, y in zip(a, offset)], sum(map(mul, offset, offset))


# The levels of the recursion that hold zero to three support points are
# written out below, each taking its support points as arguments; _mtf is
# the level for four or more.  They visit, test, move and compute exactly
# as one recursive level over a support list did, with _circumball3 for
# three points, so every center, squared radius and visiting order has the
# same bits as that recursion's.
#
# A point is outside the ball beyond the distance lim: besides a slack
# relative to the radius, it forgives about 18 ulps of the center's largest
# coordinate.  The center is rounded to its ulps, and without that term a
# repeat of a support point far from the origin can test outside and be
# pushed as a second, degenerate support.  With no radius, lim is that term
# alone.

def _meb(cloud: list[list[float]], order: list[int]) -> tuple[list[float], float]:
    """Center and squared radius of the smallest ball around the cloud's rows,
    visited in ``order``, which is reordered in place (move-to-front).  The
    center of a ball around one point is that row itself, not a copy."""
    dist, sqrt = math.dist, math.sqrt
    dim = len(cloud[0])
    # The first point visited starts the ball, in place, with no move.
    center, r2 = cloud[order[0]], 0.0
    lim = _CENTER_REL * max(map(abs, center))
    for i in range(1, len(order)):
        j = order[i]
        p = cloud[j]
        if dist(p, center) > lim:
            center, r2 = _mtf1(cloud, order, i, p, dim)
            lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            del order[i]
            order.insert(0, j)
    return center, r2


def _mtf1(cloud, order, end, a, dim):
    """Smallest ball around cloud[order[:end]] with a on its boundary."""
    dist, sqrt = math.dist, math.sqrt
    center, r2 = a, 0.0
    lim = _CENTER_REL * max(map(abs, a))
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if dist(p, center) > lim:
            center, r2 = _mtf2(cloud, order, i, a, p, dim)
            lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


def _mtf2(cloud, order, end, a, b, dim):
    """Smallest ball around cloud[order[:end]] with a and b on its boundary."""
    # beta = (|u|^2 / 2) / |u|^2 = 1/2 exactly (u = 0 for a repeated point).
    offset = [0.5 * (x - y) for x, y in zip(b, a)]
    center = [x + y for x, y in zip(a, offset)]
    r2 = sum(map(mul, offset, offset))
    if dim == 1:
        return center, r2
    dist, sqrt = math.dist, math.sqrt
    lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if dist(p, center) > lim:
            center, r2 = _mtf3(cloud, order, i, a, b, p, dim)
            lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


def _mtf3(cloud, order, end, a, b, c, dim):
    """Smallest ball around cloud[order[:end]] with a, b and c on its
    boundary."""
    center, r2 = _circumball3(a, b, c)
    if dim == 2:
        return center, r2
    dist, sqrt = math.dist, math.sqrt
    lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if dist(p, center) > lim:
            center, r2 = _mtf(cloud, order, i, [a, b, c, p], dim)
            lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


def _mtf(cloud, order, end, support, dim):
    """Smallest ball around cloud[order[:end]] with the support, four or more
    points (d >= 3), on its boundary; moves each point it pushes to the
    front of order."""
    dist = math.dist
    center, r2 = _circumball(support)
    if len(support) == dim + 1:
        return center, r2
    lim = math.sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if dist(p, center) > lim:
            center, r2 = _mtf(cloud, order, i, support + [p], dim)
            lim = math.sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


# ---------------------------------------------------------------------------
# Homothetic copies.  Substituting mu = 1/scale and b = anchor/scale turns
# the relative deviation max_i |q_i - anchor - scale*p_i| / (scale*m_P)
# into R(mu)/m_P, where R(mu) = min_b max_i |mu*q_i - p_i - b| is the
# radius of the minimum enclosing ball of {mu*q_i - p_i}.
#
# - R is convex: for each b it is a max of norms of affine maps of
#   (mu, b), and minimising a jointly convex function over b keeps it
#   convex in mu.  So one bracketing search finds its minimum; R^2 is
#   searched, which is minimised where R is.
# - The minimum lies in [0, 2*rad(P)/rad(Q)]: mu*q_i = (mu*q_i - p_i - b)
#   + p_i + b gives mu*rad(Q) <= R(mu) + rad(P), so beyond that bound
#   R(mu) > rad(P) = R(0).
# - The search is Brent's: a parabola through the three best points so
#   far where R^2 is smooth, a golden-section step at a kink or where a
#   parabola would not shrink the bracket, and no step shorter than tol1.
#   Its relative tolerance, 1e-13, keeps tol1 at least 225 ulps of mu, so
#   no step rounds to nothing; it takes about 31 evaluations where
#   golden-section search down to a width of 1e-12 took 61.
# - Every solve starts from the previous solve's visiting order, so the
#   last support is tested first (warm start).
#
# Both sets are first scaled by powers of two into the unit range.  The
# witness is the best mu's ball: scale 1/mu and anchor center/mu, scaled
# back to the input's units.  The reported deviation is measured from the
# witness in the unit range, where it is the same number (the scaling is
# exact).
# ---------------------------------------------------------------------------

def _brent_min(f, hi: float) -> float:
    """Argmin of a convex f on [0, hi] by Brent's method, the best point
    evaluated.  It stops once the bracket around that point is narrower
    than 4*tol1, with tol1 = _BRENT_REL_TOL/2 of the point, or of 1e-3*hi
    below that, so a minimum at 0 (no scale fits better than a single
    point, a certain reject) ends the search too."""
    a, b = 0.0, hi
    floor = 1e-3 * hi
    x = w = v = _CGOLD * hi
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step, and the one before it
    while True:
        m = 0.5 * (a + b)
        tol1 = 0.5 * _BRENT_REL_TOL * max(x, floor)
        tol2 = 2.0 * tol1
        if b - a < 4.0 * tol1:
            return x
        golden = True
        if abs(e) > tol1:
            # The parabola through (x, fx), (w, fw) and (v, fv) has its
            # vertex at x + p/q.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            # Take it when it lies inside the bracket and moves less than
            # half the step before last; never closer than tol2 to an end.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = a - x if x >= m else b - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else tol1 if d > 0.0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def verify_homothetic(q: PointSet, p: Pattern, assignment: Sequence[int], eps: float) -> VerifyResult:
    """Certify q as an eps-approximate homothetic copy of p under a fixed bijection.

    assignment[i] is the pattern index matched to q[i].  Raises ValueError
    for repeated candidate points, for points that coincide only
    numerically (a squared radius in the unit range is not a normal float),
    and when the witness leaves the float range in the input's units.
    """
    k = len(q)
    if len(p) != k or k < 2:
        raise ValueError("candidate and pattern must have the same size k >= 2")
    if q.dim != p.dim:
        raise DimensionMismatch("candidate and pattern dimensions differ")
    sigma = [int(i) for i in assignment]
    if sorted(sigma) != list(range(k)):
        raise ValueError("assignment must be a bijection onto 0..k-1")
    eps = float(eps)
    if not (0.0 < eps <= 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3]")
    if len(set(map(tuple, q.coords.tolist()))) < k:
        raise ValueError("duplicate points in candidate")
    qu, eq = _to_unit(q.coords)
    pu, ep = _to_unit(p.coords[sigma])
    qa = qu.tolist()
    pa = pu.tolist()
    order = list(range(k))
    random.Random(_MEB_SHUFFLE_SEED).shuffle(order)
    # Both sets are moved to their ball centers, so the cloud's coordinates
    # are of the order of its radius and rounding stays relative to it.
    cq, rad_q2 = _meb(qa, order)
    cp, rad_p2 = _meb(pa, order)
    # The bracket [0, 2*sqrt(rad_p2/rad_q2)] needs both squared radii and
    # their ratio to be normal floats: in the unit range, a subnormal or
    # zero one means points that coincide numerically.
    tiny = sys.float_info.min
    if not (tiny <= rad_q2 and tiny <= rad_p2 and tiny <= rad_p2 / rad_q2 < math.inf):
        raise ValueError("candidate or pattern points coincide numerically: a squared "
                         "radius leaves the normal float range")
    qc = qu - cq
    pc = pu - cp

    def cloud_at(mu: float) -> list[list[float]]:
        return (mu * qc - pc).tolist()

    def r2_at(mu: float) -> float:
        return _meb(cloud_at(mu), order)[1]

    # Squared radii: R^2 is minimised where R is.
    mu = _brent_min(r2_at, 2.0 * math.sqrt(rad_p2 / rad_q2))
    center, _ = _meb(cloud_at(mu), order)
    scale = 1.0 / mu
    anchor = [a + (c - b) * scale for a, b, c in zip(cq, cp, center)]
    dev = max(
        [math.dist(qi, [a + scale * y for a, y in zip(anchor, pi)]) for qi, pi in zip(qa, pa)]
    ) / (scale * math.ldexp(p.min_pairwise, -ep))
    # In the input's units the witness must stay finite, with a normal scale.
    try:
        scale = math.ldexp(scale, eq - ep)
        anchor = [math.ldexp(a, eq) for a in anchor]
    except OverflowError:
        scale = 0.0
    if scale < tiny:
        raise ValueError("the witness leaves the float range in the input's units")
    return VerifyResult(
        accepted=dev <= eps + TAU,
        witness_anchor=Point(tuple(anchor)),
        witness_scale=scale,
        max_relative_deviation=dev,
    )


# ---------------------------------------------------------------------------
# Almost collinear sets.
# ---------------------------------------------------------------------------

def _angle_at(x: Sequence[float], y: Sequence[float], z: Sequence[float]) -> float:
    u = [y[i] - x[i] for i in range(len(x))]
    v = [z[i] - x[i] for i in range(len(x))]
    uu = sum(t * t for t in u)
    vv = sum(t * t for t in v)
    if uu == 0.0 or vv == 0.0:
        raise ValueError("duplicate points: angle undefined")
    dot = sum(s * t for s, t in zip(u, v))
    cross_sq = uu * vv - dot * dot
    cross = math.sqrt(cross_sq) if cross_sq > 0.0 else 0.0
    return math.atan2(cross, dot)


def _angles(a, b, c) -> tuple[float, float, float]:
    return _angle_at(a, b, c), _angle_at(b, a, c), _angle_at(c, a, b)


def triangle_angles(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> tuple[float, float, float]:
    """Interior angles at a, b, c in radians; collinear triples give (0, 0, pi).

    Computed after scaling the three points by a power of two into the unit
    range, so the angles do not depend on the scale.
    """
    return _angles(*_to_unit(np.array([a, b, c], dtype=float))[0].tolist())


def verify_collinear(q: PointSet, eps: float) -> tuple[bool, tuple[int, int, int]]:
    """Accept iff every triangle has its two smallest interior angles <= eps.

    Returns (accepted, worst_triangle) where the worst triangle maximizes
    the second-smallest angle.  Works in every dimension, on the points
    scaled by a power of two into the unit range.
    """
    eps = float(eps)
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    k = len(q)
    if k < 3:
        raise ValueError("need at least three points")
    if len(set(map(tuple, q.coords.tolist()))) < k:
        raise ValueError("duplicate points: angles undefined")
    rows = _to_unit(q.coords)[0].tolist()
    worst = -1.0
    worst_triple = (0, 1, 2)
    for i, j, l in combinations(range(k), 3):
        angs = sorted(_angles(rows[i], rows[j], rows[l]))
        second = angs[1]
        if second > worst:
            worst = second
            worst_triple = (i, j, l)
    return worst <= eps + 1e-12, worst_triple
