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
R is convex in mu and its minimum lies in [0, 2*rad(P)/rad(Q)], so a
golden-section search over that bracket finds the best scale.  Each of its
balls is solved by Welzl's move-to-front recursion in Python floats,
starting from the order the previous solve left, so the previous support
is tested first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch
from .geometry import Pattern, Point, PointSet

__all__ = [
    "TAU",
    "VerifyResult",
    "Ball",
    "verify_ap",
    "verify_homothetic",
    "min_enclosing_ball",
    "verify_collinear",
    "triangle_angles",
    "cylinder_radius",
]

# Relative feasibility tolerance: constraints satisfied up to TAU count as
# satisfied, so float rounding never flips a certificate on exact inputs.
TAU = 1e-9

_GOLDEN_REL_WIDTH = 1e-12
_PIVOT_REL = 1e-14
_CONTAIN_REL = 5e-14
_CENTER_REL = 4e-15
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_MEB_SHUFFLE_SEED = 0x5EEDBA11


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    witness_anchor: Point
    witness_scale: float
    max_relative_deviation: float


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float


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
    """Certify a strictly increasing k >= 3 sequence as an eps-approximate AP."""
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

    best_t = -1.0
    best = (0, 1, 2)
    for i, j, l in combinations(range(k), 3):
        rho = (l - i) / (vals[l] - vals[i])
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
    """Center and squared radius of the smallest ball with the support on its
    boundary.

    The center is s_0 + sum_j beta_j u_j with u_j = s_j - s_0, where beta
    solves the Gram system (u_i . u_j) beta = |u_i|^2 / 2 by Gaussian
    elimination with partial pivoting.  A column whose best pivot is
    negligible (an affinely dependent support) gets beta_j = 0, so a
    degenerate support never raises.
    """
    s0 = support[0]
    u = [[x - y for x, y in zip(s, s0)] for s in support[1:]]
    m = len(u)
    if m == 0:
        return list(s0), 0.0
    if m == 1:
        # beta = (|u|^2 / 2) / |u|^2 = 1/2 exactly (u = 0 for a repeated point).
        offset = [0.5 * t for t in u[0]]
        return [x + y for x, y in zip(s0, offset)], sum(map(mul, offset, offset))
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


def _reach(center: list[float], r2: float) -> float:
    """Distance beyond which a point is outside the ball.  Besides a slack
    relative to the radius, it forgives about 18 ulps of the center's
    largest coordinate: the center is rounded to its ulps, and without that
    term a repeat of a support point far from the origin can test outside
    and be pushed as a second, degenerate support."""
    r = math.sqrt(r2)
    return r * (1.0 + _CONTAIN_REL) + _CENTER_REL * max(map(abs, center))


def _mtf(cloud, order, end, support, dim):
    """Smallest ball around cloud[order[:end]] with the support on its
    boundary; moves each point it pushes to the front of order."""
    if support:
        center, r2 = _circumball(support)
        if len(support) == dim + 1:
            return center, r2
        lim = _reach(center, r2)
    else:
        # No ball yet: the first point visited always starts one.
        center, r2, lim = cloud[order[0]], 0.0, -1.0
    for i in range(end):
        j = order[i]
        p = cloud[j]
        if math.dist(p, center) > lim:
            center, r2 = _mtf(cloud, order, i, support + [p], dim)
            lim = _reach(center, r2)
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2


def _meb(cloud: list[list[float]], order: list[int]) -> tuple[list[float], float]:
    """Center and squared radius of the smallest ball around the cloud's rows,
    visited in ``order``, which is reordered in place (move-to-front)."""
    return _mtf(cloud, order, len(order), [], len(cloud[0]))


def min_enclosing_ball(pts) -> Ball:
    """Smallest closed ball containing all points (exact up to ~1e-13 of its
    radius plus the magnitude of its center)."""
    if not isinstance(pts, PointSet):
        rows = list(pts)
        if not rows:
            raise ValueError("need at least one point")
        pts = PointSet(len(rows[0]), rows)
    rows = pts.coords.tolist()
    order = list(range(len(rows)))
    random.Random(_MEB_SHUFFLE_SEED).shuffle(order)
    center, r2 = _meb(rows, order)
    # The containment test forgives a little rounding slack, so take the
    # radius that reaches every point.
    radius = max(math.sqrt(r2), max([math.dist(x, center) for x in rows]))
    return Ball(Point(tuple(center)), radius)


# ---------------------------------------------------------------------------
# Homothetic copies.  Substituting mu = 1/scale and b = anchor/scale turns
# the relative deviation max_i |q_i - anchor - scale*p_i| / (scale*m_P)
# into R(mu)/m_P, where R(mu) = min_b max_i |mu*q_i - p_i - b| is the
# radius of the minimum enclosing ball of {mu*q_i - p_i}.
#
# - R is convex: for each b it is a max of norms of affine maps of
#   (mu, b), and minimising a jointly convex function over b keeps it
#   convex in mu.  So one golden-section search finds its minimum.
# - The minimum lies in [0, 2*rad(P)/rad(Q)]: mu*q_i = (mu*q_i - p_i - b)
#   + p_i + b gives mu*rad(Q) <= R(mu) + rad(P), so beyond that bound
#   R(mu) > rad(P) = R(0).
# - Every solve starts from the previous solve's visiting order, so the
#   last support is tested first (warm start).
#
# The witness is the best mu's ball: scale 1/mu and anchor center/mu.  The
# reported deviation is measured from that witness, in the input's units.
# ---------------------------------------------------------------------------

def _golden_min(f, hi: float) -> float:
    """Argmin of a convex f on [0, hi], to a width of _GOLDEN_REL_WIDTH
    relative to the lower end.  Below 1e-3*hi the width is taken relative to
    that, so a minimum at 0 (no scale fits better than a single point, a
    certain reject) ends the search after about 72 steps."""
    a, b = 0.0, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    floor = 1e-3 * hi
    while h > _GOLDEN_REL_WIDTH * max(a, floor):
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
    return c if fc <= fd else d


def verify_homothetic(q: PointSet, p: Pattern, assignment: Sequence[int], eps: float) -> VerifyResult:
    """Certify q as an eps-approximate homothetic copy of p under a fixed bijection.

    assignment[i] is the pattern index matched to q[i].
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
    ps = p.coords[sigma]
    qa = q.coords.tolist()
    if len(set(map(tuple, qa))) < k:
        raise ValueError("duplicate points in candidate")
    pa = ps.tolist()
    order = list(range(k))
    random.Random(_MEB_SHUFFLE_SEED).shuffle(order)
    # Both sets are moved to their ball centers, so the cloud's coordinates
    # are of the order of its radius and rounding stays relative to it.
    cq, rad_q2 = _meb(qa, order)
    cp, rad_p2 = _meb(pa, order)
    qc = q.coords - cq
    pc = ps - cp

    def cloud_at(mu: float) -> list[list[float]]:
        return (mu * qc - pc).tolist()

    def r2_at(mu: float) -> float:
        return _meb(cloud_at(mu), order)[1]

    # Squared radii: R^2 is minimised where R is.
    mu = _golden_min(r2_at, 2.0 * math.sqrt(rad_p2 / rad_q2))
    center, _ = _meb(cloud_at(mu), order)
    scale = 1.0 / mu
    anchor = [a + (c - b) * scale for a, b, c in zip(cq, cp, center)]
    dev = max(
        [math.dist(qi, [a + scale * y for a, y in zip(anchor, pi)]) for qi, pi in zip(qa, pa)]
    ) / (scale * p.min_pairwise)
    return VerifyResult(
        accepted=dev <= eps + TAU,
        witness_anchor=Point(tuple(anchor)),
        witness_scale=scale,
        max_relative_deviation=dev,
    )


# ---------------------------------------------------------------------------
# Almost collinear sets.
# ---------------------------------------------------------------------------

def triangle_angles(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> tuple[float, float, float]:
    """Interior angles at a, b, c in radians; collinear triples give (0, 0, pi)."""

    def angle_at(x: Sequence[float], y: Sequence[float], z: Sequence[float]) -> float:
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

    return angle_at(a, b, c), angle_at(b, a, c), angle_at(c, a, b)


def verify_collinear(q: PointSet, eps: float) -> tuple[bool, tuple[int, int, int]]:
    """Accept iff every triangle has its two smallest interior angles <= eps.

    Returns (accepted, worst_triangle) where the worst triangle maximizes
    the second-smallest angle.  Works in every dimension.
    """
    eps = float(eps)
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    k = len(q)
    if k < 3:
        raise ValueError("need at least three points")
    rows = q.coords.tolist()
    if len(set(map(tuple, rows))) < k:
        raise ValueError("duplicate points: angles undefined")
    worst = -1.0
    worst_triple = (0, 1, 2)
    for i, j, l in combinations(range(k), 3):
        angs = sorted(triangle_angles(rows[i], rows[j], rows[l]))
        second = angs[1]
        if second > worst:
            worst = second
            worst_triple = (i, j, l)
    return worst <= eps + 1e-12, worst_triple


def cylinder_radius(q: PointSet) -> float:
    """Max distance from any point to the line through a diameter pair."""
    k = len(q)
    if k < 2:
        raise ValueError("need at least two points")
    best_d2 = -1.0
    pair = (0, 1)
    pts = q.coords.tolist()
    dim = q.dim
    for i in range(k):
        for j in range(i + 1, k):
            d2 = sum((pts[i][a] - pts[j][a]) ** 2 for a in range(dim))
            if d2 > best_d2:
                best_d2 = d2
                pair = (i, j)
    i, j = pair
    base = pts[i]
    axis = [pts[j][a] - base[a] for a in range(dim)]
    norm2 = sum(t * t for t in axis)
    out = 0.0
    for m in range(k):
        w = [pts[m][a] - base[a] for a in range(dim)]
        proj = sum(s * t for s, t in zip(w, axis)) / norm2
        d2 = sum((w[a] - proj * axis[a]) ** 2 for a in range(dim))
        if d2 > out:
            out = d2
    return math.sqrt(out)
