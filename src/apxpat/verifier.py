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
R^2 is convex in mu and its minimum lies in [0, 2*rad(P)/rad(Q)].  Each
ball solve also reads, from the support it ends on and that support's
barycentric weights, a quadratic that touches R^2 there and lies below it
everywhere (the dual of the ball problem, as in the LP-type view of
Matousek, Sharir and Welzl, 1996).  The search walks on these: it cuts the
bracket to where they allow the minimum, steps by the secant of the
slopes where solves share a support and to where the quadratics cross
where they do not, and stops once the best R^2 is within rounding of
their lower bound; about 7 solves per certificate, where Brent's search
took about 34.  A minimum at mu = 0 is decided by the pattern's own ball.
Each ball is solved by Welzl's move-to-front recursion in Python floats,
starting from the order the previous solve left, so the previous support
is tested first.  One loop serves every level of the recursion; it takes
its support points' indices and builds its first ball by their number:
the point itself, the midpoint, a spelled-out 2x2 elimination for three
points, and the general elimination for four or more (d >= 3).  Every
center, radius and visiting order keeps the bits of the recursion over
support lists.
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
from .bounds import check_distinct, check_eps, check_real, check_whole
from .errors import DimensionMismatch, InvalidArgument
from .geometry import Pattern, Point, PointSet, _as_rows, _width

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

_REL_WIDTH = 1e-15
_ZERO_REL = 2e-16
_GAP_REL = 1e-12
_ROUND = 2.0**-50
_LOW = 2.0**-48
_PIVOT_REL = 1e-14
_CONTAIN = 1.0 + 5e-14
_CENTER_REL = 4e-15
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
    Raises InvalidArgument for a term that is not finite, when terms
    coincide once scaled, and when the witness leaves the float range in
    the input's units."""
    vals = [check_real(v, "(-inf, inf)", "terms must be finite") for v in q]
    k = len(vals)
    if k < 3:
        raise InvalidArgument("need at least three terms")
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise InvalidArgument("duplicate values")
        if a > b:
            raise InvalidArgument("input must be sorted ascending")
    eps = check_eps(eps, "[0, 1/3]")

    # In the unit range, by an exact power of two, so no span overflows and
    # no slope does; on normal-range input every step below gives the bits
    # of the same formula in the input's units.
    unit, ex = _to_unit(np.asarray(vals))
    vals = unit.tolist()
    if any(a == b for a, b in zip(vals, vals[1:])):
        raise InvalidArgument("values coincide once scaled into the unit range")

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
        raise InvalidArgument("the witness leaves the float range in the input's units")
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

def _circumball(support: list[list[float]]) -> tuple[list[float], float, list[float]]:
    """Center, squared radius and beta of the smallest ball with a support
    of four or more points on its boundary.

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
    return [x + y for x, y in zip(s0, offset)], sum(map(mul, offset, offset)), beta


def _circumball3(a, b, c):
    """_circumball for the support (a, b, c), written out for its 2x2 Gram
    system: the same pivots, skipped columns and float operations, in the
    same order.  Returns the center, the squared radius and (beta0, beta1)."""
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
    return [x + y for x, y in zip(a, offset)], sum(map(mul, offset, offset)), (beta0, beta1)


# One move-to-front loop, _mtf, serves every level of the recursion.  A
# level takes the indices of its support points and builds its first ball
# by their number: the point itself (the row, not a copy), the midpoint
# (beta = 1/2 exactly), _circumball3, or _circumball.  So every center,
# squared radius and visiting order has the bits of the recursion over
# support lists.
#
# Each level also returns the support of the ball it returns, as (indices,
# beta): with s_0, s_1, ... the support points in the order of the
# indices, the center is s_0 + sum_j beta_j (s_j - s_0), so the barycentric
# weights are 1 - sum(beta) and beta.  The returned ball is always the one
# built last, so this is the support the solve ended on.
#
# A point is outside the ball beyond the distance lim: besides a slack
# relative to the radius, it forgives about 18 ulps of the center's largest
# coordinate.  The center is rounded to its ulps, and without that term a
# repeat of a support point far from the origin can test outside and be
# pushed as a second, degenerate support.  With no radius, lim is that term
# alone.

def _meb(cloud: list[list[float]], order: list[int]):
    """Center, squared radius and support (see above) of the smallest ball
    around the cloud's rows, visited in ``order``, which is reordered in
    place (move-to-front)."""
    return _mtf(cloud, order, len(order), (), len(cloud[0]))


def _mtf(cloud, order, end, idx, dim):
    """Smallest ball around cloud[order[:end]] with the points cloud[idx] on
    its boundary (with end = 0, the first ball of that support); moves each
    point it pushes to the front of order."""
    dist, sqrt = math.dist, math.sqrt
    # With no support there is no ball yet: the first point visited is
    # outside, and starts one.
    center, lim = cloud[order[0]], -1.0
    if idx:
        if len(idx) == 1:
            center, r2, beta = cloud[idx[0]], 0.0, ()
        elif len(idx) == 2:
            a = cloud[idx[0]]
            offset = [0.5 * (x - y) for x, y in zip(cloud[idx[1]], a)]
            center = [x + y for x, y in zip(a, offset)]
            r2, beta = sum(map(mul, offset, offset)), (0.5,)
        elif len(idx) == 3:
            center, r2, beta = _circumball3(cloud[idx[0]], cloud[idx[1]], cloud[idx[2]])
        else:
            center, r2, beta = _circumball([cloud[j] for j in idx])
        support = (idx, beta)
        if len(idx) == dim + 1:
            return center, r2, support
        lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
    for i in range(end):
        j = order[i]
        if dist(cloud[j], center) > lim:
            center, r2, support = _mtf(cloud, order, i, idx + (j,), dim)
            lim = sqrt(r2) * _CONTAIN + _CENTER_REL * max(map(abs, center))
            if i:
                del order[i]
                order.insert(0, j)
    return center, r2, support


# ---------------------------------------------------------------------------
# Homothetic copies.  Substituting mu = 1/scale and b = anchor/scale turns
# the relative deviation max_i |q_i - anchor - scale*p_i| / (scale*m_P)
# into R(mu)/m_P, where R(mu) = min_b max_i |mu*q_i - p_i - b| is the
# radius of the minimum enclosing ball of the cloud z_i(mu) = mu*q_i - p_i.
#
# - R^2 is convex, and every ball solve bounds it from below.  By duality,
#   R^2(mu) = max over weights lam in the simplex of
#   f_lam(mu) = sum_i lam_i |z_i(mu) - sum_j lam_j z_j(mu)|^2, a convex
#   quadratic in mu for each lam.  The support a solve ends on, with its
#   barycentric weights (1/2, 1/2 for two points; 1 - beta0 - beta1,
#   beta0, beta1 for three; 1 - sum(beta) and beta in general), gives an
#   f_lam that touches R^2 at the solve's mu and lies below it everywhere:
#   its minorant.  Its slope there, 2 * sum_i lam_i <z_i - c, q_i>, is a
#   subgradient of R^2.  A weight that rounding leaves below 0 is clipped,
#   which keeps the minorant a lower bound.
# - The minimum lies in [0, 2*rad(P)/rad(Q)]: mu*q_i = (mu*q_i - p_i - b)
#   + p_i + b gives mu*rad(Q) <= R(mu) + rad(P), so beyond that bound
#   R(mu) > rad(P) = R(0).  The ball of P is the solve at mu = 0, so its
#   minorant is known before any other solve.
# - The walk keeps a bracket that holds the minimum: no mu where a
#   minorant exceeds the best R^2 so far (plus the stopping tolerance) can
#   be it, so each solve's minorant cuts the bracket to where it is at most
#   that.  Of the last solve with a slope <= 0 (at first P's, at 0) and the
#   last with a slope > 0, the larger minorant bounds R^2 on the bracket
#   from below, and its least value there is the lower bound the walk
#   stops on.  The next solve is at the zero of the secant through the
#   slopes of the last two solves, or else of those two sides, where the
#   pair shares a support and that zero lies in the bracket (for a
#   two-point support the minorant is R^2 itself, and the secant lands on
#   the minimum).  Otherwise it is where the larger minorant is least: the
#   vertex of one, or where the two cross, which is the kink when each is
#   exact on its side.  When two steps in a row halve neither the bracket
#   nor that gap, the next one bisects the bracket.
# - It stops when the best R^2 is within _GAP_REL of it, plus the rounding
#   of a cloud coordinate (_ROUND of rad(P)), above the lower bound, or
#   when the bracket is narrower than 2*_REL_WIDTH of the best mu (of
#   1e-3*hi below that).  Each minorant is lowered by a bound on the
#   rounding of evaluating it (_LOW of its terms), so rounding cannot
#   raise the bound.  A minimum at mu = 0, where no scale fits better than
#   a single point (a certain reject), is decided by P's minorant alone
#   when its slope at 0 is not negative.
# - Every solve starts from the previous solve's visiting order, so the
#   last support is tested first (warm start).
#
# Both sets are first scaled by powers of two into the unit range.  The
# witness is the best solve's ball: scale 1/mu and anchor center/mu, scaled
# back to the input's units.  When the best mu is 0 the witness is the
# ball at _ZERO_REL*hi, whose radius exceeds R(0) by a relative 4e-16 at
# most (mu*rad(Q) <= 2*_ZERO_REL*rad(P)), and whose scale is finite.  The reported deviation is
# measured from the witness in the unit range, where it is the same number
# (the scaling is exact).
# ---------------------------------------------------------------------------

def _minorant(mu: float, cloud, qrows, support) -> tuple[float, float, float, float]:
    """The minorant of R^2 given by a solve's support at mu, as (mu, f, g, a):
    f + (x - mu)*(g + a*(x - mu)) <= R^2(x) for every x, with f = R^2(mu)
    up to rounding."""
    idx, beta = support
    lam = [1.0 - sum(beta), *beta]
    if min(lam) < 0.0:
        lam = [max(w, 0.0) for w in lam]
        total = sum(lam)
        lam = [w / total for w in lam]
    zs = [cloud[j] for j in idx]
    qs = [qrows[j] for j in idx]
    zbar = [sum(map(mul, lam, col)) for col in zip(*zs)]
    qbar = [sum(map(mul, lam, col)) for col in zip(*qs)]
    f = g = a = 0.0
    for w, z, q in zip(lam, zs, qs):
        dz = [x - y for x, y in zip(z, zbar)]
        dq = [x - y for x, y in zip(q, qbar)]
        f += w * sum(map(mul, dz, dz))
        g += w * sum(map(mul, dz, dq))
        a += w * sum(map(mul, dq, dq))
    return mu, f, 2.0 * g, a


def _value(m, x: float) -> float:
    """The minorant m at x, less a bound on its rounding."""
    mu, f, g, a = m
    s = x - mu
    return f + s * (g + a * s) - _LOW * (f + abs(s * g) + a * s * s)


def _roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """The real roots of a*s^2 + b*s + c, without cancellation."""
    if a == 0.0:
        return (-c / b,) if b else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (h / a, c / h) if h else (0.0, 0.0)


def _model_min(m_lo, m_up, lo: float, up: float) -> tuple[float, float]:
    """Where on [lo, up] the larger of the minorants m_lo and m_up (m_up
    None for none) is least, and that value: at an end, at a vertex, or
    where the two cross."""
    ms = [m for m in (m_lo, m_up) if m is not None]
    xs = [lo, up]
    for mu, _, g, a in ms:
        if a > 0.0:
            xs.append(mu - 0.5 * g / a)
    if len(ms) == 2:
        # m_up - m_lo as a quadratic in s = x - mu_lo.
        (mu1, f1, g1, a1), (mu2, f2, g2, a2) = ms
        dt = mu1 - mu2
        xs.extend(mu1 + s for s in _roots(a2 - a1, g2 + 2.0 * a2 * dt - g1,
                                          f2 + dt * (g2 + a2 * dt) - f1))
    best_x, best_v = lo, math.inf
    for x in xs:
        x = min(max(x, lo), up)
        v = max([_value(m, x) for m in ms])
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _walk(solve, m0, r2_0: float, hi: float) -> tuple[float, list[float]]:
    """The best mu found on [0, hi] and the center of its ball.

    solve(mu) returns (R^2, center, support, minorant) of one ball solve;
    m0 is the minorant at mu = 0, where R^2 is r2_0 = rad(P)^2.  See the
    comment above for the rule."""
    floor = 1e-3 * hi
    rho = _ROUND * math.sqrt(r2_0)  # the rounding of a cloud coordinate
    best_mu, best_r2, best_center = 0.0, r2_0, None
    lo, up = 0.0, hi
    # The last solves with a slope <= 0 and > 0, each as (support, minorant).
    left, right = (None, m0), None
    last = before = None  # the last two solves
    new, width, gap, fails = m0, math.inf, math.inf, 0
    while True:
        tol = _GAP_REL * best_r2 + rho * (2.0 * math.sqrt(best_r2) + rho)
        mu, f, g, a = new
        if a > 0.0:
            # The level is raised by a bound on the rounding of the minorant
            # at its roots, where its terms are at most f + g^2/(4a) in size.
            roots = _roots(a, g, f - best_r2 - tol - _LOW * (f + 0.25 * g * g / a))
            if roots:
                lo, up = max(lo, mu + min(roots)), min(up, mu + max(roots))
        tol1 = 0.5 * _REL_WIDTH * max(best_mu, floor)
        if up - lo < 4.0 * tol1:
            break
        x, bound = _model_min(left[1], right and right[1], lo, up)
        if best_r2 - bound <= tol:
            break
        # A step makes progress when it halves the bracket or the gap.
        fails = 0 if up - lo <= 0.5 * width or best_r2 - bound <= 0.5 * gap else fails + 1
        width, gap = up - lo, best_r2 - bound
        # The zero of the slopes' secant through the last two solves, or
        # else through the two sides, where they share a support.
        for one, two in ((last, before), (left, right)):
            if two and one[0] == two[0] and one[1][2] != two[1][2]:
                (mu1, _, g1, _), (mu2, _, g2, _) = one[1], two[1]
                secant = mu1 - g1 * (mu2 - mu1) / (g2 - g1)
                if lo < secant < up:
                    x = secant
                    break
        if fails == 2:
            x, fails = 0.5 * (lo + up), 0
        x = min(max(x, lo + tol1), up - tol1)
        if abs(x - best_mu) < tol1:
            x = best_mu + tol1 if best_mu < 0.5 * (lo + up) else best_mu - tol1
        r2, center, support, new = solve(x)
        last, before = (frozenset(support[0]), new), last
        if new[2] > 0.0:
            right = last
        else:
            left = last
        if r2 < best_r2:
            best_mu, best_r2, best_center = x, r2, center
    if best_center is None:
        best_mu = _ZERO_REL * hi
        best_center = solve(best_mu)[1]
    return best_mu, best_center


def verify_homothetic(q: PointSet, p: Pattern, assignment: Sequence[int], eps: float) -> VerifyResult:
    """Certify q as an eps-approximate homothetic copy of p under a fixed bijection.

    assignment[i] is the pattern index matched to q[i].  Raises
    InvalidArgument for repeated candidate points, for points that coincide
    only numerically (a squared radius in the unit range is not a normal
    float), and when the witness leaves the float range in the input's
    units.
    """
    k = len(q)
    if len(p) != k or k < 2:
        raise InvalidArgument("candidate and pattern must have the same size k >= 2")
    if q.dim != p.dim:
        raise DimensionMismatch("candidate and pattern dimensions differ")
    bijection = "assignment must be a bijection onto 0..k-1"
    sigma = [check_whole(i, 0, "assignment", bijection) for i in assignment]
    if sorted(sigma) != list(range(k)):
        raise InvalidArgument(bijection)
    eps = check_eps(eps)
    check_distinct(q.coords, "duplicate points in candidate")
    qu, eq = _to_unit(q.coords)
    pu, ep = _to_unit(p.coords[sigma])
    qa = qu.tolist()
    pa = pu.tolist()
    order = list(range(k))
    random.Random(_MEB_SHUFFLE_SEED).shuffle(order)
    # Both sets are moved to their ball centers, so the cloud's coordinates
    # are of the order of its radius and rounding stays relative to it.
    cq, rad_q2, _ = _meb(qa, order)
    cp, rad_p2, p_support = _meb(pa, order)
    # The bracket [0, 2*sqrt(rad_p2/rad_q2)] needs both squared radii and
    # their ratio to be normal floats: in the unit range, a subnormal or
    # zero one means points that coincide numerically.
    tiny = sys.float_info.min
    if not (tiny <= rad_q2 and tiny <= rad_p2 and tiny <= rad_p2 / rad_q2 < math.inf):
        raise InvalidArgument("candidate or pattern points coincide numerically: a squared "
                              "radius leaves the normal float range")
    qc = qu - cq
    pc = pu - cp
    qrows = qc.tolist()

    def solve(mu: float):
        cloud = (mu * qc - pc).tolist()
        center, r2, support = _meb(cloud, order)
        return r2, center, support, _minorant(mu, cloud, qrows, support)

    # P's ball is the solve at mu = 0, in a frame moved by cp.
    m0 = _minorant(0.0, (-pc).tolist(), qrows, p_support)
    mu, center = _walk(solve, m0, rad_p2, 2.0 * math.sqrt(rad_p2 / rad_q2))
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
        raise InvalidArgument("the witness leaves the float range in the input's units")
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
        raise InvalidArgument("duplicate points: angle undefined")
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
    range, so the angles do not depend on the scale.  The corners are
    checked as a point set's rows are: corners of different lengths raise
    DimensionMismatch, a coordinate that is not finite InvalidArgument.
    """
    return _angles(*_to_unit(_as_rows([a, b, c], _width(a) or 1))[0].tolist())


def _collinear_accepts(second: float, eps: float) -> bool:
    """The one collinear acceptance rule: a triangle passes when its
    second-smallest interior angle is at most eps, with 1e-12 to spare for
    rounding."""
    return second <= eps + 1e-12


def verify_collinear(q: PointSet, eps: float) -> tuple[bool, tuple[int, int, int]]:
    """Accept iff every triangle has its two smallest interior angles <= eps
    (``_collinear_accepts``).

    Returns (accepted, worst_triangle) where the worst triangle maximizes
    the second-smallest angle.  Works in every dimension, on the points
    scaled by a power of two into the unit range.
    """
    eps = check_eps(eps, "(0, 1]")
    k = len(q)
    if k < 3:
        raise InvalidArgument("need at least three points")
    check_distinct(q.coords, "duplicate points: angles undefined")
    rows = _to_unit(q.coords)[0].tolist()
    worst = -1.0
    worst_triple = (0, 1, 2)
    for i, j, l in combinations(range(k), 3):
        angs = sorted(_angles(rows[i], rows[j], rows[l]))
        second = angs[1]
        if second > worst:
            worst = second
            worst_triple = (i, j, l)
    return _collinear_accepts(worst, eps), worst_triple
