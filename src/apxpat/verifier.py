"""Certification of candidate subsets.

Every searcher output passes through here.  Acceptance is always decided
from an explicitly constructed witness: the anchor translation and scale
(or common difference) that realize the best achievable relative
deviation, which is then compared against eps plus a fixed feasibility
tolerance TAU.  Constraint balls are closed, so boundary contact counts
as containment.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

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

_GOLDEN_REL_WIDTH = 1e-10
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
# Minimum enclosing ball: Welzl's algorithm, support-depth recursion only.
# ---------------------------------------------------------------------------

def _circumball(support: list[list[float]]):
    """Smallest ball with the (affinely independent) support on its boundary."""
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
    center = p0 + offset
    return center, float(np.dot(offset, offset))


def _mb(pts: list[list[float]], end: int, support: list[list[float]], dim: int):
    ball = _circumball(support)
    if len(support) == dim + 1:
        return ball
    for i in range(end):
        p = pts[i]
        if ball is None:
            ball = _mb(pts, i, support + [p], dim)
            continue
        center, r2 = ball
        d2 = 0.0
        for a in range(dim):
            t = p[a] - center[a]
            d2 += t * t
        if d2 > r2 * (1.0 + 1e-13) + 1e-300:
            ball = _mb(pts, i, support + [p], dim)
    return ball


def min_enclosing_ball(pts) -> Ball:
    """Smallest closed ball containing all points (exact up to ~1e-13 rel)."""
    if not isinstance(pts, PointSet):
        rows = list(pts)
        if not rows:
            raise ValueError("need at least one point")
        pts = PointSet(len(rows[0]), rows)
    shuffled = pts.coords.tolist()
    random.Random(_MEB_SHUFFLE_SEED).shuffle(shuffled)
    center, r2 = _mb(shuffled, len(shuffled), [], pts.dim)
    return Ball(Point(tuple(float(c) for c in center)), math.sqrt(max(r2, 0.0)))


def _meb_radius_center(cloud: np.ndarray) -> tuple[np.ndarray, float]:
    if cloud.shape[1] == 1:
        lo = float(cloud.min())
        hi = float(cloud.max())
        return np.asarray([(lo + hi) / 2.0]), (hi - lo) / 2.0
    shuffled = cloud.tolist()
    random.Random(_MEB_SHUFFLE_SEED).shuffle(shuffled)
    center, r2 = _mb(shuffled, len(shuffled), [], cloud.shape[1])
    return center, math.sqrt(max(r2, 0.0))


# ---------------------------------------------------------------------------
# Homothetic copies: for fixed scale the optimal anchor is the minimum
# enclosing ball center of {q_i - scale * p_sigma(i)}, and
# radius(scale) - eps*scale*m_P is convex in the scale, so a golden-section
# search over a bracketed interval decides feasibility.
# ---------------------------------------------------------------------------

def _golden_min(f, lo: float, hi: float):
    a, b = lo, hi
    h = b - a
    if h <= 0.0:
        return a, f(a)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    while h > _GOLDEN_REL_WIDTH * max(abs(a), abs(b)):
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

    qa = q.coords
    pa = p.coords[sigma]
    m_p = p.min_pairwise
    d2 = [float(np.dot(qa[i] - qa[j], qa[i] - qa[j])) for i in range(k) for j in range(i + 1, k)]
    m_q = math.sqrt(min(d2))
    if m_q == 0.0:
        raise ValueError("duplicate points in candidate")
    diam_q = math.sqrt(max(d2))
    lam_lo = m_q / (2.0 * m_p)
    lam_hi = 2.0 * diam_q / p.diameter
    if lam_hi <= lam_lo:
        # Wildly mismatched shapes; keep a valid bracket anyway.
        lam_lo, lam_hi = min(lam_lo, lam_hi) * 0.5, max(lam_lo, lam_hi) * 2.0

    def radius_at(lam: float) -> float:
        _, r = _meb_radius_center(qa - lam * pa)
        return r

    def gap(lam: float) -> float:
        return radius_at(lam) - eps * lam * m_p

    # Decision objective first; extend the bracket if its minimum pins an
    # endpoint without reaching feasibility (possible for patterns whose
    # diameter is close to their minimum pairwise distance).
    lo, hi = lam_lo, lam_hi
    for _ in range(7):
        lam_f, gap_f = _golden_min(gap, lo, hi)
        if gap_f <= 0.0:
            break
        width = hi - lo
        if hi - lam_f <= 1e-3 * width:
            hi *= 4.0
        elif lam_f - lo <= 1e-3 * width:
            lo *= 0.25
        else:
            break

    # Report the best achievable relative deviation (scale-free objective).
    lam_g, _ = _golden_min(lambda lam: radius_at(lam) / (lam * m_p), lo, hi)
    cand = []
    for lam in (lam_f, lam_g):
        center, r = _meb_radius_center(qa - lam * pa)
        cand.append((r / (lam * m_p), lam, center))
    dev, lam_best, center = min(cand, key=lambda t: t[0])
    return VerifyResult(
        accepted=dev <= eps + TAU,
        witness_anchor=Point(tuple(float(c) for c in center)),
        witness_scale=float(lam_best),
        max_relative_deviation=float(dev),
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
