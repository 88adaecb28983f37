"""Reference code that only the tests run.

- ``grid_min_deviation_ap`` and ``grid_min_deviation_homothety``: dense grid
  searches over witness parameters, a second route to the certificates'
  feasibility problems that shares none of their machinery (no Chebyshev
  fit, no minimum enclosing ball, no one-dimensional scale search).
- ``min_enclosing_ball`` and ``Ball``: the certificate's ball solver on a
  point set, with the radius that reaches every point.
- ``cylinder_radius``: the distance of a set from the line through its
  diameter pair, a bound on accepted collinear sets.
- ``brent_homothetic``: the homothety certificate with Brent's search over
  1/scale in place of the support walk, bit for bit the certificate the
  walk replaced (``brent_min`` is that search).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from apxpat import _kernels, verifier
from apxpat._kernels import _to_unit
from apxpat.geometry import Pattern, Point, PointSet
from apxpat.verifier import _MEB_SHUFFLE_SEED, TAU, VerifyResult, _meb

# The homothety grid search: scales and anchors per axis in each pass, and
# the number of passes.
_N_LAMBDA = 96
_N_ANCHOR = 25
_PASSES = 5


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float


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
    center, r2, _ = _meb(rows, order)
    # The containment test forgives a little rounding slack, so take the
    # radius that reaches every point.
    radius = max(math.sqrt(r2), max([math.dist(x, center) for x in rows]))
    return Ball(Point(tuple(center)), radius)


def cylinder_radius(q: PointSet) -> float:
    """Max distance from any point to the line through a diameter pair, the
    first farthest pair in (i, j) index order.

    Computed on the points scaled by a power of two into the unit range,
    each sum taken axis by axis.  Points that coincide there, to within
    2^-511 of the largest coordinate, lie on every line: the radius is 0.
    Raises ValueError below two points.
    """
    unit, e = _to_unit(q.coords)
    _, norm2, (i, j) = _kernels.pair_sq_extremes(unit)
    if norm2 < sys.float_info.min:
        return 0.0
    w = unit - unit[i]
    axis = w[j]
    proj = sum(w[:, a] * axis[a] for a in range(q.dim)) / norm2
    out = sum((w[:, a] - proj * axis[a]) ** 2 for a in range(q.dim))
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(out.max()), e))


# ---------------------------------------------------------------------------
# Independent dense grid checks.
# ---------------------------------------------------------------------------

def grid_min_deviation_ap(q: Sequence[float], *, grid: int = 2000) -> float:
    """Min over (a, r > 0) of max_i |q_i - a - i*r| / r by dense grid search.

    a runs on a linear grid over the feasible range, r on a log grid,
    refined once around the best cell (the smallest a index, then the
    smallest r index, among the cells at the minimum).
    """
    vals = np.asarray([float(v) for v in q], dtype=float)
    k = len(vals)
    if k < 3:
        raise ValueError("need at least three terms")
    span = float(vals[-1] - vals[0])
    if span <= 0.0:
        raise ValueError("input must be sorted ascending without duplicates")
    idx = np.arange(k, dtype=float)

    a_lo, a_hi = vals[0] - span, vals[0] + span
    r_lo, r_hi = span / (k - 1) / 4.0, span / (k - 1) * 4.0
    best = math.inf
    best_a = best_r = None
    for _pass in range(2):
        a_grid = np.linspace(a_lo, a_hi, grid)
        r_grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), grid))
        # max_i |u_i - a| over the shifted terms u_i = q_i - i*r is attained
        # at an extreme u, so the k-fold max collapses to two values per r.
        shifted = vals[None, :] - r_grid[:, None] * idx[None, :]
        u_max = shifted.max(axis=1)
        u_min = shifted.min(axis=1)
        # For each r, max(u_max - a, a - u_min) falls and then rises along
        # the increasing a grid, turning at the midpoint of u_min and u_max,
        # so only the a grid points next to that midpoint can be minimal.
        mid = np.searchsorted(a_grid, (u_max + u_min) / 2.0)
        cols = np.clip(mid[:, None] + np.arange(-2, 3), 0, grid - 1)
        a_win = a_grid[cols]
        dev = np.maximum(u_max[:, None] - a_win, a_win - u_min[:, None])
        dev /= r_grid[:, None]
        low = float(dev.min())
        if low < best:
            r_hit, w_hit = np.nonzero(dev == low)
            pick = np.lexsort((r_hit, cols[r_hit, w_hit]))[0]
            best = low
            best_a = float(a_grid[cols[r_hit[pick], w_hit[pick]]])
            best_r = float(r_grid[r_hit[pick]])
        a_step = (a_hi - a_lo) / (grid - 1)
        log_step = (math.log(r_hi) - math.log(r_lo)) / (grid - 1)
        a_lo, a_hi = best_a - 2 * a_step, best_a + 2 * a_step
        r_lo, r_hi = best_r * math.exp(-2 * log_step), best_r * math.exp(2 * log_step)
    return best


def grid_min_deviation_homothety(q: PointSet, p: Pattern, assignment: Sequence[int]) -> float:
    """Min over (anchor, scale > 0) of the relative deviation by grid search.

    First pass: scales on a log grid over the bracketing range, anchors on
    a per-axis linear grid over the bounding box of the translated cloud
    {q_i - scale * p_i}.  Later passes shrink both the scale window and the
    anchor window around the best hit, so the final resolution is a few
    parts in 1e4 regardless of the starting ranges.
    """
    k = len(q)
    if len(p) != k or k < 2:
        raise ValueError("candidate and pattern must share size k >= 2")
    sigma = [int(i) for i in assignment]
    qa = q.coords
    pa = p.coords[sigma]
    d = q.dim
    m_p = p.min_pairwise
    m_q, diam_q, _ = _kernels.pair_extremes(qa)
    lam_lo = m_q / (4.0 * m_p)
    lam_hi = 4.0 * diam_q / p.diameter

    best = math.inf
    best_lam = None
    best_anchor = None
    a_step = 0.0
    lam_grid = np.exp(np.linspace(math.log(lam_lo), math.log(lam_hi), _N_LAMBDA))
    for lam in lam_grid:
        cloud = qa - lam * pa
        low = cloud.min(axis=0)
        high = cloud.max(axis=0)
        axes = [
            np.linspace(low[a], high[a], _N_ANCHOR)
            if high[a] > low[a]
            else np.asarray([low[a]])
            for a in range(d)
        ]
        anchors = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        dev = np.sqrt(
            ((cloud[None, :, :] - anchors[:, None, :]) ** 2).sum(axis=2)
        ).max(axis=1) / (lam * m_p)
        i = int(dev.argmin())
        if float(dev[i]) < best:
            best = float(dev[i])
            best_lam = float(lam)
            best_anchor = anchors[i].copy()
            a_step = float(max((high - low).max() / (_N_ANCHOR - 1), 1e-12 * lam))

    log_step = (math.log(lam_hi) - math.log(lam_lo)) / (_N_LAMBDA - 1)
    p_reach = float(np.sqrt((pa**2).sum(axis=1)).max())
    for _pass in range(_PASSES - 1):
        lam_half = 2.0 * log_step
        # The optimal anchor drifts by about |dlam| * max|p_i| across the
        # scale window, so the anchor window must cover that drift too.
        a_half = 2.0 * a_step + best_lam * math.expm1(lam_half) * p_reach
        lam_grid = best_lam * np.exp(np.linspace(-lam_half, lam_half, _N_LAMBDA))
        axes = [
            np.linspace(best_anchor[a] - a_half, best_anchor[a] + a_half, _N_ANCHOR)
            for a in range(d)
        ]
        anchors = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        clouds = qa[None, :, :] - lam_grid[:, None, None] * pa[None, :, :]
        dist = np.sqrt(
            ((clouds[:, None, :, :] - anchors[None, :, None, :]) ** 2).sum(axis=3)
        ).max(axis=2)
        dev = dist / (lam_grid[:, None] * m_p)
        pos = np.unravel_index(int(dev.argmin()), dev.shape)
        if float(dev[pos]) < best:
            best = float(dev[pos])
            best_lam = float(lam_grid[pos[0]])
            best_anchor = anchors[pos[1]].copy()
        log_step = 2.0 * lam_half / (_N_LAMBDA - 1)
        a_step = 2.0 * a_half / (_N_ANCHOR - 1)
    return best


# ---------------------------------------------------------------------------
# The homothety certificate's scale search before the support walk: Brent's
# minimiser of R^2(mu) over [0, 2*rad(P)/rad(Q)] (R. P. Brent, Algorithms
# for Minimization without Derivatives, 1973, ch. 5), with a relative
# tolerance of 1e-13 and a floor of 1e-3*hi below which the tolerance stops
# shrinking, so a minimum at 0 ends the search too.
# ---------------------------------------------------------------------------

_BRENT_REL_TOL = 1e-13
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def brent_min(f, hi: float) -> float:
    """Argmin of a convex f on [0, hi] by Brent's method, the best point
    evaluated."""
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
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
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


def brent_homothetic(q: PointSet, p: Pattern, sigma: Sequence[int], eps: float,
                     meb=None) -> VerifyResult:
    """verify_homothetic as it was with Brent's search, on valid input, with
    the ball solver ``meb`` (by default the module's ``_meb``, looked up at
    call time)."""
    meb = meb or (lambda cloud, order: verifier._meb(cloud, order)[:2])
    qu, eq = _to_unit(q.coords)
    pu, ep = _to_unit(p.coords[list(sigma)])
    qa, pa = qu.tolist(), pu.tolist()
    order = list(range(len(q)))
    random.Random(_MEB_SHUFFLE_SEED).shuffle(order)
    cq, rad_q2 = meb(qa, order)
    cp, rad_p2 = meb(pa, order)
    qc, pc = qu - cq, pu - cp
    mu = brent_min(lambda m: meb((m * qc - pc).tolist(), order)[1],
                   2.0 * math.sqrt(rad_p2 / rad_q2))
    center, _ = meb((mu * qc - pc).tolist(), order)
    scale = 1.0 / mu
    anchor = [a + (c - b) * scale for a, b, c in zip(cq, cp, center)]
    dev = max(
        [math.dist(qi, [a + scale * y for a, y in zip(anchor, pi)]) for qi, pi in zip(qa, pa)]
    ) / (scale * math.ldexp(p.min_pairwise, -ep))
    scale = math.ldexp(scale, eq - ep)
    anchor = [math.ldexp(a, eq) for a in anchor]
    return VerifyResult(accepted=dev <= eps + TAU, witness_anchor=Point(tuple(anchor)),
                        witness_scale=scale, max_relative_deviation=dev)
