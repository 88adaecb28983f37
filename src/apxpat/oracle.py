"""Brute-force ground truth for small instances.

Enumeration is driven by the verifier; the dense grid searches over
witness parameters are a second, independent route to the same feasibility
problems and exist so the test suite can cross-validate the verifier
against something that shares none of its machinery (no LP insight, no
minimum enclosing ball, no one-dimensional scale search).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import BudgetExceeded, DimensionMismatch
from .geometry import Pattern, PointSet
from .verifier import TAU, triangle_angles, verify_ap, verify_homothetic

__all__ = [
    "enumerate_aps",
    "enumerate_homothetic",
    "exists_collinear",
    "grid_min_deviation_ap",
    "grid_min_deviation_homothety",
]

DEFAULT_SUBSET_BUDGET = 10**7
DEFAULT_COLLINEAR_BUDGET = 10**6
# The homothety grid search: scales and anchors per axis in each pass, and
# the number of passes.
_N_LAMBDA = 96
_N_ANCHOR = 25
_PASSES = 5


def enumerate_aps(
    s: PointSet, k: int, eps: float, *, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All k-subsets (index tuples in coordinate order) accepted by verify_ap."""
    if s.dim != 1:
        raise ValueError("AP enumeration needs a 1-D point set")
    if int(k) != k or k < 3:
        raise ValueError("k must be an integer >= 3")
    k = int(k)
    n = len(s)
    cap = DEFAULT_SUBSET_BUDGET if budget is None else int(budget)
    if math.comb(n, k) > cap:
        raise BudgetExceeded(f"C({n},{k}) exceeds the budget {cap}")
    xs = s.coords[:, 0].tolist()
    order = sorted(range(n), key=lambda i: (xs[i], i))
    hits: list[tuple[int, ...]] = []
    for combo in combinations(order, k):
        vals = [xs[i] for i in combo]
        if any(a == b for a, b in zip(vals, vals[1:])):
            continue  # duplicates can never satisfy eps <= 1/3
        if verify_ap(vals, eps).accepted:
            hits.append(combo)
    return hits


def enumerate_homothetic(
    s: PointSet, p: Pattern, eps: float, *, budget: int | None = None
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (k-subset, assignment) pairs accepted by verify_homothetic.

    One entry per subset: the lexicographically smallest accepted
    assignment is kept.

    A pair goes to the verifier only when the scales its distances allow
    meet.  An accepted witness with scale lam and deviation D <= eps + TAU
    has every |q_i - q_j| within 2*D*lam*m_P of lam*|p_i - p_j|, so lam lies
    in [|q_ij| / (|p_ij| + 2*D*m_P), |q_ij| / (|p_ij| - 2*D*m_P)] for every
    pair; the lower end's denominator stays positive for eps <= 1/3.  A
    pair whose intervals, widened by 1e-9 relative, do not meet is skipped.
    """
    k = len(p)
    if k > 8:
        raise BudgetExceeded("pattern size capped at 8 for enumeration")
    n = len(s)
    cap = DEFAULT_SUBSET_BUDGET if budget is None else int(budget)
    if math.comb(n, k) * math.factorial(k) > cap:
        raise BudgetExceeded(f"C({n},{k})*{k}! exceeds the budget {cap}")
    eps = float(eps)
    if not (0.0 < eps <= 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3]")
    if s.dim != p.dim:
        raise DimensionMismatch("candidate and pattern dimensions differ")
    # The pattern distance each candidate pair (iu, ju) meets under each
    # assignment, in the pattern's unit range, as is m_P.
    perms = list(permutations(range(k)))
    iu, ju = np.triu_indices(k, 1)
    pd = np.zeros((k, k))
    pd[iu, ju] = pd[ju, iu] = _unit_pair_distances(p.coords)
    sig = np.asarray(perms)
    matched = pd[sig[:, iu], sig[:, ju]]
    reach = 2.0 * (eps + TAU) * pd[iu, ju].min()
    lo_den, hi_den = matched + reach, matched - reach
    hits = []
    rows = [tuple(row) for row in s.coords.tolist()]
    for combo in combinations(range(n), k):
        if len({rows[i] for i in combo}) != k:
            continue
        candidate = s.subset(combo)
        qd = _unit_pair_distances(candidate.coords)
        meet = (qd / lo_den).max(axis=1) <= (qd / hi_den).min(axis=1) * (1.0 + 1e-9)
        for t in np.flatnonzero(meet).tolist():
            if verify_homothetic(candidate, p, perms[t], eps).accepted:
                hits.append((combo, perms[t]))
                break
    return hits


def _unit_pair_distances(rows: np.ndarray) -> np.ndarray:
    """Distances of the pairs (i < j) of rows in ``np.triu_indices`` order,
    with the rows scaled by a power of two into the unit range."""
    unit = _kernels._to_unit(rows)[0]
    n = len(unit)
    scan = _kernels._sq_dists_in_ranges(unit, unit, np.arange(1, n + 1), np.full(n, n), 1.0)
    return np.sqrt(np.concatenate([d2 for _, _, d2 in scan]))


def exists_collinear(
    s: PointSet, k: int, eps: float, *, budget: int | None = None
) -> bool:
    """True iff some k-subset has every triangle's two smallest angles at
    most eps, with verify_collinear's 1e-12 tolerance.

    Each triangle is scaled by a power of two into the unit range on its
    own (``triangle_angles``), while verify_collinear scales a whole
    subset once.  The verdicts agree unless a subset's coordinates span
    more than about 2^1022, where the subset's scaling underflows its
    small points.  Every subset of a passing set passes, so subsets are
    grown in index order only from subsets whose triangles all pass, and
    each triangle's verdict is computed once.
    """
    if int(k) != k or k < 3:
        raise ValueError("k must be an integer >= 3")
    k = int(k)
    n = len(s)
    if n < k:
        return False
    cap = DEFAULT_COLLINEAR_BUDGET if budget is None else int(budget)
    if math.comb(n, k) > cap:
        raise BudgetExceeded(f"C({n},{k}) exceeds the budget {cap}")
    eps = float(eps)
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    pts = s.coords.tolist()
    if len(set(map(tuple, pts))) < n:
        raise ValueError("duplicate points: angles undefined")

    @functools.cache
    def passes(i: int, j: int, m: int) -> bool:
        return sorted(triangle_angles(pts[i], pts[j], pts[m]))[1] <= eps + 1e-12

    def grow(chosen: list[int]) -> bool:
        if len(chosen) == k:
            return True
        start = chosen[-1] + 1 if chosen else 0
        for m in range(start, n - (k - len(chosen)) + 1):
            if all(passes(i, j, m) for i, j in combinations(chosen, 2)) and grow(chosen + [m]):
                return True
        return False

    return grow([])


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
