"""Brute-force ground truth for small instances.

Enumeration is driven by the verifier: every subset (and, for a pattern,
every assignment) is certified, so a search's negative answer can be
checked against all candidates.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

import numpy as np

from . import _kernels
from .bounds import check_distinct, check_eps, check_whole
from .errors import BudgetExceeded, DimensionMismatch
from .geometry import Pattern, PointSet
from .verifier import TAU, _collinear_accepts, triangle_angles, verify_ap, verify_homothetic

__all__ = [
    "enumerate_aps",
    "enumerate_homothetic",
    "exists_collinear",
]

DEFAULT_SUBSET_BUDGET = 10**7
DEFAULT_COLLINEAR_BUDGET = 10**6


def enumerate_aps(
    s: PointSet, k: int, eps: float, *, budget: int | None = None
) -> list[tuple[int, ...]]:
    """All k-subsets (index tuples in coordinate order) accepted by verify_ap;
    none when k exceeds the set's size."""
    if s.dim != 1:
        raise DimensionMismatch("AP enumeration needs a 1-D point set")
    k = check_whole(k, 3, "k")
    eps = check_eps(eps, "[0, 1/3]")
    cap = DEFAULT_SUBSET_BUDGET if budget is None else check_whole(budget, 0, "budget")
    n = len(s)
    if n < k:
        return []
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
    eps = check_eps(eps)
    k = len(p)
    if k > 8:
        raise BudgetExceeded("pattern size capped at 8 for enumeration")
    n = len(s)
    cap = DEFAULT_SUBSET_BUDGET if budget is None else check_whole(budget, 0, "budget")
    if math.comb(n, k) * math.factorial(k) > cap:
        raise BudgetExceeded(f"C({n},{k})*{k}! exceeds the budget {cap}")
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
    most eps, by verify_collinear's rule (``verifier._collinear_accepts``).

    Each triangle is scaled by a power of two into the unit range on its
    own (``triangle_angles``), while verify_collinear scales a whole
    subset once.  The verdicts agree unless a subset's coordinates span
    more than about 2^1022, where the subset's scaling underflows its
    small points.  Every subset of a passing set passes, so subsets are
    grown in index order only from subsets whose triangles all pass, and
    each triangle's verdict is computed once.
    """
    k = check_whole(k, 3, "k")
    eps = check_eps(eps, "(0, 1]")
    cap = DEFAULT_COLLINEAR_BUDGET if budget is None else check_whole(budget, 0, "budget")
    n = len(s)
    if n < k:
        return False
    if math.comb(n, k) > cap:
        raise BudgetExceeded(f"C({n},{k}) exceeds the budget {cap}")
    check_distinct(s.coords, "duplicate points: angles undefined")
    pts = s.coords.tolist()

    @functools.cache
    def passes(i: int, j: int, m: int) -> bool:
        return _collinear_accepts(sorted(triangle_angles(pts[i], pts[j], pts[m]))[1], eps)

    def grow(chosen: list[int]) -> bool:
        if len(chosen) == k:
            return True
        start = chosen[-1] + 1 if chosen else 0
        for m in range(start, n - (k - len(chosen)) + 1):
            if all(passes(i, j, m) for i, j in combinations(chosen, 2)) and grow(chosen + [m]):
                return True
        return False

    return grow([])

