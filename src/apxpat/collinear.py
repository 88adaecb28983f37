"""Almost-collinear subset search in the plane.

Segments are colored by the angle they make with the x-axis, bucketed into
r = ceil(pi/eps) + 1 half-closed intervals of width < eps.  A direction is
taken modulo pi: each segment is pointed so that dx > 0, or, when it is
vertical (dx = 0), so that dy < 0.  Every angle then lies in [-pi/2, pi/2)
and a vertical segment falls in bucket 0.  The input is colored in its own
coordinates, with no change of frame and no tolerance on its coordinates:
scaling the input by a power of two leaves the coloring unchanged, as long
as its coordinates and their differences stay normal floats.  Any k
points whose segments share one bucket form an eps-collinear set (the two
base angles of every triangle are bounded by the bucket width), so the
finder looks for a k-clique inside each bucket's segment graph, richest
bucket first.  A found subset is re-certified with the collinearity
verifier, which scales its points by a power of two into the unit range,
so the certificate does not depend on the scale either.

The coloring is held as arrays: every pair in ``np.triu_indices`` order and
one bucket per pair.  A bucket's graph is peeled to its (k-1)-core in numpy
and searched with Python-int bitsets over the core's vertices, pruned by a
greedy coloring bound, in the style of bit-parallel maximum-clique solvers
(San Segundo et al., "An improved bit-parallel exact maximum clique
algorithm", 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InternalError
from .geometry import PointSet
from .verifier import triangle_angles, verify_collinear

__all__ = [
    "AngleColoring",
    "CollinearOutcome",
    "bucket_count",
    "angle_bucket",
    "build_coloring",
    "find_collinear",
]

DEFAULT_NODE_BUDGET = 10**6
# numpy's arctan2 can differ from math.atan2 in the last bit, which moves a
# bucket position (angle over bucket width) by about r * 1e-16.  Positions
# within _EDGE_MARGIN * r of a bucket edge are recomputed with math.atan2,
# so every bucket is the one the scalar rule gives.
_EDGE_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class AngleColoring:
    """Bucket ``assignments[p]`` of the pair ``(i[p], j[p])``, for every
    unordered pair of point indices in ``np.triu_indices`` order."""

    r: int
    i: np.ndarray
    j: np.ndarray
    assignments: np.ndarray


@dataclass(frozen=True)
class CollinearOutcome:
    found: bool
    subset: tuple[int, ...]
    bucket: Optional[int]
    accepted: bool
    worst_triangle: tuple[int, int, int] | None
    worst_angles: tuple[float, float, float] | None
    proven_absent: bool


def bucket_count(eps: float) -> int:
    """r = ceil(pi/eps) + 1, the number of angle buckets.  Raises ValueError
    when r is not finite or does not fit numpy's index type."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    r = math.pi / eps
    if not r < np.iinfo(np.intp).max - 1:
        raise ValueError(f"eps {eps:g} asks for more angle buckets than an array can index")
    return math.ceil(r) + 1


def _buckets(dx: np.ndarray, dy: np.ndarray, r: int) -> np.ndarray:
    """Bucket of each segment direction, taken modulo pi: with the segment
    pointed so that dx > 0, or dx = 0 and dy < 0,
    floor((atan2(dy, dx) + pi/2) / (pi/r)) clamped to [0, r)."""
    dx, dy = np.abs(dx), np.where((dx < 0) | ((dx == 0) & (dy > 0)), -dy, dy)
    width = math.pi / r
    pos = (np.arctan2(dy, dx) + math.pi / 2.0) / width
    b = np.floor(pos)
    for p in np.flatnonzero(np.abs(pos - np.rint(pos)) < _EDGE_MARGIN * r):
        b[p] = math.floor((math.atan2(dy[p], dx[p]) + math.pi / 2.0) / width)
    return np.clip(b, 0, r - 1).astype(np.intp)


def angle_bucket(p: Sequence[float], q: Sequence[float], r: int) -> int:
    """Bucket index of the angle segment pq makes with the x-axis.

    Buckets are the half-closed intervals [-pi/2 + i*pi/r, -pi/2 + (i+1)*pi/r).
    The angle is taken modulo pi, with the segment pointed so that dx > 0,
    or dx = 0 and dy < 0: orientation does not matter, and a vertical
    segment is in bucket 0.  The points are used as given, in no other frame.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError("r must be an integer >= 1")
    if len(p) != 2 or len(q) != 2:
        raise DimensionMismatch("angle buckets are defined in the plane")
    if p[0] == q[0] and p[1] == q[1]:
        raise ValueError("coincident points have no direction")
    return int(_buckets(np.array([q[0] - p[0]], float), np.array([q[1] - p[1]], float), r)[0])


def build_coloring(s: PointSet, eps: float) -> tuple[AngleColoring, np.ndarray]:
    """Angle coloring of all segments, in the input's own coordinates, and
    the pair positions ordered by bucket (a stable sort, so each bucket's
    pairs stay in ``np.triu_indices`` order).

    Directions are taken modulo pi as in ``angle_bucket``, so a vertical
    segment is in bucket 0 and no frame is needed.  Nothing is sized by
    the bucket count r, so a tiny eps costs no more memory than a wide one.
    """
    if s.dim != 2:
        raise DimensionMismatch("coloring is defined in the plane")
    r = bucket_count(eps)
    x, y = s.coords[:, 0], s.coords[:, 1]
    i, j = np.triu_indices(len(x), 1)
    assignments = _buckets(x[j] - x[i], y[j] - y[i], r)
    # Sorted in the narrowest type that holds r - 1: the same order, and
    # numpy sorts 8- and 16-bit keys stably by radix.
    key = assignments.astype(np.min_scalar_type(r - 1))
    return AngleColoring(r, i, j, assignments), np.argsort(key, kind="stable")


def _core(i: np.ndarray, j: np.ndarray, n: int, m: int) -> tuple[list[int], list[int]]:
    """The m-core (m >= 1) of the graph on n vertices with edges (i, j).

    Returns the core's vertices ordered by (-core degree, index), and each
    one's neighbours as a bitset whose bit p stands for the p-th of them.
    """
    while True:
        deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        keep = (deg[i] >= m) & (deg[j] >= m)
        if keep.all():
            break
        i, j = i[keep], j[keep]
    by_degree = np.argsort(-deg, kind="stable")
    size = np.count_nonzero(deg)
    pos = np.argsort(by_degree)
    adj = np.zeros((size, size), dtype=bool)
    adj[pos[i], pos[j]] = adj[pos[j], pos[i]] = True
    rows = np.packbits(adj, axis=1, bitorder="little")
    return by_degree[:size].tolist(), [int.from_bytes(row.tobytes(), "little") for row in rows]


def _colors_reach(cands: int, nbr: list[int], need: int) -> bool:
    """Whether a greedy coloring of cands, in bit order, uses >= need colors.

    Built one color class at a time, which gives the classes of sequential
    first-fit coloring; the color count bounds the clique size.
    """
    colors = 0
    while cands and colors < need:
        colors += 1
        avail = cands
        while avail:
            low = avail & -avail
            cands ^= low
            avail &= ~low & ~nbr[low.bit_length() - 1]
    return colors >= need


def _k_clique(
    i: np.ndarray, j: np.ndarray, n: int, k: int, budget: int
) -> tuple[Optional[list[int]], bool]:
    """Exact k-clique search; returns (clique or None, budget_exhausted)."""
    # Vertices outside the (k-1)-core can never join a k-clique.
    order, nbr = _core(i, j, n, k - 1)
    if len(order) < k:
        return None, False
    nodes = 0

    def extend(clique: list[int], cands: int) -> Optional[list[int]]:
        nonlocal nodes
        if len(clique) == k:
            return clique
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"clique search passed {budget} nodes")
        if not _colors_reach(cands, nbr, k - len(clique)):
            return None
        while cands:
            if len(clique) + cands.bit_count() < k:
                return None
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            out = extend(clique + [order[v]], cands & nbr[v])
            if out is not None:
                return out
        return None

    try:
        return extend([], (1 << len(order)) - 1), False
    except BudgetExceeded:
        return None, True


def _greedy_clique(order: list[int], nbr: list[int], k: int) -> Optional[list[int]]:
    """Best-effort fallback after budget exhaustion."""
    for start, common in enumerate(nbr):
        clique = [start]
        while common:
            v = (common & -common).bit_length() - 1
            clique.append(v)
            if len(clique) == k:
                return [order[v] for v in clique]
            common &= nbr[v]
    return None


def find_collinear(
    s: PointSet,
    k: int,
    eps: float,
    *,
    node_budget: int | None = None,
) -> CollinearOutcome:
    """Search for a k-point eps-collinear subset of a planar point set.

    Segments are colored in the input's own coordinates, directions taken
    modulo pi (a vertical segment is in bucket 0), so there is no frame
    to fix.  A found subset is certified by ``verify_collinear``, which,
    like ``triangle_angles``, works in the unit range.  Scaling the
    input by a power of two leaves the outcome unchanged as long as its
    coordinates and their differences stay normal floats.
    Each bucket with at least C(k, 2) pairs, richest first, gets an exact
    k-clique search of at most ``node_budget`` nodes (default
    ``DEFAULT_NODE_BUDGET``).  If that runs out, a greedy pass over the
    bucket's whole graph may still find a clique.  proven_absent is True
    only when every bucket was searched exactly; a budget-exhausted run
    reports found=False without that proof.
    """
    if s.dim != 2:
        raise DimensionMismatch("the finder is restricted to the plane")
    if int(k) != k or k < 3:
        raise ValueError("k must be an integer >= 3")
    k = int(k)
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if len(set(map(tuple, s.coords.tolist()))) < len(s):
        raise ValueError("points must be pairwise distinct")
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET

    if len(s) < k:
        return CollinearOutcome(
            found=False, subset=(), bucket=None, accepted=False,
            worst_triangle=None, worst_angles=None,
            proven_absent=True,
        )

    coloring, by_bucket = build_coloring(s, eps)
    # The buckets that occur, ascending, and where each one's pairs start.
    sorted_buckets = coloring.assignments[by_bucket]
    starts = np.flatnonzero(np.diff(sorted_buckets, prepend=-1) != 0)
    counts = np.diff(starts, append=len(by_bucket))

    exhausted_any = False
    for g in np.argsort(-counts, kind="stable").tolist():
        if counts[g] < k * (k - 1) // 2:
            break
        b = int(sorted_buckets[starts[g]])
        pairs = by_bucket[starts[g]:starts[g] + counts[g]]
        i, j = coloring.i[pairs], coloring.j[pairs]
        clique, exhausted = _k_clique(i, j, len(s), k, node_budget)
        if exhausted:
            exhausted_any = True
            if clique is None:
                clique = _greedy_clique(*_core(i, j, len(s), 1), k)
        if clique is None:
            continue
        subset = tuple(sorted(clique))
        accepted, worst_local = verify_collinear(PointSet(2, s.coords[list(subset)]), eps)
        if not accepted:
            raise InternalError(
                "monochromatic subset failed collinearity verification; this cannot happen"
            )
        worst = tuple(subset[t] for t in worst_local)
        angles = triangle_angles(*s.coords[list(worst)].tolist())
        return CollinearOutcome(
            found=True, subset=subset, bucket=b, accepted=True,
            worst_triangle=worst, worst_angles=angles,
            proven_absent=False,
        )

    return CollinearOutcome(
        found=False, subset=(), bucket=None, accepted=False,
        worst_triangle=None, worst_angles=None,
        proven_absent=not exhausted_any,
    )
