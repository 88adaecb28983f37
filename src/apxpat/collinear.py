"""Almost-collinear subset search in the plane.

Segments are colored by the angle they make with the x-axis, bucketed into
r = ceil(pi/eps) + 1 half-closed intervals of width < eps.  A direction is
taken modulo pi: each segment is pointed so that dx > 0, or, when it is
vertical (dx = 0), so that dy < 0.  Every angle then lies in [-pi/2, pi/2)
and a vertical segment falls in bucket 0.  The input is colored in its own
coordinates, with no change of frame and no tolerance on its coordinates.
The coloring cannot overflow: a set with a coordinate of magnitude 2^1023
or more is colored from its halved coordinates, which is exact for normal
floats and keeps every difference finite.  Scaling the input by a power
of two therefore leaves the coloring unchanged, up to the float limit, as
long as no coordinate or difference falls below the normal range.  Any k
points whose segments share one bucket form an eps-collinear set (the two
base angles of every triangle are bounded by the bucket width), so the
finder looks for a k-clique inside each bucket's segment graph, richest
bucket first.  A found subset is re-certified with the collinearity
verifier, which scales its points by a power of two into the unit range,
so the certificate does not depend on the scale either.

The coloring is held as arrays: every pair (i, j), i < j, in row order, as
two arrays of the narrowest unsigned type that holds n - 1, and one bucket
per pair, in the narrowest that holds r - 1.  The pairs are colored a pass
of whole rows at a time, so no float or wide index array over all
n(n-1)/2 pairs is formed; the widest is the pair positions sorted by
bucket, 8 bytes a pair.  The finder peaks at about 16 bytes a pair
(n <= 65536, r <= 256).  Each bucket is either ruled out by its path bound
or searched exactly.  The bound orients every segment from its lower to
its higher point in the order (x ascending, y descending), the direction
the coloring gives it; a k-clique sorted by that order is a directed path
through k points, so a bucket whose graph has no such path holds no
k-clique.  The test is combinatorial, with no float tolerance.  A bucket
that passes is peeled to its (k-1)-core in numpy and searched with
Python-int bitsets over the core's vertices, pruned by a greedy coloring
bound, in the style of bit-parallel maximum-clique solvers (San Segundo
et al., "An improved bit-parallel exact maximum clique algorithm", 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .bounds import check_distinct, check_eps, check_whole, fits_in_memory
from .errors import BudgetExceeded, DimensionMismatch, InternalError, InvalidArgument
from .geometry import PointSet, _as_rows
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
# within _EDGE_MARGIN * r (about 9e-13 * r, thousands of times that
# discrepancy) of a bucket edge are recomputed with math.atan2, so every
# bucket is the one the scalar rule gives, and a tiny eps still sends few
# positions to the scalar loop.
_EDGE_MARGIN = 2.0**-40
# Bucket counts, from an eps or given as r, stay below this, so that numpy's
# index type holds them.
_MAX_BUCKETS = np.iinfo(np.intp).max - 1
# Pairs build_coloring colors in one numpy pass: enough to amortise numpy's
# per-call cost, few enough that a pass's float temporaries stay in cache.
_PAIRS_PER_PASS = 8192
# Bytes of dense adjacency rows _core fills at a time before packing them
# into bitsets, so a large core costs memory in its edges, not its square.
_CORE_BLOCK_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class AngleColoring:
    """Bucket ``assignments[p]`` of the pair ``(i[p], j[p])``, for every
    pair of point indices i < j in row order (the order of
    ``np.triu_indices``).  ``i`` and ``j`` have the narrowest unsigned type
    that holds n - 1 (``np.min_scalar_type``), and ``assignments`` the
    narrowest that holds r - 1."""

    r: int
    i: np.ndarray
    j: np.ndarray
    assignments: np.ndarray


@dataclass(frozen=True)
class CollinearOutcome:
    """A collinear search's answer.  ``proven_absent`` certifies only that
    no k points have all their segments in one angle bucket; it does not
    mean that no eps-collinear k-subset exists, since one whose segments
    fall in more than one bucket can still pass ``verify_collinear``."""

    found: bool
    subset: tuple[int, ...]
    bucket: Optional[int]
    accepted: bool
    worst_triangle: tuple[int, int, int] | None
    worst_angles: tuple[float, float, float] | None
    proven_absent: bool


def bucket_count(eps: float) -> int:
    """r = ceil(pi/eps) + 1, the number of angle buckets.  Raises
    InvalidArgument when r is not finite or does not fit numpy's index
    type."""
    eps = check_eps(eps, "(0, 1)")
    r = math.pi / eps
    if not r < _MAX_BUCKETS:
        raise InvalidArgument(f"eps {eps:g} asks for more angle buckets than an array can index")
    return math.ceil(r) + 1


def _in_range(coords: np.ndarray) -> np.ndarray:
    """coords, halved when two of them could differ by more than a float
    holds (some |coordinate| >= 2^1023).  Halving is exact for normal floats
    and halves every difference alike, so no direction moves."""
    return coords / 2.0 if np.abs(coords).max(initial=0.0) >= 2.0**1023 else coords


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
    segment is in bucket 0.  The points are used as given, in no other frame,
    and are checked as a point set's rows are (``geometry._as_rows``).
    r is refused past the bucket counts ``bucket_count`` allows.
    """
    r = check_whole(r, 1, "r")
    if not r < _MAX_BUCKETS:
        raise InvalidArgument(f"r {r:g} is more angle buckets than an array can index")
    pq = _as_rows([p, q], 2)
    if (pq[0] == pq[1]).all():
        raise InvalidArgument("coincident points have no direction")
    d = np.diff(_in_range(pq), axis=0)
    return int(_buckets(d[:, 0], d[:, 1], r)[0])


def build_coloring(s: PointSet, eps: float) -> tuple[AngleColoring, np.ndarray]:
    """Angle coloring of all segments, in the input's own coordinates, and
    the pair positions ordered by bucket (a stable sort, so each bucket's
    pairs stay in row order).

    Directions are taken modulo pi as in ``angle_bucket``, so a vertical
    segment is in bucket 0 and no frame is needed.  The pairs are colored
    in passes of whole rows, at most _PAIRS_PER_PASS pairs (or one row) at
    a time, into arrays of the narrowest types that hold n - 1 and r - 1,
    so no array of n(n-1)/2 floats or wide indices is ever formed.
    Nothing is sized by the bucket count r, so a tiny eps costs no more
    memory than a wide one.
    """
    if s.dim != 2:
        raise DimensionMismatch("coloring is defined in the plane")
    r = bucket_count(eps)
    n = len(s)
    x, y = _in_range(s.coords).T
    i = np.empty(n * (n - 1) // 2, dtype=np.min_scalar_type(n - 1))
    j = np.empty_like(i)
    assignments = np.empty(len(i), dtype=np.min_scalar_type(r - 1))
    at = 0
    for rows, cols in _kernels._range_pairs(np.arange(1, n + 1), np.full(n, n), _PAIRS_PER_PASS):
        end = at + len(rows)
        i[at:end], j[at:end] = rows, cols
        assignments[at:end] = _buckets(x[cols] - x[rows], y[cols] - y[rows], r)
        at = end
    # numpy sorts the narrow 8- and 16-bit keys stably by radix.
    return AngleColoring(r, i, j, assignments), np.argsort(assignments, kind="stable")


def _has_path(tail: np.ndarray, head: np.ndarray, n: int, k: int) -> bool:
    """Whether the digraph on n vertices with arcs tail -> head, every arc
    ascending in one total order, holds a directed path through k >= 2
    vertices.

    S_1 is every vertex, and S_(t+1), the last vertices of the paths through
    t + 1 vertices, is the heads of the arcs whose tail is in S_t.  The sets
    shrink, so an arc whose tail leaves them is dropped for good; the arcs
    left after round t are those whose tail is in S_(t+1), and a path
    through k vertices exists when some arc is left after round k - 2.
    """
    for _ in range(k - 2):
        if not len(tail):
            return False
        ends = np.zeros(n, dtype=bool)
        ends[head] = True
        # Gathering by positions is faster than by a mask, in numpy.
        keep = np.flatnonzero(ends[tail])
        tail, head = tail[keep], head[keep]
    return len(tail) > 0


def _core(i: np.ndarray, j: np.ndarray, n: int, m: int) -> tuple[list[int], list[int]]:
    """The m-core (m >= 1) of the graph on n vertices with edges (i, j).

    Returns the core's vertices ordered by (-core degree, index), and each
    one's neighbours as a bitset whose bit p stands for the p-th of them.
    The bitsets are packed from dense rows, filled _CORE_BLOCK_BYTES (at
    least one row) at a time.
    """
    while True:
        deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        full = deg >= m
        keep = full[i] & full[j]
        if keep.all():
            break
        i, j = i[keep], j[keep]
    by_degree = np.argsort(-deg, kind="stable")
    size = np.count_nonzero(deg)
    # Each edge's ends as places in the core, in the narrowest type.
    pos = np.argsort(by_degree).astype(np.min_scalar_type(n - 1))
    a, b = pos[i], pos[j]
    del i, j  # frees the peeled copies; a and b hold the edges now
    step = max(1, _CORE_BLOCK_BYTES // max(size, 1))
    nbr: list[int] = []
    for lo in range(0, size, step):
        block = np.zeros((min(step, size - lo), size), dtype=bool)
        for u, v in ((a, b), (b, a)):
            sel = (u >= lo) & (u < lo + step)
            block[u[sel] - lo, v[sel]] = True
        rows = np.packbits(block, axis=1, bitorder="little")
        nbr += [int.from_bytes(row.tobytes(), "little") for row in rows]
    return by_degree[:size].tolist(), nbr


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


def _absent(proven: bool) -> CollinearOutcome:
    """The outcome of a search that found no subset; proven_absent when
    every bucket was searched exactly."""
    return CollinearOutcome(found=False, subset=(), bucket=None, accepted=False,
                            worst_triangle=None, worst_angles=None, proven_absent=proven)


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
    Each bucket with at least C(k, 2) pairs, richest first, is either
    ruled out by its path bound or searched exactly.  The bound points
    each segment from its lower to its higher point in the order (x
    ascending, y descending); a bucket whose graph has no directed path
    through k points holds no k-clique.  A bucket that has one gets an
    exact k-clique search of at most ``node_budget`` nodes (default
    ``DEFAULT_NODE_BUDGET``).  If that runs out, a greedy pass over the
    bucket's whole graph may still find a clique.  proven_absent is True
    only when every bucket was ruled out or searched exactly; a
    budget-exhausted run reports found=False without that proof.  The
    proof covers the buckets alone: no k points have all their segments
    in one bucket.  An eps-collinear k-subset whose segments fall in more
    than one bucket is not ruled out, and 405 uniform points in
    [0, 100]^2 from ``default_rng(0)`` at k = 13, eps = 0.1 hold one
    although the search reports proven_absent.

    The colouring holds all n(n - 1)/2 pairs at once: per pair, its two
    ends and its bucket in the narrowest unsigned types that hold n - 1
    and r - 1 (w_n and w_r bytes), its position in the sort by bucket
    (an intp) and its sorted bucket, 2*w_n + 2*w_r + 8 bytes on a 64-bit
    platform.  A set whose pairs would need more than physical memory
    raises BudgetExceeded before anything is built for it.
    """
    if s.dim != 2:
        raise DimensionMismatch("the finder is restricted to the plane")
    k = check_whole(k, 3, "k")
    eps = check_eps(eps, "(0, 1)")
    check_distinct(s.coords, "points must be pairwise distinct")
    node_budget = (DEFAULT_NODE_BUDGET if node_budget is None
                   else check_whole(node_budget, 0, "node_budget"))

    n = len(s)
    if n < k:
        return _absent(proven=True)
    pairs = n * (n - 1) // 2
    width = sum(np.min_scalar_type(v).itemsize for v in (n - 1, bucket_count(eps) - 1))
    if not fits_in_memory(pairs * (2 * width + np.dtype(np.intp).itemsize)):
        raise BudgetExceeded(f"the {pairs} pairs of {n} points do not fit in memory")

    coloring, by_bucket = build_coloring(s, eps)
    # The buckets that occur, ascending, and where each one's pairs start.
    sorted_buckets = coloring.assignments[by_bucket]
    starts = np.append(0, np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1)
    buckets = sorted_buckets[starts].tolist()
    del sorted_buckets  # a byte a pair, not needed by the searches
    counts = np.diff(starts, append=len(by_bucket))

    # Each point's place in the order (x ascending, y descending), in
    # which every segment points from its lower to its higher point.
    x, y = s.coords.T
    rank = np.empty(len(s), dtype=np.intp)
    rank[np.lexsort((-y, x))] = np.arange(len(s))

    exhausted_any = False
    for g in np.argsort(-counts, kind="stable").tolist():
        if counts[g] < k * (k - 1) // 2:
            break
        b = buckets[g]
        pairs = by_bucket[starts[g]:starts[g] + counts[g]]
        i, j = coloring.i[pairs], coloring.j[pairs]
        ri, rj = rank[i], rank[j]
        if not _has_path(np.minimum(ri, rj), np.maximum(ri, rj), len(s), k):
            continue
        # Indices as intp: _core gathers and counts narrow ones more slowly.
        i, j = i.astype(np.intp), j.astype(np.intp)
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

    return _absent(proven=not exhausted_any)
