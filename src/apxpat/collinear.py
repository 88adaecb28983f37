"""Almost-collinear subset search in the plane.

Segments are colored by the angle they make with the x-axis, bucketed into
r = ceil(pi/eps) + 1 half-closed intervals of width < eps.  Any k points
whose segments share one bucket form an eps-collinear set (the two base
angles of every triangle are bounded by the bucket width), so the finder
looks for a k-clique inside each bucket's segment graph, richest bucket
first.  A found subset is re-certified with the collinearity verifier.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateFrame, DimensionMismatch, InternalError
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
_FRAME_TOL = 1e-12
# Rotation used to break ties in x-coordinates: 1/phi radians, an
# irrational multiple of pi never realigns a finite set twice.
_FRAME_ANGLE = 2.0 / (1.0 + math.sqrt(5.0))
_MAX_FRAME_FIXES = 8


@dataclass(frozen=True)
class AngleColoring:
    """Bucket assignment for every unordered pair of point indices."""

    r: int
    assignments: dict[tuple[int, int], int]


@dataclass(frozen=True)
class CollinearOutcome:
    found: bool
    subset: tuple[int, ...]
    bucket: Optional[int]
    accepted: bool
    worst_triangle: tuple[int, int, int] | None
    worst_angles: tuple[float, float, float] | None
    proven_absent: bool
    rotations: int


def bucket_count(eps: float) -> int:
    return math.ceil(math.pi / eps) + 1


def angle_bucket(p: Sequence[float], q: Sequence[float], r: int) -> int:
    """Bucket index of the angle segment pq makes with the x-axis.

    Buckets are the half-closed intervals [-pi/2 + i*pi/r, -pi/2 + (i+1)*pi/r).
    """
    if len(p) != 2 or len(q) != 2:
        raise DimensionMismatch("angle buckets are defined in the plane")
    if p[0] == q[0] and p[1] == q[1]:
        raise ValueError("coincident points have no direction")
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if dx < 0:
        dx, dy = -dx, -dy
    if dx == 0:
        raise ValueError("vertical segment; fix the frame first")
    theta = math.atan2(dy, dx)
    bucket = math.floor((theta + math.pi / 2.0) / (math.pi / r))
    if bucket < 0:
        bucket = 0
    elif bucket >= r:
        bucket = r - 1
    return bucket


def _rotate(coords: list[list[float]], angle: float) -> list[tuple[float, float]]:
    ca, sa = math.cos(angle), math.sin(angle)
    return [(ca * x - sa * y, sa * x + ca * y) for x, y in coords]


def _fix_frame(coords: list[list[float]]) -> tuple[list, int]:
    for attempt in range(_MAX_FRAME_FIXES + 1):
        xs = sorted(c[0] for c in coords)
        if all(b - a > _FRAME_TOL for a, b in zip(xs, xs[1:])):
            return coords, attempt
        coords = _rotate(coords, _FRAME_ANGLE)
    raise DegenerateFrame("could not make x-coordinates pairwise distinct")


def build_coloring(s: PointSet, eps: float) -> tuple[AngleColoring, int]:
    """Angle coloring of all segments; returns it plus the rotation count."""
    if s.dim != 2:
        raise DimensionMismatch("coloring is defined in the plane")
    pts, rotations = _fix_frame(s.coords.tolist())
    r = bucket_count(eps)
    assignments = {}
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            assignments[(i, j)] = angle_bucket(pts[i], pts[j], r)
    return AngleColoring(r, assignments), rotations


def _greedy_color_bound(cands: list[int], adj: dict[int, set[int]]) -> int:
    """Greedy coloring of the candidate subgraph; color count bounds the clique."""
    colors: dict[int, int] = {}
    for v in cands:
        used = {colors[u] for u in adj[v] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return len(set(colors.values())) if colors else 0


class _Exhausted(Exception):
    pass


def _k_clique(adj: dict[int, set[int]], k: int, budget: int) -> tuple[Optional[list[int]], bool]:
    """Exact k-clique search; returns (clique or None, budget_exhausted)."""
    # k-core peel: vertices of degree < k-1 can never join a k-clique.
    adj = {v: set(nb) for v, nb in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) < k - 1:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    if len(adj) < k:
        return None, False
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    nodes = 0

    def extend(clique: list[int], cands: list[int]) -> Optional[list[int]]:
        nonlocal nodes
        if len(clique) == k:
            return clique
        nodes += 1
        if nodes > budget:
            raise _Exhausted
        if len(clique) + len(cands) < k:
            return None
        if len(clique) + _greedy_color_bound(cands, adj) < k:
            return None
        for pos, v in enumerate(cands):
            if len(clique) + (len(cands) - pos) < k:
                return None
            nxt = [u for u in cands[pos + 1:] if u in adj[v]]
            out = extend(clique + [v], nxt)
            if out is not None:
                return out
        return None

    try:
        return extend([], order), False
    except _Exhausted:
        return None, True


def _greedy_clique(adj: dict[int, set[int]], k: int) -> Optional[list[int]]:
    """Best-effort fallback after budget exhaustion."""
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    for start in order:
        clique = [start]
        for u in order:
            if u != start and all(u in adj[v] for v in clique):
                clique.append(u)
                if len(clique) == k:
                    return clique
    return None


def find_collinear(
    s: PointSet,
    k: int,
    eps: float,
    *,
    node_budget: int | None = None,
) -> CollinearOutcome:
    """Search for a k-point eps-collinear subset of a planar point set.

    proven_absent is True only when every bucket was searched exactly; a
    budget-exhausted run reports found=False without that proof.
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
        env = os.environ.get("APXPAT_BUDGET")
        node_budget = int(env) if env else DEFAULT_NODE_BUDGET

    if len(s) < k:
        return CollinearOutcome(
            found=False, subset=(), bucket=None, accepted=False,
            worst_triangle=None, worst_angles=None,
            proven_absent=True, rotations=0,
        )

    coloring, rotations = build_coloring(s, eps)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for pair, b in coloring.assignments.items():
        buckets.setdefault(b, []).append(pair)
    order = sorted(buckets, key=lambda b: (-len(buckets[b]), b))

    exhausted_any = False
    for b in order:
        edges = buckets[b]
        if len(edges) < k * (k - 1) // 2:
            continue
        adj: dict[int, set[int]] = {}
        for i, j in edges:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        clique, exhausted = _k_clique(adj, k, node_budget)
        if exhausted:
            exhausted_any = True
            if clique is None:
                clique = _greedy_clique(adj, k)
        if clique is None:
            continue
        subset = tuple(sorted(clique))
        accepted, worst_local = verify_collinear(s.subset(subset), eps)
        if not accepted:
            raise InternalError(
                "monochromatic subset failed collinearity verification; this cannot happen"
            )
        worst = tuple(subset[i] for i in worst_local)
        angles = triangle_angles(*s.coords[list(worst)].tolist())
        return CollinearOutcome(
            found=True, subset=subset, bucket=b, accepted=True,
            worst_triangle=worst, worst_angles=angles,
            proven_absent=False, rotations=rotations,
        )

    return CollinearOutcome(
        found=False, subset=(), bucket=None, accepted=False,
        worst_triangle=None, worst_angles=None,
        proven_absent=not exhausted_any, rotations=rotations,
    )
