"""Subdivision search in R^d: approximate k-grids and, via a sufficiently
fine grid, approximate copies of arbitrary finite patterns.

One loop serves every dimension and both targets; ``search1d.search_ap``
is its d = 1 grid case.  Each step bins the active points into the
(k*s)^d congruent cells of the current cube and takes the occupied cells.
Every axis index lies in [0, k*s), so an occupied cell belongs to the
offset system t = index mod s, as its cell t + s*m with m = index div s in
{0..k-1}^d.  The target names its nodes m: every m for the k-grid, one m
per point for a pattern.  A system is complete when all its node cells
are occupied, and one grouping of the occupied cells by residue decides
all s^d systems at once.  Of the complete systems the most occupied wins,
the lexicographically smallest t among those, so the grid search takes
the smallest full t, and a pattern's search takes it too wherever a full
K-grid system exists.  The success step lists the node cells' anchors and
chosen points, in node order.  Otherwise the search descends into the
first max-count cell in lexicographic order; the descent does not depend
on the target, so a pattern is found at the step its K-grid would be, or
earlier.  Work and memory are O(n log n) and O(n) per step: no array of
size s^d or (k*s)^d and no flat cell index is formed, so any d the
schedule accepts runs.  The search has one exit: a degenerate box, too
few active points, a cell width that underflows, a complete system and an
exhausted depth each return through one outcome builder, which fills in
the trace, schedule, ``below_threshold`` and warnings.

The grid searcher certifies its success with ``verify_homothetic`` against
the unit k-grid.  The pattern searcher rounds the target pattern onto the
nodes of a fine K-grid, searches for those |P| node cells, and certifies
the selected points against the original pattern.  Its trace keeps tuple
offsets and cells at d = 1 too; only ``search_ap`` turns them into ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from .bounds import Schedule, check_eps, check_real, check_whole, schedule_nd
from .errors import (DimensionMismatch, InsufficientSeparation, InternalError, InvalidArgument,
                     ResolutionOverflow)
from .geometry import Homothety, Pattern, Point, PointSet, apply_homothety
from .verifier import TAU, VerifyResult, verify_homothetic

__all__ = [
    "StepSuccess",
    "StepDescend",
    "SearchStep",
    "SearchTrace",
    "PatternReduction",
    "SearchOutcome",
    "search_grid",
    "search_pattern",
    "pattern_grid_resolution",
]

DEFAULT_RESOLUTION_CAP = 10_000


@dataclass(frozen=True)
class StepSuccess:
    """A complete system: offset t, and the anchor and chosen input index of
    each node cell, in node order (all k^d cells for a grid, one per point
    for a pattern)."""

    t: object  # int from search_ap, else a tuple of ints (1-D patterns too)
    anchors: tuple[Point, ...]
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class StepDescend:
    """Recursion into the max-count cell (int from search_ap, else a
    multi-index)."""

    cell: object


@dataclass(frozen=True)
class SearchStep:
    """One subdivision step over the cube [low, low + side]^d."""

    low: Point
    side: float
    count: int
    action: StepSuccess | StepDescend


@dataclass(frozen=True)
class SearchTrace:
    steps: tuple[SearchStep, ...]


@dataclass(frozen=True)
class PatternReduction:
    """Fine-grid parameters used by the pattern searcher."""

    grid_k: int
    grid_eps: float
    nodes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    subset: tuple[int, ...]
    anchors: tuple[Point, ...]
    homothety: Optional[Homothety]
    verify: Optional[VerifyResult]
    trace: SearchTrace
    schedule: Schedule
    below_threshold: bool
    warnings: tuple[str, ...] = ()
    reduction: Optional[PatternReduction] = None


def _lex_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of an (n, d) array and the
    positions in that order where each run of equal rows starts."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = _kernels.across_axes(np.logical_or, srt[1:] != srt[:-1])
    return order, np.flatnonzero(new)


def _node_rank(quot: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Position in ``nodes`` (distinct rows) of each row of ``quot``, or -1."""
    _, run = np.unique(np.concatenate([nodes, quot]), axis=0, return_inverse=True)
    rank = np.full(len(nodes) + len(quot), -1)
    rank[run[: len(nodes)]] = np.arange(len(nodes))
    return rank[run[len(nodes):]]


def _subdivide(
    s: PointSet, k: int, schedule: Schedule, lo, length, nodes: np.ndarray | None = None
) -> SearchOutcome:
    """The subdivision loop shared by every dimension.

    ``nodes`` holds a pattern's node offsets m in {0..k-1}^d, one row per
    pattern point; without it every m is a node (the k-grid).  A system t
    succeeds when every node cell t + s*m is occupied, and its members are
    listed in node order (lexicographic order of m for the grid).
    A success carries the chosen points, anchors and witness but no
    certificate (verify=None); the caller certifies it.  Every stop (a
    degenerate box, too few active points, a cell width that underflows, a
    complete system, the depth exhausted) returns through ``outcome``,
    which adds the trace, schedule, threshold flag and warnings.  Warnings
    use the 1-D wording (interval, k) at d = 1 and the cube wording
    otherwise, or name the pattern's point count.  A lo that is not
    finite, and a length that is not finite or is negative, raise
    InvalidArgument.
    """
    d = s.dim
    region, span = ("interval", "interval length") if d == 1 else ("cube", "cube side")
    if lo is not None:
        lo = np.array([check_real(v, "(-inf, inf)", "lo must be finite") for v in np.ravel(lo)])
        if lo.shape != (d,):
            raise DimensionMismatch("lo must have one coordinate per axis")
    if length is not None:
        # An infinite length is refused with the box below.
        length = check_real(length, "[0, inf]", f"the search {span} must be >= 0, not nan")
    if nodes is None:
        needed, needed_name = k**d, "k" if d == 1 else "k^d"
    else:
        needed, needed_name = len(nodes), f"the pattern's {len(nodes)} points"
    if k * schedule.s > np.iinfo(np.int64).max:
        raise InvalidArgument(f"eps {schedule.eps!r} is too small: its k*s cells per axis "
                              "do not fit the int64 cell indices")
    coords = s.coords
    delta = schedule.delta
    if len(s) >= 2 and _kernels.has_close_pair(coords.reshape(-1), d, delta * (1.0 - TAU)):
        raise InsufficientSeparation(f"input contains a pair closer than delta={delta}")

    lo_vec = _kernels.per_axis(np.minimum, coords) if lo is None else lo
    with np.errstate(over="ignore"):
        tight = float((_kernels.per_axis(np.maximum, coords) - lo_vec).max())
    box_len = max(tight, 0.0 if length is None else length)
    if not math.isfinite(box_len):
        raise InvalidArgument(f"the search {span} {box_len:g} is not a finite float")
    below = box_len < schedule.z0
    warnings: list[str] = []
    if below:
        warnings.append(f"{span} {box_len:g} is below the guarantee threshold z0={schedule.z0:g}")
    steps: list[SearchStep] = []

    def outcome(subset=(), anchors=(), homothety=None) -> SearchOutcome:
        return SearchOutcome(
            found=homothety is not None, subset=subset, anchors=anchors, homothety=homothety,
            verify=None, trace=SearchTrace(tuple(steps)), schedule=schedule,
            below_threshold=below, warnings=tuple(warnings),
        )

    if box_len <= 0.0:
        warnings.append(f"degenerate search {region}; nothing to subdivide")
        return outcome()

    inside = _kernels.across_axes(np.logical_and,
                                  (coords >= lo_vec) & (coords <= lo_vec + box_len))
    active = np.flatnonzero(inside)
    stride, ks = schedule.s, k * schedule.s
    cur_lo = lo_vec
    cur_len = box_len

    for _step in range(schedule.j):
        if len(active) < needed:
            # Counts only shrink along the recursion, so no later step can
            # occupy the needed cells; stop instead of subdividing uselessly.
            warnings.append(f"active point count fell below {needed_name}; stopping early")
            break
        x = cur_len / ks
        if x <= 0.0:
            warnings.append("cell width underflowed; stopping early")
            break
        idx = _kernels.bin_cells(coords[active], d, cur_lo, x, ks)
        # Occupied cells in lexicographic order, each cell's active points
        # in input order, so the first is the smallest input index.
        order, starts = _lex_runs(idx)
        first = order[starts]
        cells = idx[first]
        counts = np.diff(starts, append=len(order))
        low = Point(cur_lo)
        # Occupied cells grouped by system t (the residue); the stable sort
        # keeps each group in lexicographic order of its cells.
        residue = cells % stride
        r_order, r_starts = _lex_runs(residue)
        per_system = np.diff(r_starts, append=len(r_order))
        if nodes is None:
            complete = per_system == needed
        else:
            rank = _node_rank(cells // stride, nodes)
            complete = np.add.reduceat((rank >= 0)[r_order].astype(np.intp), r_starts) == needed
        if complete.any():
            # The first of the most occupied complete systems: a full
            # k-grid system wherever one exists, the smallest such t.
            g = int(np.where(complete, per_system, 0).argmax())
            members = r_order[r_starts[g] : r_starts[g] + per_system[g]]
            if nodes is not None:
                # Rank -1 sorts first: the last |P| are the nodes in order.
                members = members[np.argsort(rank[members])[-needed:]]
            t = residue[r_order[r_starts[g]]]
            chosen = tuple(int(i) for i in active[first[members]])
            anchors = tuple(Point(cur_lo + cells[m] * x) for m in members)
            hit = tuple(int(v) for v in t)
            steps.append(SearchStep(low, cur_len, len(active), StepSuccess(hit, anchors, chosen)))
            return outcome(chosen, anchors, Homothety(cur_lo + t * x, stride * x))
        best = int(counts.argmax())
        steps.append(SearchStep(low, cur_len, len(active),
                                StepDescend(tuple(int(v) for v in cells[best]))))
        active = active[order[starts[best] : starts[best] + counts[best]]]
        cur_lo = cur_lo + cells[best] * x
        cur_len = x
    return outcome()


def search_grid(
    s: PointSet,
    k: int,
    eps: float,
    delta: float,
    c: float,
    *,
    lo=None,
    length: float | None = None,
) -> SearchOutcome:
    """Find an eps-approximate k-grid in a delta-separated set in [lo, lo+L]^d."""
    k = check_whole(k, 2, "k")
    d = s.dim
    out = _subdivide(s, k, schedule_nd(d, k, c, delta, eps), lo, length)
    if not out.found:
        return out
    # Success implies at least k^d input points, so the unit grid, its
    # points in lexicographic order, is no larger than the input.
    pattern = Pattern(d, np.indices((k,) * d).reshape(d, -1).T)
    result = verify_homothetic(s.subset(out.subset), pattern, list(range(len(pattern))), eps)
    if not result.accepted:
        raise InternalError(
            "grid success failed homothety verification; this cannot happen"
        )
    return replace(out, verify=result)


def _pattern_extent(p: Pattern) -> tuple[np.ndarray, float]:
    """Per-axis minima of the pattern and its largest per-axis span."""
    p_lo = _kernels.per_axis(np.minimum, p.coords)
    return p_lo, float((_kernels.per_axis(np.maximum, p.coords) - p_lo).max())


def pattern_grid_resolution(p: Pattern, eps: float) -> tuple[int, float]:
    """Grid size K and grid tolerance eps_g realizing the pattern reduction.

    Guarantees that distinct pattern points round to distinct nodes of the
    {0..K-1}^d grid and that node rounding error plus grid-search error fit
    inside the eps * scale * min_pairwise ball of the original pattern.
    """
    eps = check_eps(eps)
    _, d_inf = _pattern_extent(p)
    eps_g = min(eps / 2.0, 1.0 / 3.0)
    try:
        ratio = (eps_g + math.sqrt(p.dim) / 2.0) * d_inf / (eps_g * p.min_pairwise)
    except ZeroDivisionError:  # eps/2 or its product with m_P rounds to 0
        ratio = math.inf
    if ratio == math.inf:
        raise ResolutionOverflow(f"eps {eps!r} needs a pattern grid past the float range")
    return 1 + math.ceil(ratio), eps_g


def search_pattern(
    s: PointSet,
    p: Pattern,
    eps: float,
    delta: float,
    c: float,
    *,
    lo=None,
    length: float | None = None,
) -> SearchOutcome:
    """Find an eps-approximate homothetic copy of an arbitrary finite pattern.

    Rounds the pattern onto the nodes of a sufficiently fine K-grid and
    runs the subdivision search for those node cells alone, then
    certifies the chosen points against the original pattern; found=True
    only if that certificate passes.
    A K above ``DEFAULT_RESOLUTION_CAP`` raises ResolutionOverflow.
    """
    if s.dim != p.dim:
        raise DimensionMismatch("point set and pattern dimensions differ")
    d = s.dim
    K, eps_g = pattern_grid_resolution(p, eps)
    if K > DEFAULT_RESOLUTION_CAP:
        raise ResolutionOverflow(
            f"pattern reduction needs a {K}-grid per axis (cap {DEFAULT_RESOLUTION_CAP})"
        )
    p_lo, d_inf = _pattern_extent(p)
    # np.rint rounds half to even, as round() does.
    nodes = np.rint((p.coords - p_lo) * (K - 1) / d_inf).astype(np.int64)
    if len(np.unique(nodes, axis=0)) != len(nodes):
        raise InternalError("pattern nodes collided; resolution formula violated")

    out = _subdivide(s, K, schedule_nd(d, K, c, delta, eps_g), lo, length, nodes)
    out = replace(out, reduction=PatternReduction(
        grid_k=K, grid_eps=eps_g, nodes=tuple(map(tuple, nodes.tolist()))))
    if not out.found:
        return out
    scale = out.homothety.scale * (K - 1) / d_inf
    witness = Homothety(np.asarray(out.homothety.anchor.coords) - scale * p_lo, scale)
    result = verify_homothetic(s.subset(out.subset), p, list(range(len(p))), eps)
    warnings = out.warnings
    if not result.accepted:
        warnings = warnings + ("pattern post-verification failed; reporting not found",)
    return replace(out, found=result.accepted, anchors=tuple(apply_homothety(witness, p)),
                   homothety=witness, verify=result, warnings=warnings)
