"""Subdivision search in R^d: approximate k-grids and, via a sufficiently
fine grid, approximate copies of arbitrary finite patterns.

One loop serves every dimension; ``search1d.search_ap`` is its d = 1 case.
Each step bins the active points into the (k*s)^d congruent cells of the
current cube and takes the occupied cells.  Every axis index lies in
[0, k*s), so the offset system t (its k^d cells t + s*m, m in {0..k-1}^d)
is fully occupied iff exactly k^d occupied cells have index = t (mod s) on
every axis.  One count of the occupied cells' residues therefore decides
all s^d systems at once; the lexicographically smallest full t wins.
Otherwise the search descends into the first max-count cell in
lexicographic order.  Work and memory are O(n log n) and O(n) per step:
no array of size s^d or (k*s)^d and no flat cell index is formed, so any
d the schedule accepts runs.

The grid searcher certifies its success with ``verify_homothetic`` against
the unit k-grid.  The pattern searcher maps the target pattern onto the
nodes of a fine K-grid, runs the grid search, and post-verifies the
selected points against the original pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np

from . import _kernels
from .bounds import Schedule, schedule_nd
from .errors import DimensionMismatch, InsufficientSeparation, InternalError, ResolutionOverflow
from .geometry import AxisBox, Homothety, Pattern, Point, PointSet
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
    """A fully occupied system: offset t, anchor points, chosen input indices."""

    t: object  # int in 1-D, tuple of ints in d-D
    anchors: tuple[Point, ...]
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class StepDescend:
    """Recursion into the max-count cell (int in 1-D, multi-index in d-D)."""

    cell: object


@dataclass(frozen=True)
class SearchStep:
    box: AxisBox
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


def _audit_separation(flat: np.ndarray, dim: int, delta: float) -> None:
    if _kernels.has_close_pair(flat, dim, delta * (1.0 - TAU)):
        raise InsufficientSeparation(
            f"input contains a pair closer than delta={delta}"
        )


def _unit_grid_pattern(dim: int, k: int) -> Pattern:
    return Pattern(dim, list(product(range(k), repeat=dim)))


def _lex_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of an (n, d) array and the
    positions in that order where each run of equal rows starts."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    return order, np.flatnonzero(new)


def _subdivide(s: PointSet, k: int, schedule: Schedule, lo, length) -> SearchOutcome:
    """The subdivision loop shared by every dimension.

    A success carries the chosen points, anchors and witness but no
    certificate (verify=None); the caller certifies it.  Warnings use the
    1-D wording (interval, k) at d = 1 and the cube wording otherwise.
    """
    d = s.dim
    if d == 1:
        region, span, needed_name = "interval", "interval length", "k"
    else:
        region, span, needed_name = "cube", "cube side", "k^d"
    coords = s.coords
    if len(s) >= 2:
        _audit_separation(coords.reshape(-1), d, schedule.delta)

    lo_vec = coords.min(axis=0) if lo is None else np.asarray(
        lo.coords if isinstance(lo, Point) else lo, dtype=float
    )
    if lo_vec.shape != (d,):
        raise DimensionMismatch("lo must have one coordinate per axis")
    with np.errstate(over="ignore"):
        tight = float((coords.max(axis=0) - lo_vec).max())
    box_len = max(tight, 0.0 if length is None else float(length))
    if not math.isfinite(box_len):
        raise ValueError(f"the search {span} {box_len:g} is not a finite float")
    warnings: list[str] = []
    below = box_len < schedule.z0
    if below:
        warnings.append(
            f"{span} {box_len:g} is below the guarantee threshold z0={schedule.z0:g}"
        )
    if box_len <= 0.0:
        warnings.append(f"degenerate search {region}; nothing to subdivide")
        return SearchOutcome(
            found=False, subset=(), anchors=(), homothety=None, verify=None,
            trace=SearchTrace(()), schedule=schedule,
            below_threshold=below, warnings=tuple(warnings),
        )

    inside = np.all((coords >= lo_vec) & (coords <= lo_vec + box_len), axis=1)
    active = np.flatnonzero(inside)
    stride, ks = schedule.s, k * schedule.s
    needed = k**d
    cur_lo = lo_vec
    cur_len = box_len
    steps: list[SearchStep] = []

    for _step in range(schedule.j):
        if len(active) < needed:
            # Counts only shrink along the recursion, so no later step can
            # occupy k^d cells; stop instead of subdividing uselessly.
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
        box = AxisBox(Point(cur_lo), cur_len)
        residue = cells % stride
        r_order, r_starts = _lex_runs(residue)
        per_system = np.diff(r_starts, append=len(r_order))
        full = np.flatnonzero(per_system == needed)
        if len(full):
            t = residue[r_order[r_starts[full[0]]]]
            # The k^d cells t + s*m, in lexicographic order of m.
            members = np.flatnonzero((residue == t).all(axis=1))
            chosen = tuple(int(i) for i in active[first[members]])
            anchors = tuple(Point(cur_lo + cells[m] * x) for m in members)
            hit = tuple(int(v) for v in t)
            steps.append(SearchStep(box, cur_len, len(active), StepSuccess(hit, anchors, chosen)))
            return SearchOutcome(
                found=True, subset=chosen, anchors=anchors,
                homothety=Homothety(anchors[0], stride * x), verify=None,
                trace=SearchTrace(tuple(steps)), schedule=schedule,
                below_threshold=below, warnings=tuple(warnings),
            )
        best = int(counts.argmax())
        steps.append(SearchStep(box, cur_len, len(active),
                                StepDescend(tuple(int(v) for v in cells[best]))))
        active = active[order[starts[best] : starts[best] + counts[best]]]
        cur_lo = cur_lo + cells[best] * x
        cur_len = x

    return SearchOutcome(
        found=False, subset=(), anchors=(), homothety=None, verify=None,
        trace=SearchTrace(tuple(steps)), schedule=schedule,
        below_threshold=below, warnings=tuple(warnings),
    )


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
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    k = int(k)
    d = s.dim
    out = _subdivide(s, k, schedule_nd(d, k, c, delta, eps), lo, length)
    if not out.found:
        return out
    # Success implies at least k^d input points, so the unit grid is no
    # larger than the input.
    pattern = _unit_grid_pattern(d, k)
    result = verify_homothetic(s.subset(out.subset), pattern, list(range(len(pattern))), eps)
    if not result.accepted:
        raise InternalError(
            "grid success failed homothety verification; this cannot happen"
        )
    return replace(out, verify=result)


def _pattern_extent(p: Pattern) -> tuple[np.ndarray, float]:
    """Per-axis minima of the pattern and its largest per-axis span."""
    p_lo = p.coords.min(axis=0)
    return p_lo, float((p.coords.max(axis=0) - p_lo).max())


def pattern_grid_resolution(p: Pattern, eps: float, d: int) -> tuple[int, float]:
    """Grid size K and grid tolerance eps_g realizing the pattern reduction.

    Guarantees that distinct pattern points round to distinct nodes of the
    {0..K-1}^d grid and that node rounding error plus grid-search error fit
    inside the eps * scale * min_pairwise ball of the original pattern.
    """
    eps = float(eps)
    if not (0.0 < eps <= 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3]")
    if p.min_pairwise <= 0.0:
        raise ValueError("degenerate pattern")
    _, d_inf = _pattern_extent(p)
    eps_g = min(eps / 2.0, 1.0 / 3.0)
    K = 1 + math.ceil((eps_g + math.sqrt(d) / 2.0) * d_inf / (eps_g * p.min_pairwise))
    return K, eps_g


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

    Runs the k-grid search on a sufficiently fine K-grid, then reads the
    pattern's copy off the found grid points and post-verifies it against
    the original pattern; found=True only if that certificate passes.
    A K above ``DEFAULT_RESOLUTION_CAP`` raises ResolutionOverflow.
    """
    if s.dim != p.dim:
        raise DimensionMismatch("point set and pattern dimensions differ")
    d = s.dim
    K, eps_g = pattern_grid_resolution(p, eps, d)
    if K > DEFAULT_RESOLUTION_CAP:
        raise ResolutionOverflow(
            f"pattern reduction needs a {K}-grid per axis (cap {DEFAULT_RESOLUTION_CAP})"
        )
    p_lo, d_inf = _pattern_extent(p)
    # np.rint rounds half to even, as round() does.
    nodes = [tuple(row) for row in
             np.rint((p.coords - p_lo) * (K - 1) / d_inf).astype(np.int64).tolist()]
    if len(set(nodes)) != len(nodes):
        raise InternalError("pattern nodes collided; resolution formula violated")

    inner = search_grid(s, K, eps_g, delta, c, lo=lo, length=length)
    reduction = PatternReduction(grid_k=K, grid_eps=eps_g, nodes=tuple(nodes))
    if not inner.found:
        return SearchOutcome(
            found=False, subset=(), anchors=(), homothety=None, verify=None,
            trace=inner.trace, schedule=inner.schedule,
            below_threshold=inner.below_threshold, warnings=inner.warnings,
            reduction=reduction,
        )

    def node_flat(node: tuple[int, ...]) -> int:
        f = 0
        for a in range(d):
            f = f * K + node[a]
        return f

    subset = tuple(inner.subset[node_flat(n)] for n in nodes)
    g = inner.homothety.scale
    a0 = inner.homothety.anchor
    scale = g * (K - 1) / d_inf
    witness = Homothety(np.asarray(a0.coords) - scale * p_lo, scale)
    anchors = tuple(witness.apply(pt) for pt in p)
    result = verify_homothetic(s.subset(subset), p, list(range(len(p))), eps)
    warnings = inner.warnings
    if not result.accepted:
        warnings = warnings + ("pattern post-verification failed; reporting not found",)
    return SearchOutcome(
        found=result.accepted, subset=subset, anchors=anchors,
        homothety=witness, verify=result,
        trace=inner.trace, schedule=inner.schedule,
        below_threshold=inner.below_threshold, warnings=warnings,
        reduction=reduction,
    )
