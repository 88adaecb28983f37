"""Subdivision search for approximate arithmetic progressions.

A k-term AP is a k-grid in R^1, so this is the d = 1 case of the grid
search in ``searchnd``: each step splits the current interval into k*s
half-closed cells of equal length, takes the smallest t whose cells t,
t+s, ..., t+(k-1)s are all occupied, and otherwise descends into the cell
holding the most points.  Success yields an exact anchor progression plus
one input point per anchor cell; the depth is capped by the schedule's j.
This module adds the 1-D rules: k >= 3, the 1-D schedule and the AP
certificate; the trace is the grid search's, with 1-tuple offsets and cells.
"""

from __future__ import annotations

from dataclasses import replace

from .bounds import check_whole, schedule_nd
from .errors import DimensionMismatch, InternalError
from .geometry import PointSet
from .searchnd import SearchOutcome, _subdivide
from .verifier import verify_ap

__all__ = ["search_ap"]


def search_ap(
    s: PointSet,
    k: int,
    eps: float,
    delta: float,
    c: float,
    *,
    lo: float | None = None,
    length: float | None = None,
) -> SearchOutcome:
    """Find an eps-approximate k-term AP in a delta-separated 1-D set.

    The search interval defaults to the tight bounding interval of the
    input, optionally overridden/expanded by lo and length.  When the
    interval is shorter than the schedule's z0 the guarantee does not
    apply; the search still runs best-effort and flags the outcome.
    """
    if s.dim != 1:
        raise DimensionMismatch("search_ap needs a 1-D point set")
    k = check_whole(k, 3, "k")
    schedule = schedule_nd(1, k, c, delta, eps)
    out = _subdivide(s, k, schedule, None if lo is None else (lo,), length)
    if not out.found:
        return out
    result = verify_ap(s.coords[list(out.subset), 0].tolist(), eps)
    if not result.accepted:
        raise InternalError(
            "subdivision success failed AP verification; this cannot happen"
        )
    return replace(out, verify=result)
