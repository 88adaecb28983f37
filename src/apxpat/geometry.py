"""Immutable geometric primitives shared by every other module.

Coordinates are plain 64-bit floats; all downstream tolerances sit far
above double rounding at the scales this package targets, so there is no
arbitrary-precision path anywhere.

A ``PointSet`` (and its subclass ``Pattern``) stores its points once, as
a read-only (n, d) float64 array ``coords``; every module reads that
array, or a ``subset`` of it, directly.  ``Point`` is the single-point
type of anchors, witnesses and the low corners of search steps, and is
built from a set's rows only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .bounds import check_real, check_whole
from .errors import DimensionMismatch, InvalidArgument

__all__ = [
    "Point",
    "PointSet",
    "Pattern",
    "Homothety",
    "min_pairwise_distance",
    "diameter",
    "apply_homothety",
]


def _width(row) -> int | None:
    """len(row), or None for a row that has no length, such as a scalar."""
    try:
        return len(row)
    except TypeError:
        return None


@dataclass(frozen=True, init=False)
class Point:
    """A point in R^d: a row of its own length, checked as a point set's
    rows are (``_as_rows``).  A point with no coordinates raises
    InvalidArgument, and one with no length DimensionMismatch."""

    coords: tuple[float, ...]

    def __init__(self, coords: Iterable[float]):
        width = _width(coords)
        if width is None:
            raise DimensionMismatch(f"a point needs a sequence of coordinates, not {coords!r}")
        if width == 0:
            raise InvalidArgument("a point needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(_as_rows([coords], width)[0].tolist()))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def _point(row: list[float]) -> Point:
    """A Point of a set's row, whose coordinates the set already holds as
    finite floats, built without checking them again."""
    pt = object.__new__(Point)
    object.__setattr__(pt, "coords", tuple(row))
    return pt


def _as_rows(points, dim: int) -> np.ndarray:
    """A fresh read-only (n, dim) float64 copy of points: an array, or an
    iterable of Points or coordinate sequences.  A row of another length,
    or with no length, raises DimensionMismatch; a coordinate that is not a
    finite float raises InvalidArgument."""
    rows = points if isinstance(points, np.ndarray) else [
        p.coords if isinstance(p, Point) else p for p in points
    ]
    try:
        arr = np.array(rows, dtype=np.float64)
    except (OverflowError, TypeError, ValueError) as exc:
        for row in rows:
            if _width(row) != dim:
                raise DimensionMismatch(f"row {row!r} is not a point of a dim-{dim} set") from None
        raise InvalidArgument(str(exc)) from None
    if len(arr) == 0:
        raise InvalidArgument("point set must be nonempty")
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"rows of shape {arr.shape[1:]} in a dim-{dim} set")
    finite = np.isfinite(arr)
    if not finite.all():
        raise InvalidArgument(f"non-finite coordinate {float(arr[~finite][0])!r}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, init=False, eq=False)
class PointSet:
    """Immutable, dimension-tagged set of points.

    ``coords`` is the one store: a read-only (n, dim) float64 array.
    ``Point`` objects are built only on demand, by ``points``, iteration
    and indexing.
    """

    dim: int
    coords: np.ndarray

    def __init__(self, dim: int, points: Iterable):
        dim = check_whole(dim, 1, "dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", _as_rows(points, dim))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        # Adding 0.0 maps -0.0 to 0.0, which compares equal to it.
        return hash((type(self), self.dim, (self.coords + 0.0).tobytes()))

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return map(_point, self.coords.tolist())

    def __getitem__(self, i: int) -> Point:
        """The point at index i, checked as ``subset`` checks its indices."""
        return _point(self.coords[self._indices((i,))[0]].tolist())

    def values(self) -> tuple[float, ...]:
        """1-D convenience: the raw coordinates."""
        if self.dim != 1:
            raise DimensionMismatch("values() is only defined for dim 1")
        return tuple(self.coords[:, 0].tolist())

    def _indices(self, indices: Iterable[int]) -> list[int]:
        """indices as ints in [-n, n - 1]; any other index raises
        InvalidArgument."""
        n = len(self)
        message = f"an index of a {n}-point set is an integer in [{-n}, {n - 1}]"
        return [check_whole(i, -n, "index", message, most=n - 1) for i in indices]

    def subset(self, indices: Iterable[int]) -> "PointSet":
        """The points at indices, in their order; negative indices count
        from the end, and any other index raises InvalidArgument."""
        return PointSet(self.dim, self.coords[self._indices(indices)])


@dataclass(frozen=True, init=False, eq=False)
class Pattern(PointSet):
    """A target pattern: k >= 2 pairwise-distinct points with cached metrics."""

    min_pairwise: float
    diameter: float

    def __init__(self, dim: int, points: Iterable):
        super().__init__(dim, points)
        if len(self) < 2:
            raise InvalidArgument("a pattern needs at least two points")
        lo, hi, _ = _kernels.pair_extremes(self.coords)
        if lo <= 0.0:
            raise InvalidArgument("pattern points must be distinct and not coincide numerically")
        object.__setattr__(self, "min_pairwise", lo)
        object.__setattr__(self, "diameter", hi)


@dataclass(frozen=True, init=False)
class Homothety:
    """x -> anchor + scale * x with scale > 0."""

    anchor: Point
    scale: float

    def __init__(self, anchor, scale: float):
        anchor = anchor if isinstance(anchor, Point) else Point(anchor)
        scale = check_real(scale, "(0, inf)", "scale must be strictly positive and finite")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "scale", scale)


def min_pairwise_distance(s: PointSet) -> float:
    """Minimum pairwise Euclidean distance, by the O(n^2) pair scan in the
    unit range (``_kernels.pair_extremes``)."""
    return _kernels.pair_extremes(s.coords)[0]


def diameter(s: PointSet) -> float:
    """Maximum pairwise Euclidean distance, by the O(n^2) pair scan in the
    unit range (``_kernels.pair_extremes``); inf past the float range."""
    return _kernels.pair_extremes(s.coords)[1]


def apply_homothety(h: Homothety, p: Pattern) -> PointSet:
    """The exact image {anchor + scale * p_i} as a point set; an image past
    the float range raises InvalidArgument, as any non-finite point does."""
    if h.anchor.dim != p.dim:
        raise DimensionMismatch("homothety and pattern dimensions differ")
    with np.errstate(over="ignore"):
        return PointSet(p.dim, np.asarray(h.anchor.coords) + h.scale * p.coords)
