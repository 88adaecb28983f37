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

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import DimensionMismatch

__all__ = [
    "Point",
    "PointSet",
    "Pattern",
    "Homothety",
    "min_pairwise_distance",
    "diameter",
    "apply_homothety",
]


def _as_floats(coords: Iterable[float]) -> tuple[float, ...]:
    out = tuple(float(c) for c in coords)
    if not out:
        raise ValueError("a point needs at least one coordinate")
    for c in out:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate {c!r}")
    return out


@dataclass(frozen=True, init=False)
class Point:
    """A point in R^d; coordinates validated finite at construction."""

    coords: tuple[float, ...]

    def __init__(self, coords: Iterable[float]):
        object.__setattr__(self, "coords", _as_floats(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def _as_rows(points, dim: int) -> np.ndarray:
    """A fresh read-only (n, dim) float64 copy of points: an array, or an
    iterable of Points or coordinate sequences."""
    rows = points if isinstance(points, np.ndarray) else [
        p.coords if isinstance(p, Point) else p for p in points
    ]
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError:
        for row in rows:
            if len(row) != dim:
                raise DimensionMismatch(f"point of dim {len(row)} in a dim-{dim} set") from None
        raise
    if len(arr) == 0:
        raise ValueError("point set must be nonempty")
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(f"rows of shape {arr.shape[1:]} in a dim-{dim} set")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"non-finite coordinate {float(arr[~finite][0])!r}")
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
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
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
        return (Point(row) for row in self.coords.tolist())

    def __getitem__(self, i: int) -> Point:
        return Point(self.coords[i].tolist())

    def values(self) -> tuple[float, ...]:
        """1-D convenience: the raw coordinates."""
        if self.dim != 1:
            raise DimensionMismatch("values() is only defined for dim 1")
        return tuple(self.coords[:, 0].tolist())

    def subset(self, indices: Iterable[int]) -> "PointSet":
        return PointSet(self.dim, self.coords[list(indices)])


@dataclass(frozen=True, init=False, eq=False)
class Pattern(PointSet):
    """A target pattern: k >= 2 pairwise-distinct points with cached metrics."""

    min_pairwise: float
    diameter: float

    def __init__(self, dim: int, points: Iterable):
        super().__init__(dim, points)
        if len(self) < 2:
            raise ValueError("a pattern needs at least two points")
        lo, hi, _ = _kernels.pair_extremes(self.coords)
        if lo <= 0.0:
            raise ValueError("pattern points must be distinct and not coincide numerically")
        object.__setattr__(self, "min_pairwise", lo)
        object.__setattr__(self, "diameter", hi)


@dataclass(frozen=True, init=False)
class Homothety:
    """x -> anchor + scale * x with scale > 0."""

    anchor: Point
    scale: float

    def __init__(self, anchor, scale: float):
        anchor = anchor if isinstance(anchor, Point) else Point(anchor)
        scale = float(scale)
        if not (scale > 0.0 and math.isfinite(scale)):
            raise ValueError("scale must be strictly positive and finite")
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
    """The exact image {anchor + scale * p_i} as a point set."""
    if h.anchor.dim != p.dim:
        raise DimensionMismatch("homothety and pattern dimensions differ")
    return PointSet(p.dim, np.asarray(h.anchor.coords) + h.scale * p.coords)
