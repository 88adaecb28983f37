"""Explicit success thresholds and search schedules.

A schedule bundles the derived parameters for one (d, k, c, delta, eps)
instance: subdivision stride s, pigeonhole growth ratio r, maximum
recursion depth j, and the guarantee threshold z0 = 2*delta*(k*s)^j above
which the subdivision search always succeeds.

The module also holds the argument checks every entry point shares:
whole numbers (``check_whole``, ``check_dim``), real values
in an interval (``check_real``, ``check_eps``) and pairwise-distinct
points (``check_distinct``).  Each raises ``InvalidArgument`` or returns
the converted value.  ``fits_in_memory`` compares a working set's bytes
with the one physical-memory figure, ``_MEMORY``, before it is allocated.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

__all__ = ["Schedule", "schedule_nd", "kappa", "ball_volume"]

_MAX_DIM = 30

# Physical memory, in bytes.  Where the platform does not report it,
# numpy's largest array size.
_MEMORY = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
           if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()) else np.iinfo(np.intp).max)


@dataclass(frozen=True)
class Schedule:
    d: int
    k: int
    c: float
    delta: float
    eps: float
    s: int
    r: float
    j: int
    z0: float
    kappa: int


def check_whole(value, least: float, name: str, message: str | None = None, *,
                most: float = math.inf) -> int:
    """value as an int.  Raises InvalidArgument unless it is an integer in
    [least, most]; inf and nan are not integers.  The message defaults to
    "{name} must be an integer >= {least}"."""
    if type(value) is int and least <= value <= most:  # the common case, at once
        return value
    try:
        whole = int(value) == value
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not (whole and least <= value <= most):
        raise InvalidArgument(message or f"{name} must be an integer >= {least}")
    return int(value)


def as_float(value) -> float:
    """value as a float, or nan for what has none: an int past the float
    range, or what is not a number."""
    try:
        return float(value)
    except (OverflowError, TypeError, ValueError):
        return math.nan


@functools.cache
def _interval(spelling: str) -> tuple[float, float, bool, bool]:
    """(low, high, low is open, high is open) of an interval spelled like
    "(0, 1/3]" or "[0, inf)"."""
    low, high = (float(num) / float(den or 1)
                 for num, _, den in (t.partition("/") for t in spelling[1:-1].split(", ")))
    return low, high, spelling[0] == "(", spelling[-1] == ")"


def check_real(value, interval: str, message: str) -> float:
    """value as a float (``as_float``).  Raises InvalidArgument(message)
    unless it lies in the interval, spelled like "(0, 1/3]" or "(0, inf)";
    nan lies in none."""
    x = as_float(value)
    low, high, low_open, high_open = _interval(interval)
    if not ((low < x if low_open else low <= x) and (x < high if high_open else x <= high)):
        raise InvalidArgument(message)
    return x


def check_eps(eps, interval: str = "(0, 1/3]") -> float:
    """eps as a float; see check_real.  Each function takes eps in one of
    "(0, 1/3]", "[0, 1/3]", "(0, 1]" and "(0, 1)"."""
    return check_real(eps, interval, f"eps must lie in {interval}")


def check_distinct(rows: np.ndarray, message: str) -> None:
    """Raises InvalidArgument(message) unless the rows of an (n, d) array
    are pairwise distinct (-0.0 equals 0.0)."""
    if len(set(map(tuple, rows.tolist()))) < len(rows):
        raise InvalidArgument(message)


def fits_in_memory(nbytes: int) -> bool:
    """Whether a working set of nbytes fits in physical memory (_MEMORY)."""
    return nbytes <= _MEMORY


def check_dim(d) -> int:
    """d as an int, checked by check_whole and capped at _MAX_DIM."""
    d = check_whole(d, 1, "dimension")
    if d > _MAX_DIM:
        raise InvalidArgument(f"dimension capped at {_MAX_DIM} (float factorials)")
    return d


def _log_ratio(kap: int, c: float, delta: float, d: int) -> float:
    """log(kap / (c * delta^d)), the packing ratio the depth bound needs.

    Taken from the quotient itself while delta^d, c * delta^d and the
    quotient are normal floats; otherwise (a subnormal power has lost
    digits, or a value is past the float range) from
    log kap - log c - d * log delta, which holds in both directions.
    """
    try:
        power = delta**d
        denom = c * power
        arg = kap / denom
    except (OverflowError, ZeroDivisionError):
        power = denom = arg = math.inf
    if all(sys.float_info.min <= v < math.inf for v in (power, denom, arg)):
        return math.log(arg)
    return math.log(kap) - math.log(c) - d * math.log(delta)


def _depth(log_arg: float, r: float) -> int:
    # j = ceil(log(arg)/log(r)) clamped to >= 1; log(arg) <= 0 means even
    # the starting box already satisfies the packing contradiction.
    if log_arg <= 0.0:
        return 1
    if r == 1.0:
        raise InvalidArgument("k^d is too large: the growth ratio k^d/(k^d - 1) rounds to 1")
    return max(1, math.ceil(log_arg / math.log(r)))


def _z0(delta: float, ks: int, j: int) -> float:
    try:
        return 2.0 * delta * float(ks) ** j
    except OverflowError:
        return math.inf


def _unit_ball(d: int) -> tuple[float, float]:
    """The unit d-ball's volume as (num, den): pi^(d/2) / (d/2)! for even d,
    2 * (2 pi)^((d-1)/2) / d!! for odd d."""
    if d % 2 == 0:
        return math.pi ** (d / 2), math.factorial(d // 2)
    den = 1.0
    for i in range(1, d + 1, 2):
        den *= i
    return 2.0 * (2.0 * math.pi) ** ((d - 1) / 2), den


def ball_volume(d: int, radius: float) -> float:
    """Volume of the d-ball of the given radius; inf past the float range."""
    d = check_dim(d)
    radius = check_real(radius, "[0, inf)", "radius must be >= 0 and finite")
    num, den = _unit_ball(d)
    try:
        return num / den * radius**d
    except OverflowError:
        return math.inf


def kappa(d: int) -> int:
    """Packing constant ceil(3^d / unit-ball volume) entering the depth bound."""
    d = check_dim(d)
    num, den = _unit_ball(d)
    return math.ceil(3**d * den / num)


def schedule_nd(d: int, k: int, c: float, delta: float, eps: float) -> Schedule:
    """Search schedule for approximate k-grids in dimension d.

    The depth bound uses c * delta^d (the packing argument's inequality).
    At d = 1 it is the AP schedule: s = ceil(1/eps), r = k/(k-1) and,
    with kappa(1) = 2, depth from 2/(c * delta).  A c * delta^d past the
    float range still gives a depth (z0 may then be inf); a k^d so large
    that r rounds to 1 raises InvalidArgument unless the depth is 1.
    """
    d = check_dim(d)
    k = check_whole(k, 2, "k")
    c = check_real(c, "(0, inf)", "density c must be positive and finite")
    delta = check_real(delta, "(0, inf)", "separation delta must be positive and finite")
    eps = check_eps(eps)
    # A subnormal eps sends sqrt(d)/eps past the float range, so no stride.
    stride = math.sqrt(d) / eps
    if stride == math.inf:
        raise InvalidArgument(
            f"eps {eps!r} is too small: the stride sqrt(d)/eps is past the float range")
    s = math.ceil(stride)
    kd = k**d
    r = kd / (kd - 1)
    kap = kappa(d)
    j = _depth(_log_ratio(kap, c, delta, d), r)
    return Schedule(
        d=d, k=k, c=c, delta=delta, eps=eps,
        s=s, r=r, j=j, z0=_z0(delta, k * s, j), kappa=kap,
    )
