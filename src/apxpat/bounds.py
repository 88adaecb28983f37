"""Explicit success thresholds and search schedules.

A schedule bundles the derived parameters for one (d, k, c, delta, eps)
instance: subdivision stride s, pigeonhole growth ratio r, maximum
recursion depth j, and the guarantee threshold z0 = 2*delta*(k*s)^j above
which the subdivision search always succeeds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["Schedule", "schedule_nd", "kappa", "ball_volume"]

_MAX_DIM = 30


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


def _check_common(k: int, c: float, delta: float, eps: float) -> None:
    if int(k) != k or k < 2:
        raise ValueError("k must be an integer >= 2")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("density c must be positive and finite")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError("separation delta must be positive and finite")
    if not (0.0 < eps <= 1.0 / 3.0):
        raise ValueError("eps must lie in (0, 1/3]")


def _check_dim(d: int) -> None:
    if int(d) != d or d < 1:
        raise ValueError("dimension must be an integer >= 1")
    if d > _MAX_DIM:
        raise ValueError(f"dimension capped at {_MAX_DIM} (float factorials)")


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
        raise ValueError("k^d is too large: the growth ratio k^d/(k^d - 1) rounds to 1")
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
    """Volume of the d-ball of the given radius."""
    _check_dim(d)
    radius = float(radius)
    if radius < 0.0 or not math.isfinite(radius):
        raise ValueError("radius must be >= 0 and finite")
    num, den = _unit_ball(d)
    return num / den * radius**d


def kappa(d: int) -> int:
    """Packing constant ceil(3^d / unit-ball volume) entering the depth bound."""
    _check_dim(d)
    num, den = _unit_ball(d)
    return math.ceil(3**d * den / num)


def schedule_nd(d: int, k: int, c: float, delta: float, eps: float) -> Schedule:
    """Search schedule for approximate k-grids in dimension d.

    The depth bound uses c * delta^d (the packing argument's inequality).
    At d = 1 it is the AP schedule: s = ceil(1/eps), r = k/(k-1) and,
    with kappa(1) = 2, depth from 2/(c * delta).  A c * delta^d past the
    float range still gives a depth (z0 may then be inf); a k^d so large
    that r rounds to 1 raises ValueError unless the depth is 1.
    """
    _check_dim(d)
    _check_common(k, c, delta, eps)
    d = int(d)
    k = int(k)
    s = math.ceil(math.sqrt(d) / eps)
    kd = k**d
    r = kd / (kd - 1)
    kap = kappa(d)
    j = _depth(_log_ratio(kap, float(c), float(delta), d), r)
    return Schedule(
        d=d, k=k, c=float(c), delta=float(delta), eps=float(eps),
        s=s, r=r, j=j, z0=_z0(delta, k * s, j), kappa=kap,
    )
