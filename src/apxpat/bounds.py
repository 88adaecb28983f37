"""Explicit success thresholds and search schedules.

A schedule bundles the derived parameters for one (d, k, c, delta, eps)
instance: subdivision stride s, pigeonhole growth ratio r, maximum
recursion depth j, and the guarantee threshold z0 = 2*delta*(k*s)^j above
which the subdivision search always succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Schedule", "schedule_1d", "schedule_nd", "kappa", "ball_volume"]

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


def _depth(arg: float, r: float) -> int:
    # j = ceil(log(arg)/log(r)) clamped to >= 1; arg <= 1 means even the
    # starting box already satisfies the packing contradiction.
    if arg <= 1.0:
        return 1
    return max(1, math.ceil(math.log(arg) / math.log(r)))


def _z0(delta: float, ks: int, j: int) -> float:
    try:
        return 2.0 * delta * float(ks) ** j
    except OverflowError:
        return math.inf


def _odd_double_factorial(d: int) -> float:
    out = 1.0
    for i in range(1, d + 1, 2):
        out *= i
    return out


def ball_volume(d: int, radius: float) -> float:
    """Volume of the d-ball of the given radius."""
    _check_dim(d)
    radius = float(radius)
    if radius < 0.0 or not math.isfinite(radius):
        raise ValueError("radius must be >= 0 and finite")
    if d % 2 == 0:
        unit = math.pi ** (d / 2) / math.factorial(d // 2)
    else:
        unit = 2.0 * (2.0 * math.pi) ** ((d - 1) / 2) / _odd_double_factorial(d)
    return unit * radius**d


def kappa(d: int) -> int:
    """Packing constant ceil(3^d / unit-ball volume) entering the depth bound."""
    _check_dim(d)
    if d % 2 == 0:
        return math.ceil(3**d * math.factorial(d // 2) / math.pi ** (d / 2))
    return math.ceil(3**d * _odd_double_factorial(d) / (2.0 * (2.0 * math.pi) ** ((d - 1) / 2)))


def schedule_1d(k: int, c: float, delta: float, eps: float) -> Schedule:
    """Search schedule for k-term approximate arithmetic progressions."""
    return schedule_nd(1, k, c, delta, eps)


def schedule_nd(d: int, k: int, c: float, delta: float, eps: float) -> Schedule:
    """Search schedule for approximate k-grids in dimension d.

    The depth bound uses c * delta^d (the packing argument's inequality).
    At d = 1 it is the AP schedule: s = ceil(1/eps), r = k/(k-1) and,
    with kappa(1) = 2, depth from 2/(c * delta).
    """
    _check_dim(d)
    _check_common(k, c, delta, eps)
    d = int(d)
    k = int(k)
    s = math.ceil(math.sqrt(d) / eps)
    kd = k**d
    r = kd / (kd - 1)
    kap = kappa(d)
    j = _depth(kap / (c * float(delta) ** d), r)
    return Schedule(
        d=d, k=k, c=float(c), delta=float(delta), eps=float(eps),
        s=s, r=r, j=j, z0=_z0(delta, k * s, j), kappa=kap,
    )
