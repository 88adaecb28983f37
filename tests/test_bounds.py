import math
from decimal import Decimal, localcontext
from itertools import product

import pytest

from apxpat.bounds import ball_volume, kappa, schedule_nd
from apxpat.geometry import PointSet
from apxpat.search1d import search_ap


def test_schedule_1d_frozen_examples():
    s = schedule_nd(1, 3, 0.5, 1.0, 1 / 3)
    assert (s.s, s.r, s.j, s.z0) == (3, 1.5, 4, 13122.0)
    s = schedule_nd(1, 2, 1.0, 1.0, 1 / 3)
    assert (s.s, s.r, s.j, s.z0) == (3, 2.0, 1, 12.0)


def test_schedule_eps_domain():
    with pytest.raises(ValueError):
        schedule_nd(1, 3, 0.5, 1.0, 0.4)
    with pytest.raises(ValueError):
        schedule_nd(1, 3, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        schedule_nd(1, 1, 0.5, 1.0, 1 / 3)
    with pytest.raises(ValueError):
        schedule_nd(1, 3, -1.0, 1.0, 1 / 3)
    with pytest.raises(ValueError):
        schedule_nd(1, 3, 0.5, 0.0, 1 / 3)


def test_schedule_nd_frozen_examples():
    s = schedule_nd(2, 2, 1.0, 1.0, 1 / 3)
    assert (s.s, s.j, s.z0, s.kappa) == (5, 4, 20000.0, 3)
    assert s.r == pytest.approx(4 / 3, rel=1e-15)
    s = schedule_nd(2, 3, 0.3, 1.0, 1 / 3)
    assert (s.s, s.j) == (5, 20)
    assert s.r == pytest.approx(9 / 8, rel=1e-15)
    assert s.z0 == pytest.approx(2 * 15**20, rel=1e-12)


def test_schedule_nd_dim1_matches_1d():
    # The AP search runs on the d = 1 schedule.
    s = PointSet(1, [(0,), (1,), (2,), (3,)])
    for k, c, delta, eps in [(3, 0.5, 1.0, 1 / 3), (3, 1.0, 1.0, 0.25), (4, 0.1, 0.5, 0.2)]:
        assert search_ap(s, k, eps, delta, c).schedule == schedule_nd(1, k, c, delta, eps)


def _ap_schedule(k, c, delta, eps):
    """The AP schedule written out: s = ceil(1/eps), r = k/(k-1), depth
    from 2/(c*delta), z0 = 2*delta*(k*s)^j."""
    s = math.ceil(1.0 / eps)
    r = k / (k - 1)
    arg = 2.0 / (c * delta)
    j = 1 if arg <= 1.0 else max(1, math.ceil(math.log(arg) / math.log(r)))
    try:
        z0 = 2.0 * delta * float(k * s) ** j
    except OverflowError:
        z0 = math.inf
    return s, r, j, z0


def test_schedule_1d_is_the_ap_schedule_over_a_grid():
    grid = product((2, 3, 4, 6), (0.1, 0.5, 1.0, 3.0), (0.5, 1.0, 2.0), (1 / 3, 0.25, 0.1, 0.01))
    for k, c, delta, eps in grid:
        a = schedule_nd(1, k, c, delta, eps)
        assert (a.d, a.k, a.c, a.delta, a.eps, a.kappa) == (1, k, c, delta, eps, 2)
        assert (a.s, a.r, a.j, a.z0) == _ap_schedule(k, c, delta, eps), (k, c, delta, eps)


def test_kappa_values():
    assert kappa(2) == 3
    assert kappa(1) == 2
    assert kappa(3) == 7
    with pytest.raises(ValueError):
        kappa(0)
    with pytest.raises(ValueError):
        kappa(31)


def test_ball_volume_values():
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-12)
    assert ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert ball_volume(1, 0.5) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        ball_volume(2, -1.0)


def test_ball_volume_scaling():
    for d in range(1, 8):
        unit = ball_volume(d, 1.0)
        for r in (0.25, 1.7, 3.0):
            assert ball_volume(d, r) == pytest.approx(unit * r**d, rel=1e-12)


def test_ball_formulas_keep_their_bits():
    # kappa and ball_volume against the unit-ball formula written out for
    # even and odd d, bit for bit.
    def odd_double_factorial(d):
        out = 1.0
        for i in range(1, d + 1, 2):
            out *= i
        return out

    for d in range(1, 31):
        if d % 2 == 0:
            unit = math.pi ** (d / 2) / math.factorial(d // 2)
            kap = math.ceil(3**d * math.factorial(d // 2) / math.pi ** (d / 2))
        else:
            unit = 2.0 * (2.0 * math.pi) ** ((d - 1) / 2) / odd_double_factorial(d)
            kap = math.ceil(3**d * odd_double_factorial(d) / (2.0 * (2.0 * math.pi) ** ((d - 1) / 2)))
        assert kappa(d) == kap, d
        for r in (0.0, 1e-300, 0.25, 1.7, 3.0, 1e10):
            assert ball_volume(d, r).hex() == (unit * r**d).hex(), (d, r)


def test_z0_and_j_floors():
    # Very dense/coarse instances clamp j to 1 and keep z0 >= 2*delta.
    s = schedule_nd(1, 3, 10.0, 1.0, 1 / 3)
    assert s.j == 1
    assert s.z0 >= 2 * s.delta
    for k in (2, 3, 5):
        for c in (0.1, 1.0):
            for delta in (0.5, 1.0):
                sch = schedule_nd(1, k, c, delta, 0.3)
                assert sch.j >= 1 and sch.z0 >= 2 * delta


def test_z0_monotonicity_coarse_sweeps():
    # Non-decreasing z0 as c halves, delta halves, eps halves, k increases.
    base = dict(k=3, c=0.8, delta=1.0, eps=1 / 3)

    cs = [0.8, 0.4, 0.2, 0.1]
    zs = [schedule_nd(1, base["k"], c, base["delta"], base["eps"]).z0 for c in cs]
    assert all(a <= b for a, b in zip(zs, zs[1:]))

    deltas = [2.0, 1.0, 0.5, 0.25]
    zs = [schedule_nd(1, base["k"], base["c"], d, base["eps"]).z0 for d in deltas]
    assert all(a <= b for a, b in zip(zs, zs[1:]))

    epss = [1 / 3, 1 / 6, 1 / 12, 1 / 24]
    zs = [schedule_nd(1, base["k"], base["c"], base["delta"], e).z0 for e in epss]
    assert all(a <= b for a, b in zip(zs, zs[1:]))

    ks = [2, 3, 4, 5]
    zs = [schedule_nd(1, k, base["c"], base["delta"], base["eps"]).z0 for k in ks]
    assert all(a <= b for a, b in zip(zs, zs[1:]))

    # Same sweeps for the d-dimensional schedule.
    zs = [schedule_nd(2, base["k"], c, base["delta"], base["eps"]).z0 for c in cs]
    assert all(a <= b for a, b in zip(zs, zs[1:]))
    zs = [schedule_nd(2, base["k"], base["c"], d, base["eps"]).z0 for d in deltas]
    assert all(a <= b for a, b in zip(zs, zs[1:]))


def test_astronomical_z0_overflows_to_inf():
    s = schedule_nd(3, 2, 1e-6, 0.01, 0.05)
    assert s.j >= 1
    assert s.z0 == math.inf or s.z0 > 0


def test_schedule_past_the_float_range():
    # c * delta^d underflows: the depth comes from a sum of logs, and it
    # keeps growing as delta falls through the underflow.
    s = schedule_nd(30, 3, 1, 1e-20, 0.3)
    assert s.j == math.ceil((math.log(s.kappa) - 30 * math.log(1e-20)) / math.log(s.r))
    assert s.z0 == math.inf
    depths = [schedule_nd(2, 3, 1.0, 10.0**-e, 0.3).j for e in range(150, 170)]
    assert depths == sorted(depths) and len(set(depths)) == len(depths)
    assert schedule_nd(2, 3, 1e-300, 1e-300, 0.3).j == math.ceil(
        (math.log(3) + 3 * 300 * math.log(10)) / math.log(9 / 8))
    # delta^d overflows: the depth still comes from the sum of logs, which
    # gives one step when c * delta^d is large too, and the full depth when
    # c is small enough to bring c * delta^d back into range.
    assert schedule_nd(2, 3, 1e300, 1e300, 0.3).j == 1
    assert schedule_nd(2, 3, 1e-310, 1.5e154, 0.3).j == 42
    s = schedule_nd(30, 3, 1e-307, 2e10, 0.3)
    assert s.j == math.ceil((math.log(s.kappa) + 307 * math.log(10)
                             - 30 * math.log(2e10)) / math.log(s.r))
    assert s.j > 1
    # k^d / (k^d - 1) rounds to 1: no depth can be derived.
    with pytest.raises(ValueError, match="rounds to 1"):
        schedule_nd(1, 10**20, 1, 1, 0.3)
    with pytest.raises(ValueError, match="rounds to 1"):
        schedule_nd(3, 10**8, 0.5, 1, 0.3)
    # ... unless the starting box already suffices.
    assert schedule_nd(1, 10**20, 1e6, 1, 0.3).j == 1


def test_schedule_with_a_subnormal_power_of_delta():
    # delta^16 = 1e-320 is subnormal and has lost most of its digits, so
    # the float quotient kappa / (c * delta^d) gives one step too many; the
    # sum of logs gives the depth of a 60-digit evaluation.
    s = schedule_nd(16, 2, 1e300, 1e-20, 0.3)
    with localcontext() as ctx:
        ctx.prec = 60
        log_arg = Decimal(s.kappa).ln() - Decimal(1e300).ln() - 16 * Decimal(1e-20).ln()
        depth = math.ceil(log_arg / Decimal(s.r).ln())
    assert s.j == depth == 4_264_806
