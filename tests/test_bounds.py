import math
from decimal import Decimal, localcontext
from itertools import product

import pytest

from apxpat.bounds import ball_volume, kappa, schedule_nd
from apxpat.collinear import find_collinear
from apxpat.errors import ResolutionOverflow
from apxpat.generators import gen_jittered_lattice, gen_random_separated
from apxpat.geometry import Pattern, PointSet
from apxpat.oracle import enumerate_aps, exists_collinear
from apxpat.search1d import search_ap
from apxpat.searchnd import search_grid, search_pattern


def test_schedule_1d_frozen_examples():
    s = schedule_nd(1, 3, 0.5, 1.0, 1 / 3)
    assert (s.s, s.r, s.j, s.z0) == (3, 1.5, 4, 13122.0)
    s = schedule_nd(1, 2, 1.0, 1.0, 1 / 3)
    assert (s.s, s.r, s.j, s.z0) == (3, 2.0, 1, 12.0)


_LINE = PointSet(1, [(0,), (1,), (2,), (3,)])
_PLANE = PointSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
_TAKES_K = {
    "schedule_nd": (2, lambda k: schedule_nd(1, k, 0.5, 1.0, 0.25)),
    "search_ap": (3, lambda k: search_ap(_LINE, k, 0.25, 1.0, 0.5)),
    "search_grid": (2, lambda k: search_grid(_PLANE, k, 0.25, 1.0, 0.5)),
    "enumerate_aps": (3, lambda k: enumerate_aps(_LINE, k, 0.25)),
    "exists_collinear": (3, lambda k: exists_collinear(_PLANE, k, 0.25)),
    "find_collinear": (3, lambda k: find_collinear(_PLANE, k, 0.25)),
}


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, 3.5, 1])
@pytest.mark.parametrize("entry", sorted(_TAKES_K))
def test_k_must_be_an_integer_wherever_it_is_taken(entry, k):
    # One check for every entry point that takes k: inf and nan are not
    # integers, and get the same ValueError as 3.5 or a k too small.
    least, call = _TAKES_K[entry]
    with pytest.raises(ValueError, match=f"^k must be an integer >= {least}$"):
        call(k)
    call(float(least + 1))


_TAKES_DIM = {
    "schedule_nd": lambda d: schedule_nd(d, 3, 0.5, 1.0, 0.25),
    "kappa": kappa,
    "ball_volume": lambda d: ball_volume(d, 1.0),
    "PointSet": lambda d: PointSet(d, [(0.0,) * 2]),
    "gen_random_separated": lambda d: gen_random_separated(d, 3.0, 1.0, 2, 0),
    "gen_jittered_lattice": lambda d: gen_jittered_lattice(d, 2.0, 0.1, 0),
}


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan, 1.5, 0])
@pytest.mark.parametrize("entry", sorted(_TAKES_DIM))
def test_dimension_must_be_an_integer_wherever_it_is_taken(entry, d):
    # The shared whole-number check: inf and nan get the ValueError of 1.5
    # or 0, where inf raised OverflowError and nan "cannot convert".
    with pytest.raises(ValueError, match="^dimension must be an integer >= 1$"):
        _TAKES_DIM[entry](d)
    _TAKES_DIM[entry](2.0)


def test_subnormal_eps_is_refused_before_the_stride():
    # sqrt(d)/eps passes the float range for a subnormal eps: each entry
    # point refuses it with a typed error instead of an OverflowError.
    tri = Pattern(2, [(0, 0), (1, 0), (0, 1)])
    for eps in (1e-320, 5e-324):
        for call in (lambda: schedule_nd(2, 3, 1.0, 0.5, eps),
                     lambda: search_ap(_LINE, 3, eps, 1.0, 0.5),
                     lambda: search_grid(_PLANE, 2, eps, 1.0, 0.5)):
            with pytest.raises(ValueError, match="is too small: the stride"):
                call()
        with pytest.raises(ResolutionOverflow, match="past the float range"):
            search_pattern(_PLANE, tri, eps, 1.0, 0.5)
    # The smallest normal eps still has a stride, but the search's int64
    # cell indices hold no k*s past 2^63 - 1 (it raised OverflowError).
    assert schedule_nd(2, 3, 1.0, 0.5, 2.2250738585072014e-308).s > 10**307
    for eps in (1e-300, 1e-19):
        for call in (lambda: search_ap(_LINE, 3, eps, 1.0, 0.5),
                     lambda: search_grid(_PLANE, 2, eps, 1.0, 0.5)):
            with pytest.raises(ValueError, match="do not fit the int64 cell indices"):
                call()
    assert not search_grid(_PLANE, 2, 1e-18, 1.0, 0.5).found


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
