import random

import pytest

from apxpat.errors import InsufficientSeparation
from apxpat.generators import gen_random_separated
from apxpat.geometry import PointSet
from apxpat.search1d import search_ap
from apxpat.searchnd import StepDescend, StepSuccess


def test_hand_traced_success():
    # s=3, x=1 on [0,9]: system t=0 is [0,1), [3,4), [6,7), all occupied.
    s = PointSet(1, [(0.5,), (3.5,), (6.5,)])
    out = search_ap(s, 3, 1 / 3, 1.0, 1 / 3, lo=0.0, length=9.0)
    assert out.found
    assert out.subset == (0, 1, 2)
    assert [a.coords[0] for a in out.anchors] == [0.0, 3.0, 6.0]
    assert out.homothety.anchor.coords == (0.0,)
    assert out.homothety.scale == 3.0
    step = out.trace.steps[-1]
    assert isinstance(step.action, StepSuccess)
    assert step.action.t == (0,)
    assert out.verify.accepted
    assert out.verify.max_relative_deviation <= 1 / 3
    assert out.below_threshold  # 9 << z0


def test_exact_ap_succeeds_at_step_zero():
    s = PointSet(1, [(3.0 * i,) for i in range(30)])
    out = search_ap(s, 4, 1 / 3, 1.0, 0.3)
    assert out.found
    assert len(out.trace.steps) == 1
    assert out.verify.max_relative_deviation <= 1 / out.schedule.s + 1e-12


def test_separation_audit():
    s = PointSet(1, [(0.0,), (0.4,), (3.0,)])
    with pytest.raises(InsufficientSeparation):
        search_ap(s, 3, 1 / 3, 1.0, 0.5)
    # delta matching the true separation passes the audit
    out = search_ap(s, 3, 1 / 3, 0.4, 0.5)
    assert out.schedule.delta == 0.4


def test_below_threshold_flag_and_best_effort():
    s = PointSet(1, [(float(i),) for i in range(0, 30, 3)])
    out = search_ap(s, 3, 1 / 3, 1.0, 0.3)
    assert out.below_threshold
    assert out.found  # still succeeds best-effort


def test_guarantee_at_scale():
    # k=3, c=0.4, delta=1, eps=1/3 gives z0 = 2*9^4 = 13122; any separated
    # set of >= c*z0 points on [0, z0] must contain an approximate AP.
    # (1-D dart throwing jams near 0.7476/delta points per unit length, so
    # densities approaching that are unreachable; 0.4 is comfortable.)
    sch_len = 13122.0
    for seed in (0, 1, 2):
        s = gen_random_separated(1, sch_len, 1.0, 5249, seed)
        out = search_ap(s, 3, 1 / 3, 1.0, 0.4, lo=0.0, length=sch_len)
        assert out.found, seed
        assert not out.below_threshold
        assert len(out.trace.steps) <= out.schedule.j


def test_trace_invariants_fuzz():
    rng = random.Random(123)
    for trial in range(40):
        length = rng.uniform(20, 120)
        delta = rng.uniform(0.3, 1.2)
        n = max(3, int(min(0.5 * length / delta, 50)))
        s = gen_random_separated(1, length, delta, n, 5000 + trial)
        k = rng.choice([3, 4])
        eps = rng.uniform(0.06, 1 / 3)
        out = search_ap(s, k, eps, delta, n / length)
        sch = out.schedule
        steps = out.trace.steps
        assert len(steps) <= sch.j
        ks = sch.k * sch.s
        for prev, nxt in zip(steps, steps[1:]):
            assert isinstance(prev.action, StepDescend)
            # exact subdivision geometry
            x = prev.side / ks
            assert nxt.side == x
            assert nxt.low.coords[0] == prev.low.coords[0] + prev.action.cell[0] * x
            # pigeonhole: the child holds at least parent/((k-1)s) points
            assert nxt.count * (sch.k - 1) * sch.s >= prev.count
        if out.found:
            assert out.verify.accepted
            assert len(set(out.subset)) == k


def test_determinism():
    s = gen_random_separated(1, 200.0, 1.0, 60, 99)
    a = search_ap(s, 3, 0.2, 1.0, 0.3)
    b = search_ap(s, 3, 0.2, 1.0, 0.3)
    assert a == b


def test_box_past_the_float_range_raises_before_binning():
    # The span overflows; no numpy RuntimeWarning may come first (the
    # suite turns those into errors).
    s = PointSet(1, [(-1.7e308,), (0.0,), (1.7e308,)])
    with pytest.raises(ValueError, match="not a finite float"):
        search_ap(s, 3, 1 / 3, 1.0, 0.4)


def test_degenerate_single_point():
    out = search_ap(PointSet(1, [(5.0,)]), 3, 1 / 3, 1.0, 0.5)
    assert not out.found
    assert out.trace.steps == ()
