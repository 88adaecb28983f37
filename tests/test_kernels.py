"""Kernel semantics: the splitmix64 stream, dart throwing and the pair scan
checked against scalar reference loops, separation invariants, and the
separation audit checked against the naive pairwise scan."""

import io
import math
import random
import sys
import time
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apxpat import _kernels, cli
from apxpat.generators import gen_jittered_lattice

_MASK64 = (1 << 64) - 1


def splitmix64_next(state):
    """Reference stream: advance a splitmix64 state one word at a time;
    returns (new_state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def _any_closer(stored, count, dim, q, limit2):
    for b in range(0, count * dim, dim):
        d2 = 0.0
        for a in range(dim):
            t = stored[b + a] - q[a]
            d2 += t * t
        if d2 < limit2:
            return True
    return False


def reference_dart_throw(dim, length, delta, target, seed, max_attempts):
    """Reference thrower: one candidate at a time from the scalar stream,
    checked against the accepted points in a dict grid of cells with
    diagonal below delta (one point per cell), or against all accepted
    points when there are fewer of those than neighbour offsets."""
    cell = delta * (1.0 - 1e-9) / math.sqrt(dim)
    rings = int(delta / cell) + 1
    direct = (2 * rings + 1) ** dim > target
    ncells = int(length / cell) + 2
    base = ncells + 2 * rings
    offsets = () if direct else list(product(range(-rings, rings + 1), repeat=dim))
    grid = {}
    accepted = []
    delta2 = delta * delta
    state = seed & _MASK64
    n = 0
    attempts = 0
    while n < target and attempts < max_attempts:
        attempts += 1
        cand = []
        for _ in range(dim):
            state, z = splitmix64_next(state)
            cand.append(_kernels.unit_from_bits(z) * length)
        if direct:
            if not _any_closer(accepted, n, dim, cand, delta2):
                accepted.extend(cand)
                n += 1
            continue
        home = [int(cand[a] / cell) for a in range(dim)]
        ok = True
        for off in offsets:
            key = 0
            for a in range(dim):
                key = key * base + (home[a] + off[a] + rings)
            idx = grid.get(key)
            if idx is None:
                continue
            b = idx * dim
            d2 = 0.0
            for a in range(dim):
                t = accepted[b + a] - cand[a]
                d2 += t * t
            if d2 < delta2:
                ok = False
                break
        if ok:
            key = 0
            for a in range(dim):
                key = key * base + (home[a] + rings)
            grid[key] = n
            accepted.extend(cand)
            n += 1
    return accepted, attempts


def min_pairwise_sq(flat, dim):
    """Reference: minimum squared pairwise distance by the naive double loop."""
    return min(_pair_sq(flat, dim))


def max_pairwise_sq(flat, dim):
    """Reference: maximum squared pairwise distance by the naive double loop."""
    return max(_pair_sq(flat, dim))


def _pair_sq(flat, dim):
    n = len(flat) // dim
    for i in range(n):
        for j in range(i + 1, n):
            d2 = 0.0
            for a in range(dim):
                t = flat[i * dim + a] - flat[j * dim + a]
                d2 += t * t
            yield d2


def test_splitmix64_reference_vector():
    # First outputs for seed 0 from the reference implementation.
    words, state = _kernels.splitmix64_block(0, 3)
    assert words.dtype == np.uint64
    assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert state == 3 * 0x9E3779B97F4A7C15 & _MASK64


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63, 2**64 - 1, -7])
def test_block_matches_scalar_stream(seed):
    words, state = _kernels.splitmix64_block(seed, 5000)
    ref_state, ref = seed & _MASK64, []
    for _ in range(5000):
        ref_state, z = splitmix64_next(ref_state)
        ref.append(z)
    assert words.tolist() == ref and state == ref_state


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -123456789])
def test_chained_blocks_equal_one_block(seed):
    whole, end = _kernels.splitmix64_block(seed, 1037)
    first, mid = _kernels.splitmix64_block(seed, 37)
    empty, same = _kernels.splitmix64_block(mid, 0)
    second, last = _kernels.splitmix64_block(same, 1000)
    assert len(empty) == 0 and same == mid
    assert np.concatenate([first, second]).tolist() == whole.tolist()
    assert last == end


def test_unit_from_bits_range():
    words, _ = _kernels.splitmix64_block(12345, 1000)
    u = _kernels.unit_from_bits(words)
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert u.tolist() == [_kernels.unit_from_bits(int(z)) for z in words]


@pytest.mark.parametrize("d,length,jitter,seed", [
    (1, 50.0, 0.4, 3), (2, 9.5, 0.3, -7), (3, 5.0, 0.0, 2**64 - 1), (8, 2.0, 0.45, 11),
])
def test_jittered_lattice_matches_scalar_odometer(d, length, jitter, seed):
    # Cells in lexicographic order, axis order within a cell, one scalar
    # word per coordinate.
    state, ref = seed & _MASK64, []
    for cell in product(range(int(length)), repeat=d):
        for a in range(d):
            state, z = splitmix64_next(state)
            ref.append(cell[a] + 0.5 + (2.0 * _kernels.unit_from_bits(z) - 1.0) * jitter)
    s = gen_jittered_lattice(d, length, jitter, seed)
    assert s.coords.reshape(-1).tolist() == ref


def _assert_matches_reference(case):
    """The kernel's flat array, as a list, is the reference's after
    max_attempts, and so are its attempts, unless it stops short of both
    its target and max_attempts, having found the box full: then the
    reference cut at that attempt holds the same points, and takes no more
    after it."""
    dim, length, delta, target, seed, max_attempts = case
    flat, attempts = _kernels.dart_throw(*case)
    assert flat.dtype == np.float64 and flat.ndim == 1
    flat = flat.tolist()
    ref_flat, ref_attempts = reference_dart_throw(*case)
    assert flat == ref_flat
    if len(flat) < target * dim and attempts < max_attempts:
        assert reference_dart_throw(*case[:5], attempts)[0] == flat
    else:
        assert attempts == ref_attempts


@pytest.mark.parametrize("case", [
    (1, 400.0, 1.0, 120, 11, 10**6),       # 1-D grid path
    (1, 13122.0, 1.0, 5249, 3, 10**6),     # the 1-D threshold instance: blocks of
                                           # 4,096, 4,096 and 1,210 candidates
    (1, 3.0, 0.5, 4, -3, 10**6),           # 1-D direct scan
    (2, 40.0, 1.0, 700, 3, 10**6),         # 2,294 attempts in seven blocks
    (2, 40.0, 1.0, 700, 3, 1500),          # cut inside the second block
    (2, 3.0, 1.0, 20, 8, 1300),            # the box fills before the cut
    (3, 12.0, 1.0, 100, 5, 10**6),         # the reference scans below 5^3 offsets
    (3, 12.0, 1.0, 130, 5, 10**6),         # and uses its grid above them
    (10, 1.5, 1.0, 40, 99, 10**6),         # 3^10 ring cells: all-points comparison
    (2, 1e10, 1.0, 40, 5, 10**6),          # keys past 2^63: one window per ring cell
    (3, 1e7, 3.0, 60, -1, 10**6),
    (1, 13122.0, 1.0, 5249, 3, 9000),      # cut inside the third block
    (2, 100.0, 1.0, 3000, 3, 10**6),       # a full block, then one cut at the target
    (2, 100.0, 1.0, 3000, 3, 5000),        # cut inside the block after a full one
])
def test_dart_throw_matches_scalar_reference(case):
    _assert_matches_reference(case)


@st.composite
def _throws(draw):
    dim = draw(st.sampled_from([1, 2, 3, 4]))
    delta = draw(st.sampled_from([1.0, 0.3, 2.5]))
    # From boxes that hold a few points, so a block's candidates conflict
    # with each other, to sparse ones; targets on both sides of the 3^dim
    # ring cells, where the kernel turns from comparing every accepted
    # point to its grid.
    span = draw(st.floats(0.5, {1: 300.0, 2: 25.0, 3: 9.0, 4: 6.0}[dim]))
    target = draw(st.integers(1, {1: 200, 2: 150, 3: 100, 4: 90}[dim]))
    seed = draw(st.one_of(st.sampled_from([-7, 2**64 - 1]), st.integers(-2**63, 2**64)))
    max_attempts = draw(st.one_of(st.integers(1, 1100), st.integers(1100, 2500)))
    return dim, span * delta, delta, target, seed, max_attempts


@settings(max_examples=120, deadline=None)
@given(_throws())
def test_dart_throw_fuzz_matches_reference(case):
    _assert_matches_reference(case)


def test_dart_throw_rejects_only_strictly_closer_points():
    # delta^2 underflows to 0, and so does every squared distance in a box
    # of side 1e-165: no candidate is strictly closer than delta, so each
    # is accepted, on both sides of the 3^1 ring cells.
    flat, attempts = _kernels.dart_throw(1, 1e-165, 1e-170, 40, 1, 10**6)
    assert attempts == 40 and len(set(flat.tolist())) == 40
    assert (flat.tolist(), attempts) == reference_dart_throw(1, 1e-165, 1e-170, 40, 1, 10**6)
    # A pair at exactly the threshold is not close; a nearer one is.
    q = np.asarray([[0.0], [3.0]])
    pts = np.asarray([[1.0], [2.5]])
    i, j = _pairs_in_ranges(q, pts, np.asarray([0, 0]), np.asarray([2, 2]), 1.0)
    assert (i.tolist(), j.tolist()) == ([1], [1])


@pytest.mark.parametrize("case", [
    (2, 3.0, 1.0, 14, 0), (2, 3.0, 1.0, 14, 4), (1, 10.0, 1.0, 11, 2),
    (3, 2.0, 1.0, 20, -7), (4, 1.0, 1.0, 40, 0), (2, 3.0, 1.0, 14, 2**64 - 1),
])
def test_dart_throw_stops_when_the_box_is_full(case):
    # Each stops after 69 to 9,569 attempts, short of 20,000.
    dim, length, delta, target, seed = case
    flat, attempts = _kernels.dart_throw(*case, 20_000)
    assert len(flat) < target * dim and attempts < 20_000
    _assert_matches_reference((*case, 20_000))


def test_box_is_full_needs_every_cell_covered():
    # Points 1 apart on [0, 10) leave no candidate 1 or more from all of
    # them.  Drop one, and the midpoint of its neighbours is exactly 1 from
    # both: not strictly closer, so the box is not full.
    length, delta = 10.0, 1.0
    pts = np.arange(0.5, 10.0, 1.0)[:, None]
    gap = np.delete(pts, 4, axis=0)
    full, holed = (_kernels._grid(p, length, delta)[0] for p in (pts, gap))
    assert _kernels._box_is_full(pts, full, length, delta, 10**6)
    assert not _kernels._box_is_full(gap, holed, length, delta, 10**6)
    # A budget below the cell count proves nothing.
    assert not _kernels._box_is_full(pts, full, length, delta, 10)


@pytest.mark.parametrize("dim,length,seed", [(2, 3.0, 0), (2, 5.0, 3), (3, 2.0, -7), (4, 1.0, 0)])
def test_box_is_full_finds_the_hole_of_a_dropped_point(dim, length, seed):
    # A full box, then the same points less any one of them: the dropped
    # point is at least delta from the others, so a candidate there would
    # be accepted and the box is not full.
    delta = 1.0
    flat, attempts = _kernels.dart_throw(dim, length, delta, 10**3, seed, 20_000)
    assert attempts < 20_000
    pts = np.reshape(flat, (-1, dim))
    for drop in [None, *range(len(pts))]:
        kept = pts if drop is None else np.delete(pts, drop, axis=0)
        keys = _kernels._grid(kept, length, delta)[0]
        order = np.argsort(keys)
        assert _kernels._box_is_full(kept[order], keys[order], length, delta,
                                     10**6) == (drop is None)


def test_dart_throw_separation_invariant():
    flat, _ = _kernels.dart_throw(2, 30.0, 1.0, 100, 31337, 10**6)
    n = len(flat) // 2
    assert n == 100
    assert not _kernels.has_close_pair(flat, 2, 1.0 * (1 - 1e-9))
    assert math.sqrt(min_pairwise_sq(flat, 2)) >= 1.0


def test_dart_throw_direct_scan_matches_grid():
    # A larger target draws larger blocks and turns from comparing every
    # accepted point to the grid at another attempt; the decisions are the
    # same, so one run is a prefix of the other.
    for seed in (0, 7, 123456789):
        small, _ = _kernels.dart_throw(3, 12.0, 1.0, 100, seed, 10**6)
        large, _ = _kernels.dart_throw(3, 12.0, 1.0, 130, seed, 10**6)
        assert len(small) == 300 and len(large) == 390
        assert large[:300].tolist() == small.tolist()  # bit-identical floats


def test_dart_throw_high_dimension():
    # 3^10 = 59,049 ring cells at d=10: every comparison is all-points.
    flat, attempts = _kernels.dart_throw(10, 3.0, 1.0, 12, 99, 10**6)
    assert len(flat) == 120 and attempts >= 12
    assert min_pairwise_sq(flat, 10) >= 1.0
    assert not _kernels.has_close_pair(flat, 10, 1.0)


@pytest.mark.parametrize("case", [(2, 1e200, 1e-200, 10), (1, 1e300, 1e-300, 1000)])
def test_dart_throw_accepts_any_length_over_delta(case):
    # length/delta overflows to inf, yet the cells of the one cell rule
    # scale with the box, so every index stays below 2^48.
    dim, length, delta, target = case
    flat, attempts = _kernels.dart_throw(dim, length, delta, target, 0, 10**6)
    assert (len(flat), attempts) == (target * dim, target)  # every dart accepted
    rows = flat.reshape(-1, dim)
    # Chebyshev gaps of at least delta imply Euclidean ones.
    gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
    assert (gaps[~np.eye(target, dtype=bool)] >= delta).all()
    again = _kernels.dart_throw(dim, length, delta, target, 0, 10**6)
    assert again[0].tolist() == flat.tolist() and again[1] == attempts


@pytest.mark.parametrize("dim", [1, 2, 3, 10])
def test_pair_scan_matches_scalar_reference(dim):
    rng = random.Random(70 + dim)
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e6):
        for trial in range(6):
            n = rng.randint(2, 40)
            flat = [rng.uniform(-scale, scale) for _ in range(n * dim)]
            if trial % 3 == 0:
                flat[dim:2 * dim] = flat[:dim]  # a repeated point
            rows = np.reshape(flat, (n, dim))
            assert _kernels.pair_sq_extremes(rows)[:2] == (
                min_pairwise_sq(flat, dim), max_pairwise_sq(flat, dim))
    # Squares past the float range read as inf, as in the scalar loop.
    flat = [0.0] * dim + [1.0] * dim + [1e200] * dim
    assert _kernels.pair_sq_extremes(np.reshape(flat, (3, dim)))[:2] == (
        min_pairwise_sq(flat, dim), math.inf)
    with pytest.raises(ValueError):
        _kernels.pair_sq_extremes(np.zeros((1, dim)))


def _thresholds_around(best):
    """The boundary of the strict test: sqrt(best) and its float neighbours."""
    root = math.sqrt(best)
    return (root, math.nextafter(root, math.inf), math.nextafter(root, 0.0))


def _assert_audit_agrees(flat, dim, thresholds):
    best = min_pairwise_sq(flat, dim)
    arr = np.asarray(flat)
    for thr in thresholds + _thresholds_around(best):
        # The audit squares differences in thr's binary units, so a square
        # of thr below the normal range does not hide a closer pair.
        want = best < thr * thr if thr * thr >= sys.float_info.min else math.sqrt(best) < thr
        assert _kernels.has_close_pair(flat, dim, thr) == want, (dim, thr)
        assert _kernels.has_close_pair(arr, dim, thr) == want, (dim, thr)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 10])
def test_has_close_pair_matches_min_pairwise(dim):
    # Sizes straddle the 3^dim neighbour offsets (3, 9, 27, 81) at d <= 4,
    # so both the grid hash and the direct scan are exercised; at d = 10
    # (59049 offsets) these sizes scan directly.
    rng = random.Random(5 + dim)
    for trial in range(30):
        n = rng.randint(2, {1: 8, 2: 20, 3: 60, 4: 150, 10: 12}[dim])
        flat = [rng.uniform(0, 20) for _ in range(n * dim)]
        _assert_audit_agrees(flat, dim, (rng.uniform(0.1, 3.0) * math.sqrt(dim),))


def test_has_close_pair_grid_hash_at_dimension_4():
    # Above the 3^4 = 81 neighbour offsets, so the grid hash runs.
    rng = random.Random(44)
    flat = [rng.uniform(0, 60) for _ in range(400 * 4)]
    _assert_audit_agrees(flat, 4, (2.0, 8.0))


@pytest.mark.parametrize("n", [243, 244, 300])
def test_has_close_pair_grid_hash_at_dimension_5(n):
    # 3^5 = 243 offsets: 243 points scan directly, more use the grid hash.
    rng = random.Random(n)
    flat = [rng.uniform(0, 10) for _ in range(n * 5)]
    _assert_audit_agrees(flat, 5, (0.5, 1.5, 3.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_has_close_pair_wrapping_keys(dim):
    # Coordinates spanning 1e15 give cell keys far beyond 2^64, so they
    # wrap; n is above the offset count, so the grid hash runs.
    rng = random.Random(15 + dim)
    for trial in range(6):
        n = 200
        flat = [rng.uniform(-5e14, 5e14) for _ in range(n * dim)]
        if trial % 2:
            # Plant a close pair across a cell boundary.
            i, j = rng.sample(range(n), 2)
            flat[j * dim : (j + 1) * dim] = [v + rng.uniform(-40.0, 40.0)
                                             for v in flat[i * dim : (i + 1) * dim]]
        _assert_audit_agrees(flat, dim, (1.0, 100.0, 1e12))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_has_close_pair_shared_cells(dim):
    # A lattice of spacing 2 above the offset count, plus either a
    # duplicate point or a second point in an occupied cell (cell side
    # 2*threshold with threshold 1).
    side = {1: 40, 2: 8, 3: 6}[dim]
    lattice = [[2.0 * v for v in m] for m in product(range(side), repeat=dim)]
    for extra in (list(lattice[7]), [v + 0.3 / math.sqrt(dim) for v in lattice[7]]):
        flat = [v for p in lattice + [extra] for v in p]
        assert _kernels.has_close_pair(flat, dim, 1.0)
        _assert_audit_agrees(flat, dim, (1.0, 2.0))
    flat = [v for p in lattice for v in p]
    assert not _kernels.has_close_pair(flat, dim, 2.0)
    assert _kernels.has_close_pair(flat, dim, math.nextafter(2.0, math.inf))


def test_has_close_pair_where_squares_leave_the_normal_range():
    # The thresholds' squares underflow or overflow in the input's units;
    # the audit squares differences in the threshold's binary units.
    assert _kernels.has_close_pair([0.0, 1e-180, 1.0], 1, 1e-170)
    assert _kernels.has_close_pair([0.0, 2e169, 1e200], 1, 1e170)
    assert not _kernels.has_close_pair([0.0, 2e-170, 1.0], 1, 1e-170)
    assert not _kernels.has_close_pair([0.0, 2e170, 1e200], 1, 1e170)
    # Repeated points far from the origin, at a tiny threshold, and a span
    # past the float range at a huge one.
    assert _kernels.has_close_pair([1e300, 5.0, 1e300], 1, 1e-300)
    assert _kernels.has_close_pair([1e300, 5.0, 1e300, 5.0], 2, 5e-324)
    assert not _kernels.has_close_pair([-1.7e308, 0.0, 1.7e308], 1, 1.7e308)


def _pairs_in_ranges(q, pts, first, stop, thr):
    """Every pass of the range walk, joined."""
    return _kernels._joined(_kernels._close_in_ranges(q, pts, first, stop, thr))


def test_close_in_ranges_walks_whole_ranges():
    # Key wraps can put far points into a range, or point a range back at
    # the point itself; every other point of the range is still compared,
    # and the pair of a point with itself is reported for callers to drop.
    pts = np.asarray([[0.0], [10.0], [0.5]])
    first, stop = np.asarray([1]), np.asarray([3])
    i, j = _pairs_in_ranges(pts, pts, first, stop, 1.0)
    assert (i.tolist(), j.tolist()) == ([0], [2])
    assert not len(_pairs_in_ranges(pts, pts, first, stop - 1, 1.0)[0])
    i, j = _pairs_in_ranges(pts, pts, np.asarray([0]), np.asarray([2]), 1.0)
    assert (i.tolist(), j.tolist()) == ([0], [0])


@pytest.mark.parametrize("per_pass", [1, 5, 64 * 1024])
def test_close_in_ranges_matches_brute_force(monkeypatch, per_pass):
    # Passes of at most per_pass pairs, or one row's whole range, give the
    # pairs a scan of every range finds, in the same order.
    monkeypatch.setattr(_kernels, "_PAIRS_PER_PASS", per_pass)
    rng = np.random.default_rng(per_pass)
    for dim in (1, 2, 3):
        q, pts = rng.random((30, dim)), rng.random((40, dim))
        first = rng.integers(0, 40, 30)
        stop = np.minimum(first + rng.integers(-3, 25, 30), 40)
        want = [(i, j) for i in range(30) for j in range(first[i], stop[i])
                if sum((pts[j, a] - q[i, a]) ** 2 for a in range(dim)) < 0.3 * 0.3]
        i, j = _pairs_in_ranges(q, pts, first, stop, 0.3)
        assert list(zip(i.tolist(), j.tolist())) == want


# Key intervals.  The three cells of a ring row along the last axis have
# consecutive keys, so each row is one interval of keys, which wraps past
# 2^64 - 1 where keys do.  Adding a constant to every key keeps keys
# linear, so every kernel must keep its answers when the keys are shifted
# to put one cell at key 0 and its neighbour at 2^64 - 1.


def _naive_pairs(q, pts, thr):
    """The set of (i, j) with q[i] strictly closer than thr to pts[j], each
    difference scaled into thr's binary units and the squares summed axis
    by axis: the O(n^2) scan."""
    scale = math.ldexp(1.0, -max(math.frexp(thr)[1], -1023))
    d2 = np.zeros((len(q), len(pts)))
    with np.errstate(over="ignore"):
        for a in range(q.shape[1]):
            t = (pts[None, :, a] - q[:, None, a]) * scale
            d2 += t * t
    i, j = np.nonzero(d2 < (thr * scale) ** 2)
    return set(zip(i.tolist(), j.tolist()))


def _key_set(kind, dim):
    """Points above the 3^dim ring cells and a threshold with close pairs
    around it: a dense cloud, a cloud spanning +-1e300 (cell keys far past
    2^64 at dim >= 2), and integer multiples of the least subnormal."""
    rng = np.random.default_rng(dim)
    n = 3**dim + 60
    side = 1.3 * n ** (1 / dim)
    if kind == "dense":
        return rng.uniform(0.0, side, (n, dim)), 1.0
    if kind == "wide":
        pts = rng.uniform(-1e300, 1e300, (n, dim))
        m = n // 4
        pts[:m] = pts[m : 2 * m] + rng.uniform(-1e287, 1e287, (m, dim))
        return pts, 1e287
    return rng.integers(0, int(8 * side), (n, dim)) * 5e-324, 8 * 5e-324


def _shift_keys(monkeypatch, pick):
    """Add a constant to every key _cell_keys makes from now on: the
    negated key pick chooses from the first keys made."""
    keys_of = _kernels._cell_keys
    shift = []

    def shifted(home, base):
        keys = keys_of(home, base)
        if not shift:
            shift.append(np.uint64((-pick(keys)) & _MASK64))
        return keys + shift[0]

    monkeypatch.setattr(_kernels, "_cell_keys", shifted)


def _key_with_a_neighbour(keys):
    """A key whose cell's predecessor along the last axis also holds a
    point, or the middle key: shifted to 0, it puts that neighbour at
    2^64 - 1."""
    have = set(keys.tolist())
    return next((k for k in sorted(have) if k - 1 in have), int(np.sort(keys)[len(keys) // 2]))


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("kind", ["dense", "wide", "subnormal"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_has_close_pair_matches_the_naive_scan(dim, kind, shift, monkeypatch):
    pts, thr = _key_set(kind, dim)
    if shift:
        _shift_keys(monkeypatch, _key_with_a_neighbour)
    for t in (0.5 * thr, thr, 2.0 * thr):
        want = any(i != j for i, j in _naive_pairs(pts, pts, t))
        assert _kernels.has_close_pair(pts.ravel(), dim, t) == want, t
    assert _kernels.has_close_pair(pts.ravel(), dim, 2.0 * thr)


@pytest.mark.parametrize("kind", ["dense", "wide"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_has_close_pair_finds_a_lone_pair_across_key_zero(dim, kind, monkeypatch):
    # Only the closest pair is close; shifted keys put each of its cells,
    # and the cells beside them, at key 0 in turn, so some lookup of the
    # pair runs past 2^64 - 1.
    pts, _ = _key_set(kind, dim)
    dist = {(i, j): math.dist(pts[i], pts[j])
            for i in range(len(pts)) for j in range(i + 1, len(pts))}
    (a, b), r = min(dist.items(), key=lambda kv: kv[1])
    thr = r * (1.0 + 1e-9)
    assert {(i, j) for i, j in _naive_pairs(pts, pts, thr) if i < j} == {(a, b)}
    for point in (a, b):
        for step in range(-2, 3):
            _shift_keys(monkeypatch, lambda keys: int(keys[point]) + step)
            assert _kernels.has_close_pair(pts.ravel(), dim, thr), (point, step)
            monkeypatch.undo()


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("kind", ["dense", "wide", "subnormal"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_ring_lookups_match_the_naive_scan(dim, kind, shift, monkeypatch):
    # The full ring (dart throwing against accepted points, and the
    # full-box test) and the half ring (the audit, and a block's own
    # pairs) find exactly the close pairs of the naive scan.
    pts, thr = _key_set(kind, dim)
    x = pts - pts.min(axis=0)
    if shift:
        _shift_keys(monkeypatch, _key_with_a_neighbour)
    # The keys and base dart_throw would use in a box as wide as x's extent.
    keys, base = _kernels._grid(x, float(x.max()), thr)
    if shift and kind == "dense":
        assert {0, _MASK64} <= set(keys.tolist())
    order = np.argsort(keys)
    x, keys = x[order], keys[order]
    want = _naive_pairs(x, x, thr)
    q = x[::-1][: len(x) // 2]
    i, j = _kernels._close_pairs(q, keys[::-1][: len(q)], x, keys, base, thr)
    assert set(zip(i.tolist(), j.tolist())) == _naive_pairs(q, x, thr)
    i, j = _kernels._joined(_kernels._close_pairs_within(x, keys, base, thr))
    found = list(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert set(found) == {(a, b) for a, b in want if a < b}
    if base**dim < 2**64:
        assert len(found) == len(set(found))


def test_ring_lookups_split_intervals_that_wrap():
    # Keys 2^64 - 1 and 0 are neighbours along the last axis: the interval
    # of a row around either runs past 2^64 - 1.
    x = np.asarray([[0.0], [7.0], [0.5]])
    keys = np.asarray([0, 5, _MASK64], dtype=np.uint64)
    i, j = _kernels._joined(_kernels._close_pairs_within(x, keys, 11, 1.0))
    assert sorted(zip(i.tolist(), j.tolist())) == [(2, 0)]
    q = np.asarray([[0.25], [6.5]])
    qkeys = np.asarray([_MASK64, 6], dtype=np.uint64)
    i, j = _kernels._close_pairs(q, qkeys, x, keys, 11, 1.0)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 2), (1, 1)]


def _naive_dart_throw(dim, length, delta, target, seed, max_attempts):
    """Dart throwing one candidate at a time against every accepted point,
    in delta's binary units: the O(n^2) reference at any scale."""
    scale = math.ldexp(1.0, -max(math.frexp(delta)[1], -1023))
    limit = (delta * scale) ** 2
    words, _ = _kernels.splitmix64_block(seed, max_attempts * dim)
    acc = np.empty((0, dim))
    with np.errstate(over="ignore"):
        for t, c in enumerate((_kernels.unit_from_bits(words) * length).reshape(-1, dim)):
            d2 = np.zeros(len(acc))
            for a in range(dim):
                v = (acc[:, a] - c[a]) * scale
                d2 += v * v
            if not (d2 < limit).any():
                acc = np.vstack([acc, c])
                if len(acc) == target:
                    return acc.ravel().tolist(), t + 1
    return acc.ravel().tolist(), max_attempts


def _centre_key(keys):
    return int(np.sort(keys)[len(keys) // 2])


@pytest.mark.parametrize("case", [
    (1, 400.0, 1.0, 120, 11, 4000),
    (2, 40.0, 1.0, 700, 3, 4000),
    (3, 9.0, 1.0, 100, 5, 4000),
    (4, 6.0, 1.0, 90, 2, 4000),
    (2, 3.0, 1.0, 14, 0, 20_000),              # the box fills
    (4, 1.0, 1.0, 40, 0, 20_000),
    (4, 1e300, 1e300 / 7e4, 100, 1, 200),      # keys past 2^64
    (2, 1e-320, 2e-322, 200, 4, 4000),         # subnormal coordinates
])
@pytest.mark.parametrize("shift", [False, True])
def test_dart_throw_matches_the_naive_thrower(case, shift, monkeypatch):
    # Shifted, the first keys made (a block of candidates) put their middle
    # cell at key 0.
    if shift:
        _shift_keys(monkeypatch, _centre_key)
    flat, attempts = _kernels.dart_throw(*case)
    ref, ref_attempts = _naive_dart_throw(*case)
    if len(flat) < case[3] * case[0] and attempts < case[5]:
        # Stopped on a full box: the reference cut there takes no more.
        ref, ref_attempts = _naive_dart_throw(*case[:5], attempts)
    assert (flat.tolist(), attempts) == (ref, ref_attempts)


@pytest.mark.parametrize("dim,length,seed", [(1, 10.0, 2), (2, 3.0, 0), (3, 2.0, -7)])
def test_box_is_full_with_keys_across_zero(dim, length, seed, monkeypatch):
    # The dropped-point test with every key shifted so that a middle cell
    # sits at key 0.
    delta = 1.0
    flat, attempts = _kernels.dart_throw(dim, length, delta, 10**3, seed, 20_000)
    assert attempts < 20_000
    _shift_keys(monkeypatch, _centre_key)
    pts = np.reshape(flat, (-1, dim))
    for drop in [None, *range(len(pts))]:
        kept = pts if drop is None else np.delete(pts, drop, axis=0)
        keys = _kernels._grid(kept, length, delta)[0]
        order = np.argsort(keys)
        assert _kernels._box_is_full(kept[order], keys[order], length, delta,
                                     10**6) == (drop is None)


def _pair_far_from_the_minimum(dim, k, thr, gap):
    """A point at -2^k on every axis, a pair gap apart straddling, on every
    axis, the midpoint between the floats 2^k and 2^k + u (u = 2^(k-52)),
    and a lattice of 3^dim points 3*thr apart beyond it, so the grid hash
    runs.  Shifted by the minimum and rounded, the pair's coordinates would
    lie u apart."""
    half = 2.0 ** (k - 53)
    step = gap / (2 * math.sqrt(dim))
    pair = np.full((2, dim), half) + np.asarray([[-step], [step]])
    lattice = half + 5 * thr + 3 * thr * np.asarray(list(product(range(3), repeat=dim)))
    return np.vstack([np.full((1, dim), -2.0**k), pair, lattice])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_has_close_pair_finds_pairs_far_from_the_minimum(dim):
    # Offsets 2^50 to 2^69, at thresholds from a quarter of the float
    # spacing there to 1, with the pair at 10% to 90% of the threshold.
    rng = np.random.default_rng(dim)
    for k in range(50, 70):
        for thr in (1.0, 2.0 ** (k - 54), 2.0 ** (k - 58)):
            gap = thr * rng.uniform(0.1, 0.9)
            pts = _pair_far_from_the_minimum(dim, k, thr, gap)
            assert _kernels.has_close_pair(pts.ravel(), dim, thr), (k, thr)
            for t in (0.5 * gap, gap, math.nextafter(gap, math.inf), thr):
                want = any(i != j for i, j in _naive_pairs(pts, pts, t))
                assert _kernels.has_close_pair(pts.ravel(), dim, t) == want, (k, t)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 3), k=st.integers(0, 80), m=st.integers(0, 8),
       frac=st.floats(0.05, 1.5), scale=st.integers(-1000, 900), seed=st.integers(0, 2**32 - 1))
def test_has_close_pair_matches_brute_force_at_any_offset_and_scale(dim, k, m, frac, scale, seed):
    # The set of the test above, at threshold 2^-m of the float spacing
    # near 2^k, its lattice jittered, scaled by 2^scale; the audit
    # agrees with the naive scan on the scaled floats.
    thr = 2.0 ** (k - 52 - m)
    rng = np.random.default_rng(seed)
    pts = _pair_far_from_the_minimum(dim, k, thr, thr * frac)
    pts[3:] += rng.uniform(-thr, thr, pts[3:].shape)
    pts, thr = np.ldexp(pts, scale), math.ldexp(thr, scale)
    for t in (0.5 * thr, thr, 2.0 * thr):
        want = any(i != j for i, j in _naive_pairs(pts, pts, t))
        assert _kernels.has_close_pair(pts.ravel(), dim, t) == want, t


def test_has_close_pair_fails_fast_on_a_crowded_cell():
    # 20,000 points in one cell hold about 2*10^8 pairs; the audit stops at
    # the first numpy pass that finds a close one.
    rng = np.random.default_rng(20)
    flat = rng.random(2 * 20_000)
    start = time.perf_counter()
    assert _kernels.has_close_pair(flat, 2, 1.0)
    assert time.perf_counter() - start < 0.5


def test_has_close_pair_edges():
    assert not _kernels.has_close_pair([0.0, 5.0], 1, 0.0)
    assert _kernels.has_close_pair([0.0, 0.5, 5.0], 1, 0.6)
    assert not _kernels.has_close_pair([0.0, 0.5, 5.0], 1, 0.5)  # strict
    assert not _kernels.has_close_pair([1.0], 1, 1.0)
    # A pair at exactly the threshold, then a closer one (4 points, below
    # the 3^2 offsets, so the pair scan runs).
    assert _kernels.has_close_pair([0.0, 0.0, 1.0, 0.0, 5.0, 0.0, 5.0, 0.5], 2, 1.0)


def test_bin_cells_clamps_boundaries():
    cells = _kernels.bin_cells([0.0, 9.9999, 10.0, -0.2], 1, (0.0,), 2.5, 4)
    assert cells.tolist() == [[0], [3], [3], [0]]


def test_version_names_the_kernels():
    assert cli.BACKEND == "pure-python"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["--version"]) == 0
    assert buf.getvalue().strip().endswith("(pure-python kernels)")
