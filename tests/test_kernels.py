"""Kernel semantics: the splitmix64 stream, dart throwing and the pair scan
checked against scalar reference loops, separation invariants, and the
separation audit checked against the naive pairwise scan."""

import io
import math
import random
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

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
    with the kernel's two neighbourhood paths and cell keys."""
    cell = delta * (1.0 - 1e-9) / math.sqrt(dim)
    rings = int(delta / cell) + 1
    direct = (2 * rings + 1) ** dim > target
    ncells = int(length / cell) + 2
    base = ncells + 2 * rings
    offsets = () if direct else _kernels._neighbor_offsets(dim, rings)
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


@pytest.mark.parametrize("case", [
    (1, 400.0, 1.0, 120, 11, 10**6),       # 1-D grid path
    (1, 13122.0, 1.0, 5249, 3, 10**6),     # the 1-D threshold instance
    (1, 3.0, 0.5, 4, -3, 10**6),           # 1-D direct scan
    (2, 40.0, 1.0, 700, 3, 10**6),         # 2,294 attempts: two refilled blocks
    (2, 40.0, 1.0, 700, 3, 1500),          # cut inside the second block
    (2, 3.0, 1.0, 20, 8, 1300),            # direct scan, cut in the second block
    (3, 12.0, 1.0, 100, 5, 10**6),         # direct scan below 5^3 offsets
    (3, 12.0, 1.0, 130, 5, 10**6),         # grid path above them
    (10, 1.5, 1.0, 40, 99, 10**6),         # (2*4+1)^10 offsets: direct scan
])
def test_dart_throw_matches_scalar_reference(case):
    assert _kernels.dart_throw(*case) == reference_dart_throw(*case)


def test_dart_throw_separation_invariant():
    flat, _ = _kernels.dart_throw(2, 30.0, 1.0, 100, 31337, 10**6)
    n = len(flat) // 2
    assert n == 100
    assert not _kernels.has_close_pair(flat, 2, 1.0 * (1 - 1e-9))
    assert math.sqrt(min_pairwise_sq(flat, 2)) >= 1.0


def test_dart_throw_direct_scan_matches_grid():
    # At d=3 there are 5^3 = 125 neighbour offsets: a target of 100 checks
    # candidates against all accepted points, a target of 130 uses the
    # grid.  Same stream and same decisions, so one run is a prefix of
    # the other.
    for seed in (0, 7, 123456789):
        small, _ = _kernels.dart_throw(3, 12.0, 1.0, 100, seed, 10**6)
        large, _ = _kernels.dart_throw(3, 12.0, 1.0, 130, seed, 10**6)
        assert len(small) == 300 and len(large) == 390
        assert large[:300] == small  # bit-identical floats


def test_dart_throw_high_dimension():
    # (2*4+1)^10 ≈ 3.5e9 neighbour offsets at d=10.
    flat, attempts = _kernels.dart_throw(10, 3.0, 1.0, 12, 99, 10**6)
    assert len(flat) == 120 and attempts >= 12
    assert min_pairwise_sq(flat, 10) >= 1.0
    assert not _kernels.has_close_pair(flat, 10, 1.0)


def test_dart_throw_rejects_overflowing_cell_index():
    with pytest.raises(ValueError):
        _kernels.dart_throw(2, 1e200, 1e-200, 10, 0, 10**6)


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
            assert _kernels.pair_sq_extremes(rows) == (
                min_pairwise_sq(flat, dim), max_pairwise_sq(flat, dim))
    # Squares past the float range read as inf, as in the scalar loop.
    flat = [0.0] * dim + [1.0] * dim + [1e200] * dim
    assert _kernels.pair_sq_extremes(np.reshape(flat, (3, dim))) == (
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
        want = best < thr * thr
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


def test_close_in_ranges_walks_whole_ranges():
    # Key wraps can put far points into a range, or point a range back at
    # the point itself; every other point of the range is still compared.
    pts = np.asarray([[0.0], [10.0], [0.5]])
    first, stop = np.asarray([1]), np.asarray([3])
    assert _kernels._close_in_ranges(pts, first, stop, 1.0)
    assert not _kernels._close_in_ranges(pts, first, stop - 1, 1.0)
    assert not _kernels._close_in_ranges(pts, np.asarray([0]), np.asarray([2]), 1.0)


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
