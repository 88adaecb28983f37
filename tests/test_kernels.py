"""Kernel semantics: the splitmix64 stream, separation invariants, and the
separation audit checked against the naive pairwise scan."""

import io
import math
import random
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

from apxpat import _kernels, cli


def test_splitmix64_reference_vector():
    # First outputs for seed 0 from the reference implementation.
    state, z = _kernels.splitmix64_next(0)
    assert z == 0xE220A8397B1DCDAF
    state, z = _kernels.splitmix64_next(state)
    assert z == 0x6E789E6AA1B965F4
    state, z = _kernels.splitmix64_next(state)
    assert z == 0x06C45D188009454F


def test_unit_from_bits_range():
    state = 12345
    for _ in range(1000):
        state, z = _kernels.splitmix64_next(state)
        u = _kernels.unit_from_bits(z)
        assert 0.0 <= u < 1.0


def test_dart_throw_separation_invariant():
    flat, _ = _kernels.dart_throw(2, 30.0, 1.0, 100, 31337, 10**6)
    n = len(flat) // 2
    assert n == 100
    assert not _kernels.has_close_pair(flat, 2, 1.0 * (1 - 1e-9))
    assert math.sqrt(_kernels.min_pairwise_sq(flat, 2)) >= 1.0


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
    assert _kernels.min_pairwise_sq(flat, 10) >= 1.0
    assert not _kernels.has_close_pair(flat, 10, 1.0)


def _thresholds_around(best):
    """The boundary of the strict test: sqrt(best) and its float neighbours."""
    root = math.sqrt(best)
    return (root, math.nextafter(root, math.inf), math.nextafter(root, 0.0))


def _assert_audit_agrees(flat, dim, thresholds):
    best = _kernels.min_pairwise_sq(flat, dim)
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


def test_bin_cells_clamps_boundaries():
    cells = _kernels.bin_cells([0.0, 9.9999, 10.0, -0.2], 1, (0.0,), 2.5, 4)
    assert cells.tolist() == [[0], [3], [3], [0]]


def test_version_names_the_kernels():
    assert cli.BACKEND == "pure-python"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["--version"]) == 0
    assert buf.getvalue().strip().endswith("(pure-python kernels)")
