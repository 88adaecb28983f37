"""Kernel semantics: the splitmix64 stream, separation invariants, and the
separation audit checked against the naive pairwise scan."""

import io
import math
import random
from contextlib import redirect_stdout

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


@pytest.mark.parametrize("dim", [1, 2, 3, 10])
def test_has_close_pair_matches_min_pairwise(dim):
    # Sizes straddle the (2*rings+1)^dim neighbour offsets (5, 25, 125 and
    # 3.5e9), so both the grid sweep and the direct scan are exercised.
    rng = random.Random(5 + dim)
    for trial in range(30):
        n = rng.randint(2, 150 if dim < 10 else 12)
        flat = [rng.uniform(0, 20) for _ in range(n * dim)]
        best = _kernels.min_pairwise_sq(flat, dim)
        for thr in (rng.uniform(0.1, 3.0) * math.sqrt(dim), math.sqrt(best),
                    math.nextafter(math.sqrt(best), math.inf)):
            assert _kernels.has_close_pair(flat, dim, thr) == (best < thr * thr)


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
