"""The numpy writer of pointio against the repr join, bit for bit.

Every coordinate the writer's numpy path cannot prove goes to ``repr``.
These tests write in blocks of a few rows, so that block edges fall
everywhere, and compare each file with ``reference_write``, the join of
``repr`` over the rows; a counting stand-in for ``repr`` shows which
coordinates reach it.  The last tests read the files back with the
reader's numpy path forced and bound the writer's memory.
"""

import math
import struct
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_pointio_bulk import reference_write

from apxpat import pointio
from apxpat.generators import gen_jittered_lattice, gen_random_separated
from apxpat.geometry import PointSet
from apxpat.pointio import parse_pointset, write_pointset

MAX = sys.float_info.max
TINY = 5e-324


def write_small_blocks(s, block=256):
    """write_pointset(s) in blocks of about block bytes of layout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pointio, "_WRITE_BLOCK", block)
        return write_pointset(s)


def point_set(values, dim):
    """The values in rows of dim, repeated to fill the last row."""
    n = -(-len(values) // dim)
    return PointSet(dim, np.resize(np.asarray(values, dtype=np.float64), (n, dim)))


def assert_writes_like_repr(values, dim, block=256):
    assert sys.float_repr_style == "short"  # else every value goes to repr
    s = point_set(values, dim)
    assert write_small_blocks(s, block) == reference_write(s)


def neighbours(x, count=40):
    """x and the count doubles on each side of it."""
    up, down = [x], [x]
    for _ in range(count):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], -math.inf))
    return down[:0:-1] + up


def as_double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_bits = st.integers(0, 2**64 - 1).map(as_double).filter(math.isfinite)
short_decimals = st.tuples(st.integers(1, 17), st.floats(allow_nan=False, allow_infinity=False)
                           ).map(lambda pv: float("%.*g" % pv)).filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_bits, min_size=1, max_size=60), st.integers(1, 3))
@example([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 2.225073858507201e-308,
          MAX, -MAX], 1)
@example([1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.001, 0.1, 0.5, 1.0,
          2.0**53, 2.0**53 + 2, 1e15 + 0.5], 2)
def test_any_double_writes_like_repr(values, dim):
    assert_writes_like_repr(values, dim)


@settings(max_examples=200, deadline=None)
@given(st.lists(short_decimals, min_size=1, max_size=60), st.integers(1, 3))
@example([0.3, 2.5, 1.5, 0.125, 1234.5, 5e-5, 123456789012345.6, 0.00015], 1)
def test_short_decimals_write_like_repr(values, dim):
    assert_writes_like_repr(values, dim)


@pytest.mark.parametrize("signed", [1.0, -1.0])
def test_neighbours_of_powers_of_ten_write_like_repr(signed):
    values = [v for k in range(-6, 18) for v in neighbours(float(f"1e{k}"))]
    assert_writes_like_repr(np.array(values) * signed, 3, 4096)


@pytest.mark.parametrize("signed", [1.0, -1.0])
def test_neighbours_of_powers_of_two_write_like_repr(signed):
    values = [v for k in range(-1074, 1024) for v in neighbours(math.ldexp(1.0, k))
              if math.isfinite(v)]
    assert_writes_like_repr(np.array(values) * signed, 2, 4096)


def test_subnormals_and_extremes_write_like_repr():
    rng = np.random.default_rng(29)
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.int64).view(np.float64)
    values = np.concatenate([subnormal, -subnormal, [0.0, -0.0, TINY, -TINY, MAX, -MAX]])
    assert_writes_like_repr(values, 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(finite_bits, short_decimals), min_size=1, max_size=90),
       st.integers(1, 3))
def test_written_files_read_back_with_their_bits(values, dim):
    s = point_set(values, dim)
    data = write_small_blocks(s)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pointio, "_SMALL", 0)
        patch.setattr(pointio, "_BLOCK", 256)
        patch.setattr(pointio, "_parse_rows", refuse_the_loop)
        again = parse_pointset(data)
    assert again.dim == dim
    assert again.coords.tobytes() == s.coords.tobytes()


def refuse_the_loop(text):
    raise AssertionError("the file went to the row loop")


def count_repr(monkeypatch):
    """A stand-in for repr in pointio that records every value given it."""
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(pointio, "repr", counting, raising=False)
    return calls


def threshold_set():
    return gen_random_separated(1, 13122.0, 1.0, 5249, 7)


def lattice():
    s = gen_jittered_lattice(2, 140, 0.4, 3)
    assert len(s) == 19_600
    return s


@pytest.mark.parametrize("make", [threshold_set, lattice], ids=["threshold", "lattice"])
def test_workload_files_never_reach_repr(monkeypatch, make):
    s = make()
    calls = count_repr(monkeypatch)
    assert write_pointset(s) == reference_write(s)
    assert calls == []


def test_a_row_with_a_power_of_two_reaches_repr(monkeypatch):
    s = PointSet(2, [[0.1, 0.2], [3.0, 0.25], [-0.0, 7.5]])
    calls = count_repr(monkeypatch)
    assert write_pointset(s) == b"2\n0.1 0.2\n3.0 0.25\n-0.0 7.5\n"
    assert calls == [3.0, 0.25, -0.0, 7.5]


def test_every_value_reaches_repr_without_the_short_repr_style(monkeypatch):
    s = point_set([0.1, 1e-5, 3.0, -2.5, 1e300, 1234.5678], 2)
    monkeypatch.setattr(pointio, "sys", types.SimpleNamespace(float_repr_style="legacy"))
    calls = count_repr(monkeypatch)
    assert write_pointset(s) == reference_write(s)
    assert calls == s.coords.ravel().tolist()


@pytest.mark.parametrize("make, most_kb", [(threshold_set, 600), (lattice, 2194)],
                         ids=["threshold", "lattice"])
def test_writer_peak_memory(make, most_kb):
    """The repr join peaked at 293 KB on the threshold file (96 KB) and at
    2,194 KB on the lattice's (720 KB)."""
    s = make()
    write_pointset(s)
    tracemalloc.start()
    try:
        write_pointset(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most_kb * 1024
