"""The exact reader of pointio against Python's float(), bit for bit.

Every token a point file holds is either decided by the reader's numpy
path (Clinger's exact quotient, or Dekker's residual check of one ulp) or
handed to float().  These tests run the numpy path on every file, however
short, and compare each coordinate's bits with float() of its token; a
counting stand-in for float() shows which tokens reach it.  A last test
bounds the reader's memory on a large written file.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apxpat import pointio
from apxpat.generators import gen_jittered_lattice, gen_random_separated
from apxpat.geometry import PointSet
from apxpat.pointio import parse_pointset, write_pointset


def read_tokens(tokens):
    """The reader's value of each token, one token a line, with every file,
    however short, read by the numpy path in blocks of about 256 bytes."""
    data = ("1\n" + "\n".join(tokens) + "\n").encode("ascii")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pointio, "_SMALL", 0)
        patch.setattr(pointio, "_BLOCK", 256)
        read = pointio._read(data)
    assert read is not None, "the reader refused a file of valid tokens"
    return read[1][:, 0]


def assert_bits_match_float(tokens):
    got = read_tokens(tokens)
    want = np.array([float(tok) for tok in tokens])
    bad = [(tok, g, w) for tok, g, w in zip(tokens, got.tolist(), want.tolist())
           if np.float64(g).tobytes() != np.float64(w).tobytes()]
    assert bad == []


finite = st.floats(allow_nan=False, allow_infinity=False)
formatted = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.17g" % v),
    st.floats(-1e12, 1e12).map(lambda v: "%.6f" % v),
    finite.map(lambda v: "%+.3e" % v),
)


@st.composite
def digit_strings(draw):
    """1 to 25 digits, a point anywhere (or none), a sign, an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + "." + digits[at:]
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    expo = ""
    if draw(st.booleans()):
        expo = (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
                + str(draw(st.one_of(st.integers(0, 30), st.integers(0, 400)))))
    return sign + digits + expo


@st.composite
def near_halfway(draw):
    """A point midway between adjacent doubles in [2**52, 10**18), as an
    integer or a half, or its +-0.1 or +-0.01 neighbour."""
    k = draw(st.integers(52, 59))  # the binade [2**k, 2**(k + 1)), ulp 2**(k - 52)
    top = min(2**53, 10**18 >> (k - 52))  # so that (m + 1/2) * ulp < 10**18
    m = draw(st.integers(2**52, top - 1))
    tie100 = (2 * m + 1) * 25 * 2 ** (k - 51)  # 100 * (m + 1/2) * ulp
    nudge = draw(st.sampled_from([0, 0, 1, -1, 10, -10]))
    if nudge == 0 and tie100 % 100 == 0:
        return str(tie100 // 100)
    whole, cents = divmod(tie100 + nudge, 100)
    return f"{whole}.{cents:02d}"


@settings(max_examples=150, deadline=None)
@given(st.lists(formatted, min_size=1, max_size=40))
@example(["-0.0", "0.0", "0000.5", "-000.25", "5e-324", "1.7976931348623157e308"])
@example(["0.1", "0.2", "0.30000000000000004", "1e22", "1e23", "123456789012345678"])
def test_formatted_floats_match_float(tokens):
    assert_bits_match_float(tokens)


@settings(max_examples=300, deadline=None)
@given(st.lists(digit_strings(), min_size=1, max_size=40))
@example(["5.", ".5", "-.5", "+5.", "0e0", "00000000000000000000000.1", "1" * 25, "9" * 19])
@example(["9223372036854775807", "9223372036854775808", "9.2233720368547758e18"])
def test_digit_strings_match_float(tokens):
    assert_bits_match_float(tokens)


@settings(max_examples=300, deadline=None)
@given(st.lists(near_halfway(), min_size=1, max_size=40))
@example(["9007199254740993", "9007199254740993.1", "9007199254740992.9",
          "4503599627370497.5", "4503599627370497.51", "4503599627370497.49",
          "18014398509481986", "18014398509481985.99", "18014398509481986.01"])
def test_near_halfway_tokens_match_float(tokens):
    assert_bits_match_float(tokens)


def count_float(monkeypatch):
    """A stand-in for float() in pointio that records every token given it."""
    calls = []

    def counting(tok=0.0):
        calls.append(tok)
        return float(tok)

    monkeypatch.setattr(pointio, "float", counting, raising=False)
    return calls


def collinear_cloud(seed):
    """400 separated points of the unit square and a 10-point thin tube."""
    rng = random.Random(seed)
    pts = [p.coords for p in gen_random_separated(2, 1.0, 0.01, 400, seed).points]
    theta = rng.uniform(-1.5, 1.5)
    for i in range(10):
        t = (i - 4.5) * 0.09
        pts.append((0.5 + t * math.cos(theta), 0.5 + t * math.sin(theta)))
    return PointSet(2, pts)


def test_written_lattice_never_reaches_float(monkeypatch):
    s = gen_jittered_lattice(2, 140, 0.4, 3)
    assert len(s) == 19_600
    data = write_pointset(s)
    calls = count_float(monkeypatch)
    assert parse_pointset(data).coords.tobytes() == s.coords.tobytes()
    assert calls == []


@pytest.mark.parametrize("make", [lambda: gen_random_separated(1, 13122.0, 1.0, 5249, 7),
                                  lambda: collinear_cloud(11)],
                         ids=["threshold", "collinear"])
def test_few_workload_tokens_reach_float(monkeypatch, make):
    # The 15 KB cloud is below _SMALL, so parse_pointset reads it by float()
    # token by token; here the reader reads both files.
    s = make()
    data = write_pointset(s)
    monkeypatch.setattr(pointio, "_SMALL", 0)
    calls = count_float(monkeypatch)
    assert parse_pointset(data).coords.tobytes() == s.coords.tobytes()
    assert len(calls) <= 0.01 * s.coords.size


def test_a_halfway_token_reaches_float(monkeypatch):
    lines = write_pointset(gen_jittered_lattice(2, 40, 0.4, 5)).split(b"\n")
    lines[5] = b"9007199254740993 -4503599627370497.5"  # both midway between doubles
    data = b"\n".join(lines)
    calls = count_float(monkeypatch)
    s = parse_pointset(data)
    assert len(data) > pointio._SMALL  # read by the numpy path
    assert calls == [b"9007199254740993", b"4503599627370497.5"]
    assert s.coords[4].tolist() == [9007199254740992.0, -4503599627370498.0]


def test_reader_peak_memory_is_at_most_three_times_the_file():
    """np.loadtxt, which read these files before the exact reader, peaked
    at 6.5 times the file."""
    data = write_pointset(gen_jittered_lattice(2, 140, 0.4, 3))
    parse_pointset(data)
    tracemalloc.start()
    try:
        parse_pointset(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(data)
