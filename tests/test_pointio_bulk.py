"""The bulk paths of pointio against copies of the per-row loops they
replaced: the same bytes for point files, SVG dots and whole figures, and
the same coordinates or the same error for parsed files."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apxpat import pointio
from apxpat.errors import ParseError
from apxpat.geometry import PointSet
from apxpat.pointio import (_BLOCK_ROWS, _fixed3, _dot_rows, emit_svg, parse_pointset,
                            write_pointset)


def reference_write(s):
    lines = [str(s.dim)] + [" ".join(map(repr, row)) for row in s.coords.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_dots(cxs, cys, hi_set):
    return "".join(
        f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="black"/>\n'
        if i in hi_set
        else f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#888888"/>\n'
        for i, (x, y) in enumerate(zip(cxs.tolist(), cys.tolist()))
    ).encode("ascii")


def reference_svg(s, highlight=None, anchors=None):
    """emit_svg as a loop over points, in the input's units.  Its frame
    differs from emit_svg's only where one axis of a 2-D figure has no
    extent and the other less than 1, which these tests do not draw."""
    hi_set = set(int(i) for i in highlight) if highlight else set()
    anchor_pts = list(anchors) if anchors else []
    xy = s.coords
    xs = [float(xy[:, 0].min()), float(xy[:, 0].max())] + [a[0] for a in anchor_pts]
    x_lo = min(xs)
    x_span = (max(xs) - x_lo) or 1.0
    if s.dim == 2:
        ys = [float(xy[:, 1].min()), float(xy[:, 1].max())] + [a[1] for a in anchor_pts]
        y_lo = min(ys)
        span = max(x_span, (max(ys) - y_lo) or 1.0)
        height = 640
    else:
        span, height = x_span, 120
    scale = 560 / span

    def sx(v):
        return 40.0 + (v - x_lo) * scale

    def sy(v):
        return height / 2.0 if s.dim == 1 else height - 40.0 - (v - y_lo) * scale

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="640" height="{height}" viewBox="0 0 640 {height}">',
           '<rect width="100%" height="100%" fill="white"/>']
    if s.dim == 1:
        mid = height / 2.0
        out.append(f'<line x1="20.000" y1="{mid:.3f}" x2="620.000" y2="{mid:.3f}" '
                   'stroke="black" stroke-width="1"/>')
        for a in anchor_pts:
            x = f"{sx(a[0]):.3f}"
            out.append(f'<line x1="{x}" y1="{mid - 14:.3f}" x2="{x}" y2="{mid + 14:.3f}" '
                       'stroke="black" stroke-width="3"/>')
    else:
        for a in anchor_pts:
            out.append(f'<circle cx="{sx(a[0]):.3f}" cy="{sy(a[1]):.3f}" r="7" '
                       'fill="none" stroke="black" stroke-width="1.5"/>')
    for i, row in enumerate(xy.tolist()):
        x, y = sx(row[0]), sy(row[-1])
        out.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="black"/>' if i in hi_set
                   else f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#888888"/>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("ascii")


def formatted(v):
    """_fixed3's text of the values it writes, one per line, and its mask."""
    text = np.zeros((len(v), 11), dtype=np.uint8)
    text[:, 10] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    ok = _fixed3(v, text[:, :10], keep[:, :10])
    return text[ok][keep[ok]].tobytes().decode("ascii"), ok


def test_fixed3_matches_percent_format():
    rng = np.random.default_rng(13)
    thousandths = np.arange(640_001) / 1000.0
    halves = (np.arange(0, 640_000, 3) + 0.5) / 1000.0
    near = np.concatenate([thousandths[::4], halves])
    v = np.concatenate([
        rng.uniform(0.0, 640.0, 200_000),
        rng.uniform(0.0, 1e6, 20_000),
        rng.uniform(999_999.99, 1e6, 2_000),
        thousandths, halves,
        np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        np.arange(10_241) / 16.0,  # exact binary ties such as 0.0625
        [0.0, 5e-324, 1e-4, 0.0005, 0.0015, 999_999.9994, 999_999.9995, 1e6, 1e300,
         -0.0, -1e-4, -5.0, math.nan, math.inf, -math.inf],
    ])
    assert len(v) >= 10**6
    got, ok = formatted(v)
    want = ["%.3f" % x for x in v[ok].tolist()]
    got = got.splitlines()
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []
    # Left to Python: signed, non-finite, too large, or a tie after scaling.
    t = v * 1000.0
    with np.errstate(invalid="ignore"):
        plain = ~np.signbit(v) & (t < 999_999_999) & (t - np.floor(t) != 0.5)
    assert ok[plain].all()
    assert not ok[np.signbit(v) | ~np.isfinite(v) | (v >= 999_999.9995)].any()
    assert np.count_nonzero(~ok[:200_000]) <= 5


def test_dot_rows_match_the_loop_with_python_fallbacks():
    rng = np.random.default_rng(4)
    n = 3000
    cxs = rng.uniform(40.0, 600.0, n)
    cys = rng.uniform(40.0, 600.0, n)
    odd = [40.0625, 100.0005, -0.0, -1e-4, -3.25, 1e6, 2.5e7, math.nan, math.inf,
           -math.inf, 5e-324, 999_999.9995]
    cxs[:: n // len(odd)][: len(odd)] = odd
    cys[7 :: n // len(odd)][: len(odd)] = odd[::-1]
    cxs[-1] = math.nan
    big = rng.random(n) < 0.1
    hi_set = set(np.flatnonzero(big).tolist())
    assert b"".join(_dot_rows(cxs, cys, big)) == reference_dots(cxs, cys, hi_set)
    assert b"".join(_dot_rows(cxs[:1], cys[:1], big[:1])) == reference_dots(
        cxs[:1], cys[:1], hi_set)


@pytest.mark.parametrize("dim", [1, 2])
def test_emit_svg_matches_the_loop(dim):
    rng = random.Random(dim)
    for trial in range(300):
        n = rng.choice([1, 2, 5, 40, 300])
        scale = rng.choice([1.0, 1e-3, 7.3, 1e4, 1e-9])
        if trial % 3:
            rows = [[rng.uniform(-100, 100) * scale for _ in range(dim)] for _ in range(n)]
        else:
            rows = [[rng.randint(-40, 40) / 8 * scale for _ in range(dim)] for _ in range(n)]
        s = PointSet(dim, rows)
        if dim == 2 and min(np.ptp(s.coords, axis=0)) == 0 < max(np.ptp(s.coords, axis=0)):
            continue
        highlight = rng.sample(range(-3, n + 3), min(n, rng.randint(0, 6))) * 2
        anchors = [[rng.uniform(-150, 150) * scale for _ in range(dim)]
                   for _ in range(rng.randint(0, 3))]
        # The reference drops indices outside the set; emit_svg refuses them.
        valid = [i for i in highlight if 0 <= i < n]
        if valid != highlight:
            with pytest.raises(ValueError, match="highlight index"):
                emit_svg(s, highlight, anchors)
        assert emit_svg(s, valid, anchors) == reference_svg(s, highlight, anchors)


def test_emit_svg_matches_the_loop_across_blocks():
    rng = np.random.default_rng(8)
    s = PointSet(2, rng.uniform(-3.0, 170.0, (2 * _BLOCK_ROWS + 77, 2)))
    highlight = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, len(s) - 1, len(s), -1, 5, 5]
    anchors = [[-10.0, 3.0], [200.0, 0.5]]
    with pytest.raises(ValueError, match=f"highlight index {len(s)} is outside"):
        emit_svg(s, highlight, anchors)
    valid = [i for i in highlight if 0 <= i < len(s)]
    assert emit_svg(s, valid, anchors) == reference_svg(s, highlight, anchors)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_write_pointset_matches_the_loop(dim):
    rng = np.random.default_rng(dim)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, -7.0, 123456789.0]
    # 20,000 rows span several of the writer's blocks.
    for n in (1, 2, 7, 500, 20_000):
        rows = rng.choice(special, (n, dim)) * rng.choice([1.0, 1.0, 0.5], (n, dim))
        rows[::3] = rng.uniform(-1e3, 1e3, rows[::3].shape)
        s = PointSet(dim, rows)
        assert write_pointset(s) == reference_write(s)


def reference_parse(data):
    """parse_pointset as it was before the bulk reader: every token of the
    file collected, converted at once, and bad rows found afterwards."""
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not 7-bit text: {exc}") from None
    else:
        text = data
    dim = None
    tokens, lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            try:
                dim = int(line)
            except ValueError:
                raise ParseError(f"expected the dimension, got {line!r}", lineno) from None
            if dim < 1:
                raise ParseError(f"dimension must be positive, got {dim}", lineno)
            continue
        parts = line.split()
        if len(parts) != dim:
            reference_reject_bad_row(tokens, lines, dim)
            raise ParseError(f"expected {dim} coordinates, got {len(parts)}", lineno)
        tokens.extend(parts)
        lines.append(lineno)
    if dim is None:
        raise ParseError("empty file: missing dimension line")
    if not lines:
        raise ParseError("no points in file")
    try:
        coords = np.array(tokens, dtype=np.float64).reshape(len(lines), dim)
    except ValueError:
        reference_reject_bad_row(tokens, lines, dim)
        raise
    if not np.isfinite(coords).all():
        reference_reject_bad_row(tokens, lines, dim)
    return PointSet(dim, coords)


def reference_reject_bad_row(tokens, lines, dim):
    for r, lineno in enumerate(lines):
        try:
            row = [float(tok) for tok in tokens[r * dim : (r + 1) * dim]]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        for c in row:
            if not math.isfinite(c):
                raise ParseError(f"non-finite coordinate {c!r}", lineno)


def outcome(parse, data):
    """What a parser makes of data: the set's dimension and coordinate
    bits, or the error's type, message and line."""
    try:
        s = parse(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return s.dim, s.coords.shape, s.coords.tobytes()


def assert_same_as_reference(data):
    assert outcome(parse_pointset, data) == outcome(reference_parse, data)


ODD_TOKENS = ["0", "-0.0", "+1", "+.5", ".5", "5.", "-.25e+2", "1E5", "1e-5", "0001",
              "4.9e-324", "2.5e-310", "1e-400", "1e309", "-1e309", "1.7976931348623157e308",
              "1_0", "inf", "-inf", "nan", "Infinity", "x1", "1e", "e1", "+", "-", ".",
              "1.2.3", "--1", "1e+-3", "0x10", "1d5"]


@st.composite
def point_files(draw):
    """Point files near the format: mostly well formed, with comments, blank
    and whitespace-only lines, CRLF, CR and LF line ends, tabs, and now and
    then a bad dimension, a row of the wrong length or an odd token."""
    dim = draw(st.integers(1, 3))
    ends = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
    if draw(st.booleans()):
        ends = st.just(draw(ends))
    seps = st.sampled_from([" ", " ", "\t", "  ", " \t "])
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1e3, 1e3).map(lambda v: "%.6f" % v),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%+.3e" % v),
        st.integers(-10**6, 10**6).map(str),
    )
    odd_rate = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2]))
    junk_rate = draw(st.sampled_from([0.0, 0.0, 0.1]))

    def token():
        if draw(st.floats(0, 1)) < odd_rate:
            return draw(st.sampled_from(ODD_TOKENS))
        return draw(number)

    def junk_line():
        return draw(st.sampled_from(["", " ", "\t", " \t ", "# comment", "#", "  # 1 2"]))

    lines = [junk_line() for _ in range(draw(st.integers(0, 2)))]
    lines.append(draw(st.sampled_from([str(dim)] * 8 + [f" {dim}\t", f"+{dim}", "0", "-1",
                                                         "x", f"{dim} 1", f"{dim}.0"])))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.floats(0, 1)) < junk_rate:
            lines.append(junk_line())
            continue
        arity = dim
        if draw(st.floats(0, 1)) < odd_rate:
            arity = draw(st.integers(max(0, dim - 1), dim + 1))
        row = [token() for _ in range(arity)]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(
            tok + (draw(seps) if i + 1 < arity else "") for i, tok in enumerate(row)))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("ascii")


@settings(max_examples=300, deadline=None)
@given(point_files())
@example(b"")
@example(b"\n \n")
@example(b"2\n")
@example(b"2\n  \t\r\n")
@example(b"2\n1 2 3\n4\n")
@example(b"2\n1 2\n3 4 5\n")
@example(b"1\n1\r2\r3\r")
@example(b"2\r\n+1\t.5\r\n5. -0.0\r\n\r\n1e-400 4.9e-324\r\n")
@example(b"1\n1e309\n")
@example(b"2\n0 0\nnan x\n")
@example(b"2\n0 inf\n1 2 3\n")
@example(b"2\n0 0\n1 2 3\n1 x\n")
@example(b"1\n1_0\n")
@example(b"1\n1\v2\n")
@example(b"2\n1\v2\n")
@example(b"2\n1\f2\n")
@example(b"2\n1\x1c2\n")
@example(b"2\n1 2\x1d\n")
@example(b"1\n\xff\n")
@example(b"0\n1\n")
@example(b"2 \n1 2\n")
@example(b"\t2\n1 2\n")
def test_parse_matches_the_reference(data):
    assert_same_as_reference(data)
    assert_same_as_reference(data.decode("latin-1"))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["1\n", "2\n", "3\n", ""]),
       st.text(alphabet="0123456789+-.eE \t\r\n#x_in\v\f\x1c\u00a0\u0663", max_size=60))
def test_parse_matches_the_reference_on_noise(head, body):
    assert_same_as_reference(head + body)
    assert_same_as_reference((head + body).encode("utf-8"))


def refuse_the_loop(monkeypatch):
    def loop(text):
        raise AssertionError("the file went to the row loop")
    monkeypatch.setattr(pointio, "_parse_rows", loop)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_written_files_take_the_bulk_path(dim, monkeypatch):
    refuse_the_loop(monkeypatch)
    rng = np.random.default_rng(dim)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
               1.7976931348623157e308, 0.1, 1 / 3, -7.0, 123456789.0]
    # 20,000 rows span several of the reader's blocks.
    for n in (1, 2, 7, 500, 20_000):
        rows = rng.choice(special, (n, dim)) * rng.choice([1.0, -1.0, 0.5], (n, dim))
        rows[::3] = rng.uniform(-1e3, 1e3, rows[::3].shape)
        s = PointSet(dim, rows)
        again = parse_pointset(write_pointset(s))
        assert again.dim == dim
        assert again.coords.tobytes() == s.coords.tobytes()


@pytest.mark.parametrize("ending", ["no final newline", "CRLF"])
def test_block_edges_take_the_bulk_path(ending, monkeypatch):
    """A written file read in blocks: with its last line unended, or with
    CRLF line ends, one of which ends a block."""
    s = PointSet(2, np.random.default_rng(4).uniform(-1e3, 1e3, (12_000, 2)))
    data = write_pointset(s)
    if ending == "CRLF":
        # Two blocks, cut after the line end at the middle of the body;
        # indent the first row until that middle byte is a CR.
        head, body = data.replace(b"\n", b"\r\n").split(b"\n", 1)
        start = len(head) + 1
        for pad in range(64):
            data = head + b"\n" + b" " * pad + body
            middle = start + (len(data) - start) // 2
            if data[middle : middle + 2] == b"\r\n":
                break
        monkeypatch.setattr(pointio, "_BLOCK", (len(data) - start + 1) // 2)
        assert pointio._block_cuts(data, start) == [start, middle + 2, len(data)]
    else:
        data = data[:-1]
    want = outcome(reference_parse, data)
    refuse_the_loop(monkeypatch)
    assert outcome(parse_pointset, data) == want
    assert want[2] == s.coords.tobytes()


@pytest.mark.parametrize("data", [
    b"\n \n2\r\n+1\t.5\r\n\r\n 5.  -0.0 \r\n1e-400 4.9e-324\r\n",
    b"1\n1E5\n-.25e+2\n0001",
    " 3\n1 2 3\n",
])
def test_plain_text_takes_the_bulk_path(data, monkeypatch):
    want = outcome(reference_parse, data)
    refuse_the_loop(monkeypatch)
    assert outcome(parse_pointset, data) == want


@pytest.mark.parametrize("data", [
    b"# c\n1\n1\n", b"1\n1_0\n", b"1\n1\r2\r", b"2\n1\v2\n", b"2\n1\x1c2\n",
    "2\n1\u20282\n", b"2\n1 2\n3\n",
    b"1\ninf\n", b"1\n1e309\n", b"2\n1 2 3\n", b"1\n", "1\n\u0663\n",
])
def test_other_files_go_to_the_loop(data, monkeypatch):
    want = outcome(reference_parse, data)
    refuse_the_loop(monkeypatch)
    with pytest.raises(AssertionError, match="row loop"):
        parse_pointset(data)
    monkeypatch.undo()
    assert outcome(parse_pointset, data) == want
