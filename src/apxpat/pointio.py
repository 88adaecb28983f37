"""Point-set file codec and SVG figure emission.

File format: '#' lines are comments; the first data line is the dimension
d; every following data line holds d space-separated decimals.  A file of
only digits, signs, '.', 'e', 'E', spaces, tabs and LF or CRLF line ends,
such as every file ``write_pointset`` makes, is read by the exact reader
below.  Any other file, and any file that reader refuses (a row of the
wrong length, a token that is not a decimal) or reads to a non-finite
value, goes through the row loop: it skips comments and blank lines,
takes every token ``float`` takes, and reports the first bad row with its
line (an arity error before a bad token, a malformed token before a
non-finite one).  Both give the bits ``float`` gives.  Writing gives
each coordinate's ``repr``, the shortest decimal that reads back to it,
so parse(write(S)) has S's bits; the writer below finds ``repr``'s bytes
in numpy.

The exact reader works on blocks of whole lines, of at most about
_BLOCK bytes each, so that its temporaries stay small.  A token is a
sign, a significand of digits with at most one point, and an exponent;
M is the significand's digits read as an integer and F the digits after
the point less the exponent, so the token's value is M / 10**F.
- If M <= 2**53 and |F| <= 22, M and 10**|F| are exact doubles, and one
  division (a product when F < 0) rounds M / 10**F correctly: Clinger's
  fast path.  It gives the double nearest the value, as ``float`` does.
- If 2**53 < M < 2**63 and 0 <= F <= 22, x = fl(fl(M) / p), p = 10**F,
  is within two ulps.  Dekker's product splits x * p exactly into hi + lo,
  and hi is an integer, so r = (M - hi) - lo is the residual M - x * p
  rounded once.  x1 = x + r / p is taken, with r1 = r - (x1 - x) * p, when
  |r1| < (x1 - pred(x1)) * p * (1/2 - 2**-21): the value then lies within
  half of x1's smaller gap of x1, so x1 is the nearest double.  The margin
  is far above the roundings of r and r1 (under 2**-49 of that gap times
  p), and a tie or a near tie fails the test.
- Every other token goes to ``float`` itself: ties and near ties, M of
  2**63 or more (a significand of over 19 digits or 24 bytes), F outside
  those ranges.
The significand is read from the three 8-byte windows that end at its
last byte, each two aligned little-endian words shifted together.  The
bytes before it and its point are masked to 0, so it reads as V =
I * 10**(F + 1) + frac, I its whole part, and M = V - 9 * 10**F * I with
I = V // 10**(F + 1); three multiply-shift steps (SWAR) turn each window's
eight digits into their value.  Tokens and rows are found with byte
comparisons and ``flatnonzero``: where every token holds a point and is
followed by one whitespace byte, one ``flatnonzero`` finds points and
separators at once.  A file of fewer than _SMALL bytes whose lines are
each d tokens parted by single spaces is read by ``float`` instead, token
by token (numpy calls it on each bytes token), which costs less there
than the reader's fixed numpy work.

The writer works on blocks of rows, of at most _WRITE_BLOCK bytes of
layout.  For x with 1e-4 <= |x| < 1e16, not a power of two, ``repr``
writes the digits of the shortest decimal within h = ulp(x) / 2 of |x|
(x's round-trip interval), the one nearest |x| of those, in fixed point
with exponent E = floor(log10 |x|) in [-4, 15].  Let p = 10**(16 - E),
with E from ``log10``.
- Dekker's product splits |x| * p exactly into hi + lo, hi an integer,
  so |x| * p = c + f exactly with c = hi + rint(lo), the nearest integer,
  and f = lo - rint(lo).  E is right when c >= 10**16 and m, below, is
  under 10**17.
- H = h * p is exact (a power of two times p), and 0.55 < H < 11.2.  So
  c is within H, and at most one multiple of 100 is, which is then the
  only one of any higher power of ten that can be.  The digits are
  those of m, less its trailing zeros: the multiple of 100 nearest
  c + f if it is within H, else the multiple of 10 nearest c + f if that
  is, else c.
- Each distance to c + f is an exact integer step (c mod 100 or mod 10)
  plus f, rounded once; it is inside when below H * (1 - 2**-20) and
  outside when above H * (1 + 2**-20).  The margins are far above that
  rounding; whether an end of the interval reads back to x depends on
  x's last bit, and a value between the margins goes to ``repr``.
- Also to ``repr``: a tie between the two nearest multiples, a wrong E,
  zero, powers of two (whose lower gap is half the upper), |x| outside
  [1e-4, 1e16) (``repr``'s exponent form), and every value where
  ``sys.float_repr_style`` is not "short".  A row with one such
  coordinate is written by ``repr``.
m's first digit and two words of eight are turned into bytes by three
multiply-shift steps, the reader's undone.  Each coordinate is laid out
in a field of _WIDTH bytes: a sign, a 0, m's digits, the point, three
0s, m's digits again and a separator; a table, by E and the number of
digits, gives the mask of the bytes that make its text: the first
E + 1 digits, the point and the rest (E >= 0), or the 0, the point,
-E - 1 zeros and the digits (E < 0).  One mask compresses the block.

SVG dots are written in blocks of rows through a numpy fixed-point
formatter that gives the bytes of Python's ``'%.3f'``.  That format rounds
the exact value 1000*v of the double v to an integer, ties to even.  The
float product t = v*1000 is 1000*v rounded, and rounding is monotonic:
as every half-integer below 2**52 is a float, t lies on the same side of
each of them as 1000*v, or on it.  So where t is not a half-integer,
m = rint(t) is the integer nearest to 1000*v, and its digits with a point
before the last three are the text (its last eight by the writer's
multiply-shift steps); t - m is exact, so the test is
|t - m| < 0.5.  Every other value (t a half-integer, negatives and -0.0,
values that round to 1e6 or more, nan and inf) is formatted by Python's
``'%.3f'`` itself.

The figure's frame is free of the input's scale: points and anchors are
scaled into the unit range by a power of two before any length is taken.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .bounds import check_real, check_whole
from .errors import DimensionMismatch, InvalidArgument, ParseError
from .geometry import PointSet, _width

__all__ = ["parse_pointset", "write_pointset", "emit_svg"]

# The only bytes of a file the reader is given; any other byte sends the
# file to the row loop.
_TOKEN_BYTES = b"0123456789+-.eE"
_BULK_BYTES = _TOKEN_BYTES + b" \t\r\n"
_BLANKS = re.compile(rb"[ \t\r\n]*")
# The body is read in blocks of at most about _BLOCK bytes.  A body
# of fewer than _SMALL bytes in single-spaced lines is read by float() over
# bytes.split().  On 2-D sets of 17-digit coordinates, each parse timed
# right after the benchmark's reference work (caches cold, as in a CLI
# request), the two ways meet near 850 points, 33 KB (with warm caches,
# near 250 points, 9.6 KB).
_BLOCK = 64 << 10
_SMALL = 32 << 10
# A block is framed by _PAD in front, so that every token has 24 bytes
# before its end, and by a newline and spaces behind, to a whole number of
# 8-byte words.
_PAD = b" " * 24
_U64 = np.uint64
# SWAR steps from eight digit bytes, first digit lowest, to their value.
_PAIR, _QUAD = _U64(0x00FF00FF00FF00FF), _U64(0x0000FFFF0000FFFF)
_TIMES = (_U64(2561), _U64(6553601), _U64(42949672960001))
_SHIFT = (_U64(8), _U64(16), _U64(32))
_SIX, _SIXTEEN = _U64(0x0606060606060606), _U64(0x1010101010101010)
# Their inverse, from halves of four digits: (multiplier, shift, mask) for
# x // 100 in each 32-bit lane, then x // 10 in each 16-bit lane (exact
# below 10**4 and 100), the divisor, and the shift that puts the quotient
# in the low half of its lane.
_SPLITS = ((_U64(10486), _U64(20), _U64(0x0000007F0000007F), _U64(100), _SHIFT[1]),
           (_U64(103), _U64(10), _U64(0x000F000F000F000F), _U64(10), _SHIFT[0]))
_NO_DOT = 24


def _digit_masks() -> np.ndarray:
    """_KEEP[:, n * 25 + f]: the masks of the three 8-byte windows that end
    a digit string of n <= 24 bytes, with 0x0F on each digit byte and 0 on
    the dot, which has f bytes after it (f = _NO_DOT: no dot), and on the
    bytes before the string."""
    keep = np.zeros((25, 25, 24), np.uint8)
    for n in range(25):
        keep[n, :, 24 - n:] = 0x0F
        for f in range(n):
            keep[n, f, 23 - f] = 0
    return np.ascontiguousarray(keep.reshape(625, 3, 8).view("<u8")[:, :, 0].T)


_KEEP = _digit_masks()
# Indexed by f: 10**(f + 1) and 9 * 10**f, so that the digit string read
# with its dot as a 0 digit, V = I * 10**(f + 1) + frac, gives the
# significand M = V - (V // 10**(f + 1)) * 9 * 10**f.  Past f = 18 every V
# that fits is below 10**(f + 1), so I = 0; with no dot, M = V.
_DIV = np.array([min(10 ** (f + 1), 2**64 - 1) for f in range(24)] + [1], np.uint64)
_NINE = np.array([9 * 10**f if f < 19 else 0 for f in range(24)] + [0], np.uint64)
# 10**k, exact for k <= 22, and its halves for Dekker's product.
_P10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_P10_LO = _P10 - _P10_HI
_HALF = 0.5 - 2.0**-21


def parse_pointset(data: bytes | str) -> PointSet:
    # A character past ASCII becomes '?', which sends the text to the loop.
    read = _read(data if isinstance(data, bytes) else data.encode("ascii", "replace"))
    if read is not None:
        with contextlib.suppress(InvalidArgument):  # a non-finite coordinate
            return PointSet(*read)
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not 7-bit text: {exc}") from None
    return _parse_rows(data)


def _read(raw: bytes) -> tuple[int, np.ndarray] | None:
    """The dimension and coordinates of a file of bulk bytes, or None when
    the file holds another byte, a lone CR or anything the row loop would
    refuse but a non-finite coordinate."""
    if raw.translate(None, _BULK_BYTES) or b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    # With no '#' in the file, the first non-blank line is the dimension's.
    i = _BLANKS.match(raw).end()
    j = raw.find(b"\n", i) + 1  # 0 with no newline, and int(b"") fails
    try:
        dim = int(raw[i:j])
    except ValueError:
        return None
    if dim < 1:
        return None
    tokens = _line_tokens(raw[j:], dim) if len(raw) - j < _SMALL else None
    if tokens is not None:
        try:
            values = np.array(tokens, dtype=np.float64)
        except ValueError:
            return None
    else:
        view, cuts = memoryview(raw), _block_cuts(raw, j)
        pieces = [_read_block(_frame(view[lo:hi]), dim) for lo, hi in zip(cuts, cuts[1:])]
        if any(piece is None for piece in pieces):
            return None
        values = np.concatenate(pieces)
    if not len(values):
        return None
    return dim, values.reshape(-1, dim)


def _frame(block: memoryview) -> bytes:
    """block between _PAD and a newline, if it lacks one, and spaces to a
    whole number of 8-byte words."""
    tail = b"" if block[-1:] == b"\n" else b"\n"
    return b"".join((_PAD, block, tail, b" " * (-(len(block) + len(tail)) % 8)))


def _block_cuts(raw: bytes, lo: int) -> list[int]:
    """Cuts at line ends that split raw[lo:] into the fewest blocks of at
    most about _BLOCK bytes, all of about the same size."""
    size = len(raw) - lo
    count = max(1, -(-size // _BLOCK))
    cuts = [lo]
    for k in range(1, count):
        cut = raw.find(b"\n", lo + k * size // count) + 1
        if cuts[-1] < cut < len(raw):
            cuts.append(cut)
    return cuts + [len(raw)]


def _line_tokens(body: bytes, dim: int) -> list[bytes] | None:
    """The tokens of body if every line is dim tokens parted by single
    spaces, else None: its whitespace, in order, must be dim - 1 spaces and
    a newline a line, and no two whitespace bytes may meet, which holds
    when there are as many tokens as whitespace bytes."""
    lines = body.count(b"\n")
    tokens = body.split()
    if (len(tokens) == dim * lines and body[-1:] == b"\n" and not body[:1].isspace()
            and body.translate(None, _TOKEN_BYTES) == (b" " * (dim - 1) + b"\n") * lines):
        return tokens
    return None


def _windows(words: np.ndarray, end: np.ndarray, count: int) -> np.ndarray:
    """The count 8-byte windows before byte offset end of the block whose
    aligned little-endian words are words, as a (count, len(end)) array:
    each is two aligned words shifted together."""
    shift = end & 7
    shift <<= 3
    shift = shift.view(np.uint64)
    back = _U64(64) - shift
    at = end >> 3
    at -= count
    out = np.empty((count, len(end)), np.uint64)
    low = words.take(at)
    for row in out:
        at += 1
        high = words.take(at)
        np.right_shift(low, shift, out=row)
        np.left_shift(high, back, out=low)
        row |= low
        low = high
    return out


def _digits(w: np.ndarray) -> np.ndarray:
    """The value of each 8-byte window of digit values, first digit in the
    lowest byte, by three SWAR steps (in place)."""
    w *= _TIMES[0]
    w >>= _SHIFT[0]
    for k in (1, 2):
        w &= _PAIR if k == 1 else _QUAD
        w *= _TIMES[k]
        w >>= _SHIFT[k]
    return w


def _digit_words(y: np.ndarray) -> np.ndarray:
    """Each y < 10**8 (in place) as its eight decimal digits, one a byte of
    a little-endian word, first digit lowest: _digits undone, from halves
    of four digits to quarters of two to single digits."""
    high = y // _U64(10**4)
    y -= high * _U64(10**4)
    y <<= _SHIFT[2]
    y |= high
    for times, shift, keep, divisor, lane in _SPLITS:
        high = y * times
        high >>= shift
        high &= keep
        y -= high * divisor
        y <<= lane
        y += high
    return y


def _not_digits(w: np.ndarray) -> bool:
    """Whether a masked window holds a byte above 9: a sign (11 or 13) or a
    dot (14) where a digit should be."""
    w = w + _SIX
    w &= _SIXTEEN
    return bool(w.any())


def _plain_tokens(b: np.ndarray, dim: int):
    """The _tokens of a framed block whose tokens each hold one dot and are
    each followed by one whitespace byte, in rows of dim; else None."""
    start = len(_PAD) - 1  # the blank byte before the first token
    pos = np.flatnonzero((b[start:] <= 32) | (b[start:] == 46))
    pos += start
    kind = b.take(pos)
    nt = len(pos) // 2
    if len(pos) % 2 == 0 or (kind[0::2] > 32).any() or (kind[1::2] != 46).any() or nt % dim:
        return None
    nl = kind[2::2] == 10
    if np.count_nonzero(nl) != nt // dim or not nl[dim - 1 :: dim].all():
        return None
    ends = pos[2::2].copy()  # so that pos is freed
    return pos[:-1:2] + 1, ends, ends, ends - pos[1::2] - 1, None


def _tokens(b: np.ndarray, buf: bytes, dim: int):
    """(starts, ends, eend, fi, expo) of the tokens of a framed block buf,
    b its bytes to the last newline, or None when its rows or tokens are not
    ones the row loop takes.  eend is the end of each significand, fi its
    digit count after the dot (_NO_DOT without one) and expo the exponents
    (None when no token has one)."""
    ws = b <= 32
    edge = np.flatnonzero(ws[:-1] != ws[1:])
    edge += 1
    starts, ends = edge[0::2], edge[1::2]
    nt = len(starts)
    if nt % dim:
        return None
    if nt > 1:
        # brk[k]: a line ends between tokens k and k + 1.
        nxt = starts[1:]
        lines = np.flatnonzero(b == 10)
        brk = lines.take(np.searchsorted(lines, ends[:-1])) < nxt
        if np.count_nonzero(brk) != nt // dim - 1 or not brk[dim - 1 :: dim].all():
            return None
    eend, expo = ends, None
    if b"e" in buf or b"E" in buf:
        at = np.flatnonzero((b | 32) == 101)
        te = np.searchsorted(starts, at, "right") - 1
        if (np.diff(te) == 0).any():
            return None
        eend = ends.copy()
        eend[te] = at
        at += 1
        esign = b.take(at)
        eneg = esign == 45
        run = ends.take(te) - at - (eneg | (esign == 43))
        if len(run) and run.min() < 1:
            return None
        w = _windows(np.frombuffer(buf, "<u8"), ends.take(te), 1)
        w &= _KEEP[2].take(np.minimum(run, 8) * 25 + _NO_DOT)
        if _not_digits(w):
            return None
        value = _digits(w[0]).astype(np.int64)
        value[run > 8] = 1000  # outside the exact range, decided by float()
        np.negative(value, out=value, where=eneg)
        expo = np.zeros(nt, np.int64)
        expo[te] = value
    dots = np.flatnonzero(b == 46)
    td = np.searchsorted(starts, dots, "right") - 1
    if len(td) > 1 and (np.diff(td) == 0).any():
        return None
    fi = np.full(nt, _NO_DOT)
    fi[td] = eend.take(td) - dots - 1
    if (fi < 0).any():
        return None
    return starts, ends, eend, fi, expo


def _read_block(buf: bytes, dim: int) -> np.ndarray | None:
    """The coordinates of one framed block of lines, each decided exactly
    (see the module docstring), or None when a row or a token is not one
    the row loop would take."""
    b = np.frombuffer(buf, np.uint8)[: buf.rindex(b"\n") + 1]
    found = None if b"e" in buf or b"E" in buf else _plain_tokens(b, dim)
    if found is None:
        found = _tokens(b, buf, dim)
        if found is None:
            return None
    starts, ends, eend, fi, expo = found
    # Names are dropped once used, so that few per-token arrays are alive
    # at a time.
    del found
    first = b.take(starts)
    neg = first == 45
    s0 = starts + (neg | (first == 43))
    del starts, first
    length = eend - s0
    if len(length) and (length - (fi < _NO_DOT)).min() < 1:
        return None  # a significand with no digit
    fits = length <= 24
    scale = np.where(fi == _NO_DOT, 0, fi)
    if expo is not None:
        scale -= expo
    # The significand, its dot read as a 0 digit, from three windows.
    np.minimum(fi, _NO_DOT, out=fi)
    w = _windows(np.frombuffer(buf, "<u8"), eend, 3)
    del eend
    key = np.minimum(length, 24, out=length)
    key *= 25
    key += fi
    w &= _KEEP.take(key, axis=1)
    del key, length
    if _not_digits(w):
        return None
    _digits(w)
    fits &= w[0] <= 921  # then V < 9.22e18 < 2**63
    sig = w[0] * _U64(10**16)
    w[1] *= _U64(10**8)
    sig += w[1]
    sig += w[2]
    del w
    whole = np.floor_divide(sig, _DIV.take(fi))
    whole *= _NINE.take(fi)
    sig -= whole
    del whole, fi
    p = _P10.take(np.minimum(np.abs(scale), 22))
    fits &= scale <= 22
    if expo is not None:
        fits &= scale >= -22
    big = sig > 2**53
    x = sig.astype(np.float64)
    if expo is None:
        x /= p
    else:
        x = np.where(scale < 0, x * p, x / p)
        fits &= ~big | (scale >= 0)  # a large significand times 10**k goes to float()
    big &= fits
    near = np.flatnonzero(big)
    del big
    if len(near):
        x[near] = _dekker(sig, x, p, scale, near)
    # nan marks a token decided by float().
    x[~fits] = np.nan
    for k in np.flatnonzero(np.isnan(x)).tolist():
        try:
            x[k] = float(buf[s0[k]:ends[k]])
        except ValueError:
            return None
    np.negative(x, out=x, where=neg)
    return x


def _dekker(sig: np.ndarray, x: np.ndarray, p: np.ndarray, f: np.ndarray,
            near: np.ndarray) -> np.ndarray:
    """The correctly rounded sig / p, p = 10**f, at the indices near, where
    2**53 < sig < 2**63 and f <= 22, from x = fl(fl(sig) / p); nan where it
    is not proven."""
    x, p, f = x.take(near), p.take(near), f.take(near)
    hi = x * p
    xh = x * _SPLIT
    xh -= xh - x
    xl = x - xh
    ph, pl = _P10_HI.take(f), _P10_LO.take(f)
    del f
    lo = xh * ph
    lo -= hi
    xh *= pl
    lo += xh
    del xh
    ph *= xl
    lo += ph
    del ph
    xl *= pl
    lo += xl
    del xl, pl
    # hi + lo = x * p exactly, and hi is an integer, so the residual
    # sig - x * p is r = (sig - hi) - lo, rounded once.
    r = sig.take(near).view(np.int64)
    r -= hi.astype(np.int64)
    del hi
    r = r.astype(np.float64)
    r -= lo
    del lo
    x1 = r / p
    x1 += x
    x -= x1
    x *= p
    r += x
    del x
    # Accept x1 when |r| is below half its gap to the next float below,
    # the smaller of its two gaps, with a margin for the roundings of r.
    gap = x1 - (x1.view(np.int64) - 1).view(np.float64)
    gap *= p
    gap *= _HALF
    np.abs(r, out=r)
    x1[r >= gap] = np.nan
    return x1


def _parse_rows(text: str) -> PointSet:
    """Read any file of the format row by row; raise the ParseError of the
    first bad row."""
    dim: int | None = None
    rows: list[list[float]] = []
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
            raise ParseError(f"expected {dim} coordinates, got {len(parts)}", lineno)
        try:
            row = [float(tok) for tok in parts]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        for c in row:
            if not math.isfinite(c):
                raise ParseError(f"non-finite coordinate {c!r}", lineno)
        rows.append(row)
    if dim is None:
        raise ParseError("empty file: missing dimension line")
    if not rows:
        raise ParseError("no points in file")
    return PointSet(dim, rows)


def write_pointset(s: PointSet) -> bytes:
    """The point file of s: its dimension, then a line a point of its
    coordinates' ``repr`` parted by single spaces, so that
    parse_pointset(write_pointset(s)) has s's bits.

    Rows are laid out in blocks of at most _WRITE_BLOCK bytes (see the
    module docstring).  The tracemalloc peak is the larger of twice the
    file (its pieces and their join) and the file plus one block's
    temporaries, about 3 * _WRITE_BLOCK: 1.4 MB for the 720 KB file of a
    19,600-row lattice, 0.42 MB for a 96 KB file of 5,249 rows.
    """
    n, d = s.coords.shape
    head = b"%d\n" % d
    if sys.float_repr_style != "short":
        return head + _repr_rows(s.coords)
    step = max(1, _WRITE_BLOCK // (d * _WIDTH))
    pieces = [head]
    for i in range(0, n, step):
        pieces += _write_block(s.coords[i : i + step])
    return b"".join(pieces)


def _repr_rows(rows: np.ndarray) -> bytes:
    """The lines of rows, each coordinate by ``repr``."""
    return "".join(" ".join([repr(x) for x in row]) + "\n"
                   for row in rows.tolist()).encode("ascii")


# Blocks of 128 KB write a 5,249-row file of 1-D points in 1.06 ms, those
# of 64 KB in 1.32 ms; the file's peak is 425 and 271 KB.
_WRITE_BLOCK = 128 << 10
# The writer lays each coordinate out in _WIDTH bytes: a sign, the 0 of a
# whole part below 1, m's 17 digits, the point, three 0s, m's 17 digits
# again and a separator.
_COORD = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b" ", np.uint8)
_WIDTH = len(_COORD)
_WHOLE, _POINT_AT, _FRAC = 2, 19, 23


def _layout() -> np.ndarray:
    """_LAYOUT[(e + 4) * 18 + n]: the bytes kept of the field of a value of
    n digits and exponent e, as one item; the sign's byte is set apart."""
    e = np.arange(-4, 16)[:, None, None]
    n = np.arange(18)[None, :, None]
    at = np.arange(_WIDTH)[None, None, :]
    whole = (at >= _WHOLE) & (at <= _WHOLE + e)  # the first e + 1 digits
    zero = (at == _WHOLE - 1) & (e < 0)
    point = (at == _POINT_AT) | (at == _WIDTH - 1)  # and the separator
    zeros = (at >= _FRAC + e + 1) & (at < _FRAC)  # the -e - 1 zeros after the point
    frac = (at >= _FRAC + np.maximum(e + 1, 0)) & (at < _FRAC + np.maximum(n, e + 2))
    keep = whole | zero | point | zeros | frac
    return keep.reshape(-1, _WIDTH).view(f"V{_WIDTH}")[:, 0]


_LAYOUT = _layout()
_MANTISSA, _EXPONENT = np.int64(2**52 - 1), np.int64(0x7FF << 52)
_HALF_ULP = np.int64(53 << 52)  # ulp(x) / 2 is x's power of two over 2**53
# The margins, for the roundings of a distance, by which it must be inside
# or outside of the half width of the round-trip interval.
_INSIDE, _OUTSIDE = 1 - 2.0**-20, 1 + 2.0**-20
_ASCII = _U64(0x3030303030303030)


def _write_block(rows: np.ndarray) -> list:
    """The lines of rows, as bytes-like pieces to join: the digits of each
    coordinate from _shortest, and each row with a coordinate it leaves
    from _repr_rows."""
    r, d = rows.shape
    v = rows.ravel()
    m, e, ok = _shortest(np.abs(v))
    # m's digits: the first, then two words of eight.
    top = m // _U64(10**8)
    words = np.empty((2, len(m)), np.uint64)
    np.subtract(m, top * _U64(10**8), out=words[1])
    m //= _U64(10**16)
    np.subtract(top, m * _U64(10**8), out=words[0])
    del top
    _digit_words(words)
    # The number of digits less the trailing zeros, which are the zero
    # bytes atop a word; a float has the word's bit length, as no byte
    # exceeds 9.
    zeros = np.frexp(words.astype(np.float64))[1]
    np.subtract(64, zeros, out=zeros)
    zeros >>= 3
    e += 4
    e *= 18
    e += np.where(zeros[1] == 8, 9 - zeros[0], 17 - zeros[1])
    del zeros
    words |= _ASCII
    m |= 48  # the first digit's byte
    text = np.empty((len(v), _WIDTH), np.uint8)
    text[:] = _COORD
    text[d - 1 :: d, -1] = 10
    for at in (_WHOLE, _FRAC):
        text[:, at] = m
        text[:, at + 1 : at + 9].view("<u8")[:, 0] = words[0]
        text[:, at + 9 : at + 17].view("<u8")[:, 0] = words[1]
    del m, words
    keep = np.empty(text.shape, bool)
    # A value left to repr may have a key past the table; its row is dropped.
    keep.view(_LAYOUT.dtype)[:, 0] = _LAYOUT.take(e, mode="clip")
    keep[:, 0] = np.signbit(v)
    bad = np.flatnonzero(~_kernels.across_axes(np.logical_and, ok.reshape(r, d)))
    return _join_rows(text.reshape(r, -1), keep.reshape(r, -1), bad,
                      lambda i: _repr_rows(rows[i : i + 1]))


def _shortest(a: np.ndarray):
    """(m, e, ok) for each |x| in a, which is overwritten: where ok,
    repr(x) is the digits of m, 10**16 <= m < 10**17, less its trailing
    zeros, with exponent e (see the module docstring)."""
    bits = a.view(np.int64)
    ok = (bits & _MANTISSA) != 0
    ok &= a >= 1e-4
    ok &= a < 1e16
    np.copyto(a, 3.0, where=~ok)
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    k = 16 - e
    p = _P10.take(k)
    h = bits & _EXPONENT
    h -= _HALF_ULP
    h = h.view(np.float64)
    h *= p
    # Dekker's product: hi + lo = a * p exactly.
    hi = a * p
    ah = a * _SPLIT
    ah -= ah - a
    a -= ah
    ph, pl = _P10_HI.take(k), _P10_LO.take(k)
    del k, p
    lo = ah * ph
    lo -= hi
    ah *= pl
    lo += ah
    ph *= a
    lo += ph
    a *= pl
    lo += a
    del ah, ph, pl
    f = np.rint(lo)
    c = hi.astype(np.int64)
    c += f.astype(np.int64)
    lo -= f
    f = lo
    del hi, lo
    ok &= c >= 10**16  # else E is one too large
    # The multiples of 100 and of 10 nearest c + f, and their distances
    # from it (negative where c + f lies just below c, a multiple).
    hundreds = c // 100
    rem = c - hundreds * 100
    y = rem + f
    hundreds += y > 50
    hundreds *= 100
    d2 = np.abs(y - 50)
    np.subtract(50, d2, out=d2)
    rem -= rem // 10 * 10
    np.add(rem, f, out=y)
    tens = c - rem
    tens += (y > 5) * 10
    del rem
    d1 = np.abs(y - 5)
    np.subtract(5, d1, out=d1)
    inside = h * _INSIDE
    h *= _OUTSIDE
    in2, in1 = d2 < inside, d1 < inside
    ok &= in2 | (d2 > h)
    ok &= in1 | (d1 > h)
    del d1, d2, inside, h
    # A tie between two multiples of 10, or of 1, where no shorter one is
    # inside.
    ok &= in2 | ~in1 | (y != 5)
    np.abs(f, out=f)
    ok &= in1 | (f != 0.5)
    del y, f
    np.copyto(c, tens, where=in1)
    np.copyto(c, hundreds, where=in2)
    ok &= c < 10**17  # else E is one too small, or m is 10**17
    return c.view(np.uint64), e, ok


_SVG_W = 640
_SVG_MARGIN = 40.0
# One dot per line.  The block writer lays each line out as the grey
# template with both numbers in fields of _FIELD bytes, right-aligned.
_DOT = ('<circle cx="%.3f" cy="%.3f" r="2.5" fill="#888888"/>\n',
        '<circle cx="%.3f" cy="%.3f" r="5" fill="black"/>\n')
_FIELD = 10
_HEAD, _MID, _TAIL = (part.encode("ascii") for part in _DOT[0].split("%.3f"))
_BIG_TAIL = np.frombuffer(_DOT[1].split("%.3f")[2].encode("ascii"), dtype=np.uint8)
_ROW = np.frombuffer(_HEAD + b"." * _FIELD + _MID + b"." * _FIELD + _TAIL, dtype=np.uint8)
_X = len(_HEAD)
_Y = _X + _FIELD + len(_MID)
_T = _Y + _FIELD
_BLOCK_ROWS = 4096
# Below 1e9 thousandths a whole part has at most 6 digits.
_T_MAX = 1e9
# The field's first five bytes are kept from the place where m, in
# thousandths, has its first digit.
_PLACES = _P10[8:3:-1]
# The point, as byte 5 of the word that holds a field's bytes 1 to 8.
_POINT = _U64(ord(".") << 40)
_LOW5 = _U64(2**40 - 1)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _fixed3(v: np.ndarray, text: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write the '%.3f' text of each value of v into the rows of text, an
    (n, _FIELD) uint8 array, right-aligned; clear the bytes of keep, of
    the same shape and all set, that it does not use.  Return the mask of
    the values written.

    Written are the values with no sign bit whose product t = v*1000 rounds
    to below 1e9 and is not a half-integer (see the module docstring).  The
    others (negatives and -0.0, values of about 1e6 and up, nan, inf,
    ties) are left to Python's '%.3f'; their rows hold no text.
    """
    t = v * 1000.0
    m = np.rint(t)
    with np.errstate(invalid="ignore"):
        ok = ~np.signbit(v) & (m < _T_MAX) & (np.abs(t - m) < 0.5)
    np.copyto(m, 0.0, where=~ok)
    np.greater_equal(m[:, None], _PLACES, out=keep[:, :5])
    # m's nine digits: its first, then a word of eight, with the point
    # put before the last three.
    w = m.astype(np.uint64)
    first = w // _U64(10**8)
    w -= first * _U64(10**8)
    first |= 48
    text[:, 0] = first
    _digit_words(w)
    w |= _ASCII
    text[:, 9] = w >> _U64(56)
    high = w >> _U64(40)
    high <<= _U64(48)
    w &= _LOW5
    w |= high
    w |= _POINT
    text[:, 1:9].view("<u8")[:, 0] = w
    return ok


def _dot_rows(cxs: np.ndarray, cys: np.ndarray, big: np.ndarray) -> list:
    """The dot lines of rows cxs, cys (one block), as bytes-like pieces to
    join, each line as _DOT writes it: grey dots, black where big is set.
    A row with a value _fixed3 leaves to Python is formatted by the
    template itself."""
    n = len(cxs)
    text = np.tile(_ROW, (n, 1))
    keep = np.ones(text.shape, dtype=bool)
    ok = _fixed3(cxs, text[:, _X : _X + _FIELD], keep[:, _X : _X + _FIELD])
    ok &= _fixed3(cys, text[:, _Y:_T], keep[:, _Y:_T])
    text[big, _T : _T + len(_BIG_TAIL)] = _BIG_TAIL
    keep[big, _T + len(_BIG_TAIL) :] = False
    return _join_rows(text, keep, np.flatnonzero(~ok), lambda r: (
        _DOT[int(big[r])] % (float(cxs[r]), float(cys[r]))).encode("ascii"))


def _join_rows(text: np.ndarray, keep: np.ndarray, fallback: np.ndarray, line) -> list:
    """The kept bytes of text's rows, as bytes-like pieces to join, with
    line(r) in place of each row r of fallback."""
    keep[fallback] = False
    blob = text[keep]
    if not fallback.size:
        return [blob]
    # A fallback row keeps no bytes: the blob's rows before it end where
    # its own line goes.
    at = np.cumsum(keep.sum(axis=1)).tolist()
    pieces, prev = [], 0
    for r in fallback.tolist():
        pieces += [blob[prev : at[r]], line(r)]
        prev = at[r]
    pieces.append(blob[prev:])
    return pieces


def emit_svg(
    s: PointSet,
    highlight: Optional[Iterable[int]] = None,
    anchors: Optional[Sequence[Sequence[float]]] = None,
) -> bytes:
    """Deterministic SVG figure: the set as dots, a found subset as filled
    markers, exact anchors as open markers (1-D: tick bars on an axis).

    The points and anchors are first scaled by one power of two into the
    unit range (``_kernels._to_unit``), and their offsets from the frame's
    corner by another into [0, 1]; both scalings are exact, so the figure
    of a set scaled by 2**k is the same, and no length overflows.  Raises
    InvalidArgument for a highlight that is not an index in 0..n-1, and
    for an anchor coordinate that is not finite."""
    if s.dim > 2:
        raise InvalidArgument("SVG emission supports dim 1 and 2 only")
    n, d = s.coords.shape
    marked = [check_whole(i, 0, "highlight index", f"highlight index {i} is outside 0..{n - 1}",
                          most=n - 1) for i in highlight] if highlight is not None else []
    anchor_pts = list(anchors) if anchors is not None else []
    if any(_width(a) != d for a in anchor_pts):
        raise DimensionMismatch(f"anchors must have the set's dimension {d}")
    rows = np.array([[check_real(v, "(-inf, inf)", "anchors must be finite") for v in a]
                     for a in anchor_pts], dtype=np.float64).reshape(-1, d)
    unit, _ = _kernels._to_unit(np.concatenate([s.coords, rows]))
    off, _ = _kernels._to_unit(unit - _kernels.per_axis(np.minimum, unit))
    span = float(off.max()) or 1.0  # with no extent every offset is 0
    height = _SVG_W if d == 2 else 120
    scale = (_SVG_W - 2 * _SVG_MARGIN) / span
    # Points, then anchors.
    cxs = _SVG_MARGIN + off[:, 0] * scale
    if d == 2:
        cys = height - _SVG_MARGIN - off[:, 1] * scale
    else:
        cys = np.full(len(off), height / 2.0)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{height}" viewBox="0 0 {_SVG_W} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if d == 1:
        mid = height / 2.0
        out.append(
            f'<line x1="{_fmt(_SVG_MARGIN / 2)}" y1="{_fmt(mid)}" '
            f'x2="{_fmt(_SVG_W - _SVG_MARGIN / 2)}" y2="{_fmt(mid)}" '
            'stroke="black" stroke-width="1"/>'
        )
        for cx in cxs[n:].tolist():
            x = _fmt(cx)
            out.append(
                f'<line x1="{x}" y1="{_fmt(mid - 14)}" x2="{x}" y2="{_fmt(mid + 14)}" '
                'stroke="black" stroke-width="3"/>'
            )
    else:
        for cx, cy in zip(cxs[n:].tolist(), cys[n:].tolist()):
            out.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="7" '
                'fill="none" stroke="black" stroke-width="1.5"/>'
            )
    big = np.zeros(n, dtype=bool)
    big[marked] = True
    pieces = [("\n".join(out) + "\n").encode("ascii")]
    for i in range(0, n, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, n)
        pieces += _dot_rows(cxs[i:j], cys[i:j], big[i:j])
    pieces.append(b"</svg>\n")
    return b"".join(pieces)
