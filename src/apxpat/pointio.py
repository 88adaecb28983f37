"""Point-set file codec and SVG figure emission.

File format: '#' lines are comments; the first data line is the dimension
d; every following data line holds d space-separated decimals.  A file of
only digits, signs, '.', 'e', 'E', spaces, tabs and line ends, such as
every file ``write_pointset`` makes, is read by numpy's C text reader,
which checks each row's column count and converts each field with the
converter behind Python's ``float``.  Any other file, and any file that
reader refuses or reads to a wrong shape or a non-finite value, goes
through the row loop: it skips comments and blank lines, takes every
token ``float`` takes, and reports the first bad row with its line (an
arity error before a bad token, a malformed token before a non-finite
one).  Both give the same bits.  Writing prints each coordinate's
shortest round-trip ``repr``, so parse(write(S)) reproduces the
coordinates exactly; one ``%r`` template formats the whole file.

SVG dots are written in blocks of rows through a numpy fixed-point
formatter that gives the bytes of Python's ``'%.3f'``.  That format rounds
the exact value 1000*v of the double v to an integer, ties to even.  The
float product t = v*1000 is 1000*v rounded, and rounding is monotonic:
as every half-integer below 2**52 is a float, t lies on the same side of
each of them as 1000*v, or on it.  So where t is not a half-integer,
m = rint(t) is the integer nearest to 1000*v, and its digits with a point
before the last three are the text; t - m is exact, so the test is
|t - m| < 0.5.  Every other value (t a half-integer, negatives and -0.0,
values that round to 1e6 or more, nan and inf) is formatted by Python's
``'%.3f'`` itself.

The figure's frame is free of the input's scale: points and anchors are
scaled into the unit range by a power of two before any length is taken.
"""

from __future__ import annotations

import contextlib
import io
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .bounds import check_real, check_whole
from .errors import DimensionMismatch, InvalidArgument, ParseError
from .geometry import PointSet, _width

__all__ = ["parse_pointset", "write_pointset", "emit_svg"]

# The only bytes of a file numpy's C reader is given; any other byte sends
# the file to the row loop.
_BULK_BYTES = b"0123456789+-.eE \t\r\n"


def parse_pointset(data: bytes | str) -> PointSet:
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not 7-bit text: {exc}") from None
    else:
        # A character past ASCII becomes '?', which sends the text to the loop.
        text, data = data, data.encode("ascii", "replace")
    # With no '#' in the file, the first non-blank line is the dimension's.
    head, _, body = text.lstrip().partition("\n")
    if not data.translate(None, _BULK_BYTES) and body and not body.isspace():
        with contextlib.suppress(ValueError):
            dim = int(head)
            coords = np.loadtxt(io.StringIO(body), dtype=np.float64, ndmin=2, comments=None)
            # Rows hold at least one column, so a match proves dim >= 1.
            if coords.shape[1] == dim and np.isfinite(coords).all():
                return PointSet(dim, coords)
    return _parse_rows(text)


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
    n, d = s.coords.shape
    rows = (b"%r " * (d - 1) + b"%r\n") * n
    return b"%d\n" % d + rows % tuple(s.coords.ravel().tolist())


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
# "000" .. "999" as 3-byte items; item k of _LEAD keeps the last k + 5
# bytes of a field: a whole part of k + 1 digits, the point and three
# decimals.  Fields take them through views as one item per row.
_GROUPS = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), dtype="V3")
_LEAD = (np.arange(_FIELD) >= _FIELD - 5 - np.arange(6)[:, None]).view(f"V{_FIELD}")[:, 0]
_TENS = 10 ** np.arange(1, 6)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _fixed3(v: np.ndarray, text: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write the '%.3f' text of each value of v into the rows of text, an
    (n, _FIELD) uint8 array, right-aligned; set keep, of the same shape,
    to the bytes in use.  Return the mask of the values written.

    Written are the values with no sign bit whose product t = v*1000 rounds
    to below 1e9 and is not a half-integer (see the module docstring).  The
    others (negatives and -0.0, values of about 1e6 and up, nan, inf,
    ties) are left to Python's '%.3f'; their rows hold no text.
    """
    t = v * 1000.0
    m = np.rint(t)
    with np.errstate(invalid="ignore"):
        ok = ~np.signbit(v) & (m < _T_MAX) & (np.abs(t - m) < 0.5)
    whole, frac = np.divmod(np.where(ok, m, 0.0).astype(np.int64), 1000)
    high, low = np.divmod(whole, 1000)
    text[:, 0:3].view("V3")[:, 0] = _GROUPS.take(high)
    text[:, 3:6].view("V3")[:, 0] = _GROUPS.take(low)
    text[:, 6] = ord(".")
    text[:, 7:].view("V3")[:, 0] = _GROUPS.take(frac)
    keep.view(_LEAD.dtype)[:, 0] = _LEAD.take(np.searchsorted(_TENS, whole, side="right"))
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
    fallback = np.flatnonzero(~ok)
    keep[fallback] = False
    blob = text[keep]
    if not fallback.size:
        return [blob]
    # A fallback row keeps no bytes: the blob's rows before it end where
    # its own line goes.
    at = np.cumsum(keep.sum(axis=1)).tolist()
    pieces, prev = [], 0
    for r in fallback.tolist():
        pieces += [blob[prev : at[r]],
                   (_DOT[int(big[r])] % (float(cxs[r]), float(cys[r]))).encode("ascii")]
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
