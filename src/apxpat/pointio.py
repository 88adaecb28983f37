"""Point-set file codec and SVG figure emission.

File format: '#' lines are comments; the first data line is the dimension
d; every following data line holds d space-separated decimals.  Parsing
collects every coordinate token and converts them all at once into the
set's (n, d) float64 array; numpy converts each token as Python's
``float`` does, and a malformed or non-finite token is reported with its
line.  Writing prints each coordinate's shortest round-trip ``repr``, so
parse(write(S)) reproduces the coordinates exactly.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParseError
from .geometry import PointSet

__all__ = ["parse_pointset", "write_pointset", "emit_svg"]


def parse_pointset(data: bytes | str) -> PointSet:
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not 7-bit text: {exc}") from None
    else:
        text = data
    dim: int | None = None
    tokens: list[str] = []
    lines: list[int] = []  # line number of each data row
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
            _reject_bad_row(tokens, lines, dim)
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
        _reject_bad_row(tokens, lines, dim)
        raise
    if not np.isfinite(coords).all():
        _reject_bad_row(tokens, lines, dim)
    return PointSet(dim, coords)


def _reject_bad_row(tokens: list[str], lines: list[int], dim: int) -> None:
    """Raise the ParseError of the first row holding a token that is not a
    decimal or not finite.  Each row's tokens are converted before its
    values are checked, so a malformed token wins over a non-finite one."""
    for r, lineno in enumerate(lines):
        try:
            row = [float(tok) for tok in tokens[r * dim : (r + 1) * dim]]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        for c in row:
            if not math.isfinite(c):
                raise ParseError(f"non-finite coordinate {c!r}", lineno)


def write_pointset(s: PointSet, comment: str | None = None) -> bytes:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(str(s.dim))
    for row in s.coords.tolist():
        lines.append(" ".join(map(repr, row)))
    return ("\n".join(lines) + "\n").encode("ascii")


_SVG_W = 640
_SVG_MARGIN = 40.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def emit_svg(
    s: PointSet,
    highlight: Optional[Iterable[int]] = None,
    anchors: Optional[Sequence[Sequence[float]]] = None,
) -> bytes:
    """Deterministic SVG figure: the set as dots, a found subset as filled
    markers, exact anchors as open markers (1-D: tick bars on an axis)."""
    if s.dim > 2:
        raise ValueError("SVG emission supports dim 1 and 2 only")
    hi_set = set(int(i) for i in highlight) if highlight else set()
    anchor_pts = list(anchors) if anchors else []
    xy = s.coords

    xs = [float(xy[:, 0].min()), float(xy[:, 0].max())] + [a[0] for a in anchor_pts]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    if s.dim == 2:
        ys = [float(xy[:, 1].min()), float(xy[:, 1].max())] + [a[1] for a in anchor_pts]
        y_lo, y_hi = min(ys), max(ys)
        y_span = (y_hi - y_lo) or 1.0
        span = max(x_span, y_span)
        height = _SVG_W
    else:
        span = x_span
        height = 120

    inner = _SVG_W - 2 * _SVG_MARGIN
    scale = inner / span

    def sx(v: float) -> float:
        return _SVG_MARGIN + (v - x_lo) * scale

    def sy(v: float) -> float:
        if s.dim == 1:
            return height / 2.0
        return height - _SVG_MARGIN - (v - y_lo) * scale

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{height}" viewBox="0 0 {_SVG_W} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if s.dim == 1:
        mid = height / 2.0
        out.append(
            f'<line x1="{_fmt(_SVG_MARGIN / 2)}" y1="{_fmt(mid)}" '
            f'x2="{_fmt(_SVG_W - _SVG_MARGIN / 2)}" y2="{_fmt(mid)}" '
            'stroke="black" stroke-width="1"/>'
        )
        for a in anchor_pts:
            x = _fmt(sx(a[0]))
            out.append(
                f'<line x1="{x}" y1="{_fmt(mid - 14)}" x2="{x}" y2="{_fmt(mid + 14)}" '
                'stroke="black" stroke-width="3"/>'
            )
    else:
        for a in anchor_pts:
            out.append(
                f'<circle cx="{_fmt(sx(a[0]))}" cy="{_fmt(sy(a[1]))}" r="7" '
                'fill="none" stroke="black" stroke-width="1.5"/>'
            )
    # The dots in one array pass, with sx's and sy's operations in their
    # order, so every coordinate has the same bits as theirs.
    cxs = _SVG_MARGIN + (xy[:, 0] - x_lo) * scale
    if s.dim == 2:
        cys = height - _SVG_MARGIN - (xy[:, 1] - y_lo) * scale
    else:
        cys = np.full(len(s), height / 2.0)
    out.extend(
        f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="black"/>'
        if i in hi_set
        else f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#888888"/>'
        for i, (x, y) in enumerate(zip(cxs.tolist(), cys.tolist()))
    )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("ascii")
