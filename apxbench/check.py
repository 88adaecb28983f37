"""The benchmark's own output checker.

It re-derives every claim a CLI answer makes with its own arithmetic and
never calls the library's verifier: a search witness must put each chosen
input point within eps * scale * min_pairwise of its image, a collinear
subset must have every triangle's two smaller angles within eps, and
known answers must come back as known.  A request fails if any of its
calls fails a check.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

# The library accepts a deviation up to eps + 1e-9; allow that plus
# rounding of the witness itself.
REL_TOL = 2e-9
ANGLE_TOL = 1e-12


def read_points(path: str) -> tuple[int, list[tuple[float, ...]]]:
    """Parse a point-set file: '#' comments, a dimension line, then rows."""
    dim = None
    rows = []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if dim is None:
                dim = int(line)
                continue
            rows.append(tuple(float(t) for t in line.split()))
    return dim, rows


def min_pairwise(pattern) -> float:
    return min(math.dist(a, b) for a, b in combinations(pattern, 2))


def witness_fits(points, subset, pattern, anchor, scale, eps) -> bool:
    """True iff points[subset[j]] lies within eps * scale * m_P of
    anchor + scale * pattern[j] for every j."""
    if not scale > 0.0:
        return False
    limit = (eps + REL_TOL) * scale * min_pairwise(pattern)
    for idx, p in zip(subset, pattern, strict=True):
        image = [a + scale * x for a, x in zip(anchor, p, strict=True)]
        if math.dist(points[idx], image) > limit:
            return False
    return True


def _angles(a, b, c) -> list[float]:
    def at(x, y, z):
        ux, uy = y[0] - x[0], y[1] - x[1]
        vx, vy = z[0] - x[0], z[1] - x[1]
        return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)

    return [at(a, b, c), at(b, a, c), at(c, a, b)]


def collinear_ok(points, subset, eps) -> bool:
    """Every triangle of the subset has its two smallest angles <= eps."""
    for i, j, l in combinations(subset, 3):
        if sorted(_angles(points[i], points[j], points[l]))[1] > eps + ANGLE_TOL:
            return False
    return True


def unit_grid(k: int, dim: int = 2) -> list[tuple[float, ...]]:
    """{0..k-1}^dim in lexicographic order, the order search_grid lists its subset in."""
    if dim == 1:
        return [(float(i),) for i in range(k)]
    return [(float(i), float(j)) for i in range(k) for j in range(k)]


def _subset_ok(subset, n, size) -> bool:
    return (len(subset) == size and len(set(subset)) == size
            and all(isinstance(i, int) and 0 <= i < n for i in subset))


def _svg_ok(svg: bytes | None, circles: int) -> bool:
    return (svg is not None and svg.startswith(b"<?xml") and svg.endswith(b"</svg>\n")
            and svg.count(b"<circle ") == circles)


def check_call(call, rc: int, stdout: str, svg: bytes | None, ctx: dict) -> str | None:
    """Check one CLI call; returns None if it passes, else the reason."""
    exp = call.expect
    if exp == "generated":
        p = call.params
        if rc != 0:
            return f"generate exited {rc}"
        dim, pts = read_points(p["path"])
        xs = sorted(x for (x,) in pts)
        if dim != 1 or len(xs) != p["count"]:
            return "generated file has the wrong shape"
        if xs[0] < 0.0 or xs[-1] >= p["length"]:
            return "generated point outside [0, L)"
        if any(b - a < p["delta"] for a, b in zip(xs, xs[1:])):
            return "generated set is not delta-separated"
        ctx["points"] = pts
        return None

    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object"
    points = call.points if call.points is not None else ctx.get("points")

    if exp in ("grid-found", "ap-found"):
        if rc != 0 or not out.get("found"):
            return f"known-found instance reported not found (exit {rc})"
        dim = len(points[0])
        pattern = unit_grid(call.k, dim)
        if not _subset_ok(out["subset"], len(points), len(pattern)):
            return "subset has the wrong size or bad indices"
        v = out["verify"]
        if not v["accepted"]:
            return "certificate not accepted"
        if not witness_fits(points, out["subset"], pattern, v["witness_anchor"],
                            v["witness_scale"], call.eps):
            return "witness does not cover the chosen points"
        if exp == "ap-found" and len(out["trace"]) > call.params["max_steps"]:
            return "threshold instance needed more than j steps"
        if call.svg is not None:
            extra = len(pattern) if dim == 2 else 0
            if not _svg_ok(svg, len(points) + extra):
                return "SVG is malformed or misses points"
        return None

    if exp == "verify-accept":
        if rc != 0 or out["accepted"] is not True:
            return f"near-exact candidate rejected (exit {rc})"
        pattern = unit_grid(call.k)
        if not witness_fits(points, range(len(points)), pattern, out["witness_anchor"],
                            out["witness_scale"], call.eps):
            return "witness does not cover the candidate"
        return None
    if exp == "verify-reject":
        if rc != 1 or out["accepted"] is not False:
            return f"stretched candidate accepted (exit {rc})"
        return None

    if exp in ("collinear-found", "collinear-any"):
        if not out["found"]:
            if exp == "collinear-found" or rc != 1:
                return f"collinear search not found (exit {rc})"
            return None
        if rc != 0 or not out["certificate"]["accepted"]:
            return "found subset without an accepted certificate"
        if not _subset_ok(out["subset"], len(points), call.k):
            return "subset has the wrong size or bad indices"
        if not collinear_ok(points, out["subset"], call.eps):
            return "subset is not eps-collinear"
        return None
    raise ValueError(f"unknown expectation {exp!r}")
