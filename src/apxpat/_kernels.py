"""Geometric kernels: the splitmix64 stream, dart throwing, the separation
audit, cell binning and pairwise scans.

Callers look kernels up as ``_kernels.<name>(...)`` at call time rather
than importing the names, so replacing an attribute of this module
replaces it for every caller.

``BACKEND = "pure-python"`` means no compiled extension: the kernels are
written in Python and numpy.
"""

import math

import numpy as np

BACKEND = "pure-python"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO53 = 2.0**-53


def splitmix64_next(state):
    """Advance a splitmix64 state; returns (new_state, 64-bit output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return state, z


def unit_from_bits(z):
    """Map a 64-bit word to [0, 1) by filling the 53-bit mantissa."""
    return (z >> 11) * _TO53


def _neighbor_offsets(dim, rings):
    """All integer offset vectors in [-rings, rings]^dim, zero vector first."""
    span = range(-rings, rings + 1)
    offs = [()]
    for _ in range(dim):
        offs = [o + (v,) for o in offs for v in span]
    offs.sort(key=lambda o: (o != (0,) * dim, o))
    return offs


def _any_closer(stored, count, dim, q, limit2):
    """True iff one of the first count points of stored (row-major) has
    squared distance below limit2 from q."""
    for b in range(0, count * dim, dim):
        d2 = 0.0
        for a in range(dim):
            t = stored[b + a] - q[a]
            d2 += t * t
        if d2 < limit2:
            return True
    return False


def dart_throw(dim, length, delta, target, seed, max_attempts):
    """Sequential dart throwing in [0, length)^dim with minimum distance delta.

    Returns (flat_coords, attempts) where flat_coords holds the accepted
    points row-major in acceptance order.  Stops when target points were
    accepted or max_attempts candidates were drawn.

    Candidates are checked against the accepted points in the neighbouring
    grid cells, or against all accepted points when there are fewer of
    those than neighbour offsets ((2*rings+1)^dim grows past 10^9 at
    dim=10).  Both give the same decisions.
    """
    cell = delta * (1.0 - 1e-9) / math.sqrt(dim)
    rings = int(delta / cell) + 1
    direct = (2 * rings + 1) ** dim > target
    ncells = int(length / cell) + 2
    base = ncells + 2 * rings
    offsets = () if direct else _neighbor_offsets(dim, rings)
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
            cand.append(unit_from_bits(z) * length)
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


def has_close_pair(flat, dim, threshold):
    """True iff some pair of points lies strictly closer than threshold.

    ``flat`` holds the points row-major, as a list or a 1-D float array.
    Grid hash with cell side threshold/sqrt(dim): each point gets a linear
    key of its home cell, the keys are sorted once, and for each of the
    lexicographically positive neighbour offsets (and the offset zero) the
    points in the offset cell are found by ``searchsorted``.  Keys are
    formed in wrapping uint64 arithmetic, which is linear, so the key of a
    neighbour cell is always the point's key plus the offset's key; a wrap
    or collision only adds candidate pairs, and every candidate is
    confirmed by its own distance, so no pair is ever missed.  With fewer
    points than neighbour offsets, each point is compared with all earlier
    points instead.  Both give the same answer as the naive scan.
    """
    n = len(flat) // dim
    if n < 2:
        return False
    if threshold <= 0.0:
        return False
    pts = np.asarray(flat, dtype=float)[: n * dim].reshape(n, dim)
    cell = threshold * (1.0 - 1e-9) / math.sqrt(dim)
    rings = int(threshold / cell) + 1
    thr2 = threshold * threshold
    if (2 * rings + 1) ** dim > n:
        by_axis = pts.T.copy()
        for i in range(1, n):
            d2 = np.zeros(i)
            for a in range(dim):
                t = by_axis[a, :i] - by_axis[a, i]
                d2 += t * t
            if (d2 < thr2).any():
                return True
        return False
    # Clipping keeps the cast to uint64 defined; it can only merge far
    # cells, never separate near ones.
    with np.errstate(over="ignore"):
        home = np.minimum(np.floor((pts - pts.min(axis=0)) / cell), 2.0**63)
    # An odd base keeps base**a from vanishing mod 2**64, which would drop
    # whole axes from the key.
    base = (int(home.max()) + 2 + 2 * rings) | 1
    home = home.astype(np.uint64)
    keys = np.zeros(n, dtype=np.uint64)
    ubase = np.uint64(base & _MASK64)
    for a in range(dim):
        keys = keys * ubase + home[:, a]
    order = np.argsort(keys)
    pts = pts[order]
    keys = keys[order]
    # Pairs sharing a key: each point against the later points of its run.
    run_end = np.searchsorted(keys, keys[:-1], "right")
    if _close_in_ranges(pts, np.arange(1, n), run_end, thr2):
        return True
    zero = (0,) * dim
    for off in _neighbor_offsets(dim, rings):
        if off <= zero:
            continue
        shift = 0
        for a in range(dim):
            shift = shift * base + off[a]
        target = keys + np.uint64(shift & _MASK64)
        first = np.searchsorted(keys, target, "left")
        stop = np.searchsorted(keys, target, "right")
        if _close_in_ranges(pts, first, stop, thr2):
            return True
    return False


def _close_in_ranges(pts, first, stop, thr2):
    """True iff some point i lies strictly closer than sqrt(thr2) to another
    point with index in [first[i], stop[i]).  Walks the ranges one column
    at a time, so memory stays O(n) however many points share a range."""
    rows = np.flatnonzero(stop > first)
    cols = first[rows]
    while len(rows):
        d2 = np.zeros(len(rows))
        for a in range(pts.shape[1]):
            t = pts[cols, a] - pts[rows, a]
            d2 += t * t
        # A wrapped offset key can point a range back at the point itself.
        if ((d2 < thr2) & (rows != cols)).any():
            return True
        cols = cols + 1
        keep = cols < stop[rows]
        rows, cols = rows[keep], cols[keep]
    return False


def bin_cells(flat, dim, lo, width, ncells):
    """Per-point cell multi-indices of an axis-aligned subdivision.

    Returns an (n, dim) int64 array whose row i holds, per axis,
    floor((x - lo)/width) clamped to [0, ncells).  The clamp gives the
    half-closed subdivision semantics (right face of the parent box folds
    into the last cell).  This is the one binning routine: the subdivision
    search calls it once per step at every dimension, and its residue scan
    works on these rows, so no array of ncells^dim counts is ever formed.
    """
    pts = np.asarray(flat, dtype=float).reshape(-1, dim)
    cells = np.floor((pts - np.asarray(lo, dtype=float)) / width).astype(np.int64)
    return np.clip(cells, 0, ncells - 1, out=cells)


def min_pairwise_sq(flat, dim):
    """Minimum squared pairwise distance (naive scan; callers keep n small)."""
    n = len(flat) // dim
    if n < 2:
        raise ValueError("need at least two points")
    best = math.inf
    for i in range(n):
        bi = i * dim
        for j in range(i + 1, n):
            bj = j * dim
            d2 = 0.0
            for a in range(dim):
                t = flat[bi + a] - flat[bj + a]
                d2 += t * t
            if d2 < best:
                best = d2
    return best


def max_pairwise_sq(flat, dim):
    """Maximum squared pairwise distance (naive scan)."""
    n = len(flat) // dim
    if n < 2:
        raise ValueError("need at least two points")
    best = 0.0
    for i in range(n):
        bi = i * dim
        for j in range(i + 1, n):
            bj = j * dim
            d2 = 0.0
            for a in range(dim):
                t = flat[bi + a] - flat[bj + a]
                d2 += t * t
            if d2 > best:
                best = d2
    return best
