"""Geometric kernels: the splitmix64 stream, dart throwing, the separation
audit, cell binning and the pair scan.

Callers look kernels up as ``_kernels.<name>(...)`` at call time rather
than importing the names, so replacing an attribute of this module
replaces it for every caller.

``BACKEND = "pure-python"`` means no compiled extension: the kernels are
written in Python and numpy.

splitmix64 (Steele, Lea and Flood, 2014) is counter-based: its m-th state
is seed + m*gamma mod 2^64, and each output is a fixed mix of one state.
``splitmix64_block`` therefore draws any run of the stream as one numpy
uint64 array, with the same bits as stepping it one word at a time; it is
the only code that knows the stream.
"""

import math

import numpy as np

BACKEND = "pure-python"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO53 = 2.0**-53
# Candidate rows per stream block in dart_throw: enough to amortise the
# numpy draw, few enough that the words past the stopping attempt are cheap.
_BLOCK_ROWS = 1024


def splitmix64_block(state, count):
    """The next count outputs of the splitmix64 stream at state, as a uint64
    array, and the state after them.  Any int is a state: it is taken
    mod 2^64.  Chained blocks give the same words as one longer block."""
    state = int(state) & _MASK64
    z = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA + np.uint64(state)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return z, (state + count * int(_GAMMA)) & _MASK64


def unit_from_bits(z):
    """Map 64-bit words (an int or a uint64 array) to [0, 1) by filling the
    53-bit mantissa."""
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
    points row-major in acceptance order.  Stops at the attempt that
    accepts the target-th point, or after max_attempts candidates.

    Candidates are rows of dim consecutive stream words, drawn in blocks of
    rows; the words a run stops short of are never used.  Each is checked
    against the accepted points in the neighbouring grid cells, or against
    all accepted points when there are fewer of those than neighbour
    offsets ((2*rings+1)^dim grows past 10^9 at dim=10).  Both give the
    same decisions.  Cell keys are linear in the cell index, so a
    neighbour's key is the candidate's key plus the offset's.
    """
    cell = delta * (1.0 - 1e-9) / math.sqrt(dim)
    span = length / cell
    if not math.isfinite(span):
        raise ValueError(f"length {length:g} spans too many cells of delta {delta:g}")
    rings = int(delta / cell) + 1
    direct = (2 * rings + 1) ** dim > target
    base = int(span) + 2 + 2 * rings
    off_keys = [] if direct else [_linear_key([o + rings for o in off], base)
                                  for off in _neighbor_offsets(dim, rings)]
    grid = {}
    accepted = []
    delta2 = delta * delta
    state = seed
    n = 0
    attempts = 0
    while n < target and attempts < max_attempts:
        rows = min(_BLOCK_ROWS, max_attempts - attempts)
        words, state = splitmix64_block(state, rows * dim)
        for cand in (unit_from_bits(words) * length).reshape(rows, dim).tolist():
            attempts += 1
            if direct:
                ok = not _any_closer(accepted, n, dim, cand, delta2)
            else:
                key = _linear_key([int(c / cell) for c in cand], base)
                ok = True
                for off in off_keys:
                    idx = grid.get(key + off)
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
                    grid[key + off_keys[0]] = n
            if ok:
                accepted.extend(cand)
                n += 1
                if n == target:
                    break
    return accepted, attempts


def _linear_key(index, base):
    """The base-`base` number whose digits are index, most significant first."""
    key = 0
    for v in index:
        key = key * base + v
    return key


def has_close_pair(flat, dim, threshold):
    """True iff some pair of points lies strictly closer than threshold.

    ``flat`` holds the points row-major, as a list or a 1-D float array.
    Grid hash with cell side 2*threshold: two points closer than threshold
    differ by less than half a cell on every axis, so their home cells are
    neighbours in the one ring of 3^dim offsets, with half a cell to spare
    for rounding.  Each point gets a linear key of its home cell, the keys
    are sorted once, and for the offset zero and each of the (3^dim - 1)/2
    lexicographically positive offsets the points in the offset cell are
    found by ``searchsorted``.  Keys are formed in wrapping uint64
    arithmetic, which is linear, so the key of a neighbour cell is always
    the point's key plus the offset's key; a wrap or collision only adds
    candidate pairs, and every candidate is confirmed by its own distance,
    so no pair is ever missed.  With fewer points than the 3^dim offsets,
    the pair scan compares each point with all earlier points instead.
    Both give the same answer as the naive scan.
    """
    n = len(flat) // dim
    if n < 2:
        return False
    if threshold <= 0.0:
        return False
    pts = np.asarray(flat, dtype=float)[: n * dim].reshape(n, dim)
    cell = 2.0 * threshold
    thr2 = threshold * threshold
    if 3**dim > n:
        return pair_sq_extremes(pts)[0] < thr2
    # Clipping keeps the cast to uint64 defined; it can only merge far
    # cells, never separate near ones.
    with np.errstate(over="ignore"):
        home = np.minimum(np.floor((pts - pts.min(axis=0)) / cell), 2.0**63)
    # An odd base keeps base**a from vanishing mod 2**64, which would drop
    # whole axes from the key.
    base = (int(home.max()) + 4) | 1
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
    for off in _neighbor_offsets(dim, 1):
        if off <= zero:
            continue
        target = keys + np.uint64(_linear_key(off, base) & _MASK64)
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


def pair_sq_extremes(rows):
    """(min, max) squared distance over the pairs of rows of an (n, d) array.

    One scan compares each row with all earlier rows.  Every distance is
    summed axis by axis in a fixed order, as a scalar loop sums it, so both
    extremes are bit for bit the naive double loop's.
    """
    n, dim = rows.shape
    if n < 2:
        raise ValueError("need at least two points")
    by_axis = rows.T.copy()
    lo, hi = math.inf, 0.0
    # A difference of two finite floats may square past the float range;
    # like the scalar loop, the scan then reads it as inf.
    with np.errstate(over="ignore"):
        for i in range(1, n):
            d2 = np.zeros(i)
            for a in range(dim):
                t = by_axis[a, :i] - by_axis[a, i]
                d2 += t * t
            lo = min(lo, float(d2.min()))
            hi = max(hi, float(d2.max()))
    return lo, hi
