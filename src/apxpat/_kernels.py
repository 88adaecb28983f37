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

The separation audit, dart throwing and its full-box test share one grid
hash: linear uint64 keys of cell indices (``_cell_keys``), sorted once,
and every candidate pair confirmed by its own squared distance, summed
axis by axis with each difference first scaled by the power of two that
brings the threshold into [0.5, 1) (``_close_in_ranges``), so none of
them depends on the scale of the input.  The three cells of a ring row
along the last axis have consecutive keys, so each row is one key
interval [c - 1, c + 1], found by two ``searchsorted`` calls
(``_close_in_keys``): 3^(dim-1) lookups per point in place of 3^dim
cells.  Cell indices enter the keys plus one, so while keys do not wrap
no interval crosses key 0; where they wrap (base^dim >= 2^64), an
interval whose lo > hi as uint64 is split into [lo, 2^64) and [0, hi].
Below 3^dim points, where a ring of cells would cost more than the points
it holds, each compares every pair instead.

All three bin by one cell rule (``_grid``).  For a distance thr and an
extent E bounding every |x| (the box length for dart throwing, the
largest |coordinate| for the audit), coordinates are scaled by the power
of two s that brings E into [0.5, 1) (s stops at 2^1023 for a subnormal
E), and the cell side is c = (thr*s + E*s*2^-48) * (1 + 2^-40).  The
scaling is exact but for an absolute 2^-1075 where x*s underflows, and
|x*s| <= E*s, so the quotient x*s/c errs by at most E*s*2^-53/c plus that.
Two points the distance test calls closer than thr differ by less than
thr*(1 + 2^-50) on every axis, so their quotients differ by at most
(thr*s*(1 + 2^-50) + E*s*2^-52)/c < 1 and their cell indices by at most
one: they are neighbours at any offset and any scale, subnormal
thresholds included.  Since E*s >= 2^-51 whenever E > 0, c is a normal
float, and every index lies in (-2^48, 2^48).  Dart throwing's points lie
in [0, E], so its indices are non-negative and its base depends on E and
thr alone; the audit shifts its indices by their per-axis minimum.
Wherever the numbers are normal floats the scaling changes no quotient,
so the keys are those of binning in the input's units.

numpy reduces an (n, d) array along an axis by walking its rows, at many
times the cost of reducing each column as one contiguous run; per-axis
minima and maxima of point rows (``per_axis``) and the row-wise AND and
OR of a bool array's columns (``across_axes``) are taken one column at a
time, with numpy's bits.

Every pairwise squared distance is computed by one loop,
``_sq_dists_in_ranges``, over the pairs of one range expander,
``_range_pairs``, which the collinear finder's coloring also walks.  ``pair_sq_extremes`` scans all pairs with it
for the extremes and the farthest pair; ``pair_extremes``, which pattern
metrics, ``min_pairwise_distance``, ``diameter`` and the homothety
oracle read, runs that scan on the rows scaled by a power of two into
the unit range (``_to_unit``, the frame every certificate works in).
Dart throwing decides a whole block of candidates this way and walks in
Python only the candidates that conflict with an earlier one of the same
block; it stops early once the accepted points provably fill the box.
"""

import itertools
import math

import numpy as np

from .errors import InvalidArgument

BACKEND = "pure-python"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TO53 = 2.0**-53
# The most candidate rows dart_throw decides at once: enough to amortise
# numpy's per-call cost, few enough that a block's own close pairs stay few.
_BLOCK_ROWS = 4096
# Candidate pairs whose distances one numpy pass computes.
_PAIRS_PER_PASS = 65536
# Ring rows looked up in one pair of searchsorted calls: enough to
# amortise numpy's per-call cost, few enough that the lookup stays in cache.
_ROWS_PER_LOOKUP = 8192
_ONE = np.uint64(1)


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


def per_axis(ufunc, a):
    """``ufunc.reduce(a, axis=0)`` of an (n, d) float array in C or Fortran
    order, for ufunc np.minimum or np.maximum, bit for bit, one column at
    a time.

    numpy reduces a C-ordered array along axis 0 by combining whole rows
    in turn, so at d > 1 a tie of 0.0 and -0.0 keeps the sign of the
    later row, and it costs many times a reduction of each column as one
    contiguous run, which is how numpy reduces a single column or a
    Fortran-ordered array.  The columns of a transposed copy are reduced
    so here; where numpy walks the rows, a column whose result is a zero
    takes the sign of its last zero."""
    cols = a.T.copy()
    out = ufunc.reduce(cols, axis=1)
    if len(cols) > 1 and a.flags.c_contiguous:
        for j in np.flatnonzero(out == 0.0).tolist():
            out[j] = cols[j, np.flatnonzero(cols[j] == 0.0)[-1]]
    return out


def across_axes(ufunc, b):
    """``ufunc.reduce(b, axis=1)`` of an (n, d) bool array, for ufunc
    np.logical_and or np.logical_or, one column at a time: numpy's own
    reduction along axis 1 walks the rows and costs many times as much."""
    out = b[:, 0].copy()
    for a in range(1, b.shape[1]):
        ufunc(out, b[:, a], out=out)
    return out


def dart_throw(dim, length, delta, target, seed, max_attempts):
    """Sequential dart throwing in [0, length)^dim with minimum distance delta.

    Returns (flat_coords, attempts) where flat_coords is a flat float64
    array of the accepted points, row-major in acceptance order.  Stops at
    the attempt that accepts the target-th point, or after max_attempts
    candidates, or once the accepted points provably fill the box.

    Candidates are rows of dim consecutive stream words, drawn in blocks of
    rows; the words a run stops short of are never used.  A candidate is
    rejected when some earlier accepted point has squared distance, summed
    axis by axis in delta's binary units (``_binary_units``), below
    delta^2, so its fate depends only on it and the points accepted before
    it, and scaling length and delta by a power of two scales the output
    by it.  The coordinates returned are the candidates' own.  Each block
    is therefore decided in numpy: the candidates near a point accepted in
    earlier blocks are rejected through the grid hash of the separation
    audit (``_close_pairs``: one key interval per row of each candidate's
    ring, an interval that wraps past 2^64 - 1 split in two); the close
    pairs among the survivors are found, each once, the way the audit
    finds them (``_close_pairs_within``); only those pairs are walked in
    Python, in stream order of their later candidate, which is rejected
    when the earlier one still stands; and the block is cut at the
    target-th acceptance, so ``attempts`` is the count a one-at-a-time
    thrower reports.  Blocks hold at most _BLOCK_ROWS candidates, and
    about twice as many as the run's acceptance rate needs to reach the
    target, so a small target draws a small block.

    After a block that accepts nothing, the accepted set is tested for
    maximality (``_box_is_full``): a full box accepts no later candidate,
    so stopping there changes no output that reaches the target.
    """
    pts = np.empty((0, dim))  # accepted points, sorted by cell key
    keys = np.empty(0, dtype=np.uint64)
    won_rows = []
    state = seed
    n = attempts = 0
    tested = (0, 0)  # accepted count and attempts at the last test for a full box
    while n < target and attempts < max_attempts:
        rows = min(_BLOCK_ROWS, max_attempts - attempts,
                   2 * (target - n) * (attempts + 1) // (n + 1) + 8)
        words, state = splitmix64_block(state, rows * dim)
        block = (unit_from_bits(words) * length).reshape(rows, dim)
        bkeys, base = _grid(block, length, delta)
        # Candidates in key order: sorted queries search faster.
        by_key = np.argsort(bkeys)
        cand, ckeys = block[by_key], bkeys[by_key]
        near, _ = _close_pairs(cand, ckeys, pts, keys, base, delta)
        free = np.ones(rows, dtype=bool)  # in stream order
        free[by_key[near]] = False
        surv = np.flatnonzero(free[by_key])
        # Close pairs among the survivors, as stream positions (earlier,
        # later), walked in the order of the later.
        i, j = _joined(_close_pairs_within(cand[surv], ckeys[surv], base, delta))
        i, j = by_key[surv[i]], by_key[surv[j]]
        earlier, later = np.minimum(i, j), np.maximum(i, j)
        walk = np.argsort(later)
        ok = free.tolist()
        for e, l in zip(earlier[walk].tolist(), later[walk].tolist()):
            if ok[e]:
                ok[l] = False
        won = np.flatnonzero(ok)[: target - n]
        if n + len(won) == target:
            attempts += int(won[-1]) + 1
        else:
            attempts += rows
        if len(won):
            won_rows.append(block[won])
            n += len(won)
            keys = np.concatenate([keys, bkeys[won]])
            order = np.argsort(keys)
            keys = keys[order]
            pts = np.concatenate([pts, block[won]])[order]
        elif n > tested[0] or attempts >= 2 * tested[1]:
            # The test looks at no more cells than darts were thrown, and
            # runs again once the set grows or the attempts double.
            if _box_is_full(pts, keys, length, delta, attempts):
                break
            tested = (n, attempts)
    if not won_rows:
        return np.empty(0), attempts
    return np.concatenate(won_rows).ravel(), attempts


def _box_is_full(pts, keys, length, delta, budget):
    """True when every candidate dart_throw can draw is rejected by the
    accepted points pts (sorted by their keys, ``_grid`` at length and
    delta), by cell coverage.

    This is the test of maximal Poisson-disk sampling (Ebeida et al., "A
    simple algorithm for maximal Poisson-disk sampling in high
    dimensions", Eurographics 2012): cells of side delta/sqrt(dim) tile the
    box, a cell lying wholly inside one point's rejection ball is done, and
    every other cell is split into 2^dim halves and tested again.  The
    farthest point of a cell is padded by more than the rounding of its
    corners, and the test asks for its squared distance times (1 + 2^-40),
    in delta's binary units, to stay below delta^2, which bounds the
    rounding of dart_throw's own sum.  A cell whose centre no accepted
    point rejects ends the test: the box is not full.  So does a total
    volume of the balls below the box's, and a budget of cells to examine
    that runs out.
    """
    n, dim = pts.shape
    if n == 0:
        return False
    log_balls = (math.log(n) + dim / 2 * math.log(math.pi) - math.lgamma(dim / 2 + 1)
                 + dim * math.log(delta))
    if log_balls < dim * math.log(length):
        return False
    # Past the volume test n*V_d*delta^d >= length^d, so length/delta is at
    # most (n*V_d)^(1/d) and ``across`` is a finite int at any length/delta.
    scale, thr = _binary_units(delta)
    side = delta / math.sqrt(dim)
    pad = (length + delta) * 2.0**-50
    across = int(length / side) + 1
    if across**dim > budget:
        return False
    idx = np.indices((across,) * dim).reshape(dim, -1).T
    halves = np.indices((2,) * dim).reshape(dim, -1).T
    with np.errstate(over="ignore"):
        while len(idx):
            budget -= len(idx)
            lo = idx * side
            hi = np.minimum((idx + 1) * side, length)
            mid = (lo + hi) * 0.5
            mkeys, base = _grid(mid, length, delta)
            cells, near = _close_pairs(mid, mkeys, pts, keys, base, delta)
            if len(np.unique(cells)) < len(idx):
                return False
            far = (np.maximum(pts[near] - lo[cells], hi[cells] - pts[near]) + pad) * scale
            inside = (far * far).sum(axis=1) * (1.0 + 2.0**-40) < thr * thr
            done = np.zeros(len(idx), dtype=bool)
            done[cells[inside]] = True
            idx = idx[~done]
            if len(idx) * 2**dim > budget:
                return False
            side *= 0.5
            idx = (2 * idx[:, None, :] + halves).reshape(-1, dim)
            # A cell whose corner rounds to length or past it holds no
            # candidate: the largest candidate is below length by an ulp.
            idx = idx[across_axes(np.logical_and, idx * side < length)]
    return True


def _grid(x, extent, thr, shift=False):
    """(keys, base): the cell keys (``_cell_keys``) of the rows of x, of
    magnitude at most extent, and their base, by the one cell rule of the
    module docstring at distance thr > 0.  Without shift the rows lie in
    [0, extent] and the base depends on extent and thr alone, so the keys
    of separate calls agree; with shift the indices are first shifted by
    their per-axis minimum, and the base fits them."""
    scale, unit = _binary_units(extent)
    cell = (thr * scale + unit * 2.0**-48) * (1.0 + 2.0**-40)
    home = np.floor(x * scale / cell)
    if shift:
        home -= per_axis(np.minimum, home)
        top = home.max()
    else:
        top = unit / cell
    # An odd base keeps base**a from vanishing mod 2**64, which would drop
    # whole axes from the key.
    base = (int(top) + 4) | 1
    return _cell_keys(home, base), base


def _cell_keys(home, base):
    """Linear uint64 keys of cell indices (an (n, dim) float array of
    non-negative integers below 2^64): the base-`base` number with the
    indices plus one as digits, in wrapping arithmetic.  With base above
    every index plus two, the digits of a cell's neighbours lie in
    [0, base), so while base^dim <= 2^64 no key wraps and the keys of the
    three cells of a row along the last axis are k - 1, k and k + 1, with
    k - 1 >= 0."""
    home = home.astype(np.uint64)
    keys = np.zeros(len(home), dtype=np.uint64)
    ubase = np.uint64(base & _MASK64)
    for a in range(home.shape[1]):
        keys = keys * ubase + home[:, a] + _ONE
    return keys


def _ring_rows(dim, base):
    """Wrapping uint64 key offsets of the middle cells of the 3^(dim-1)
    rows of one ring along the last axis, as an array in lexicographic
    order of the offset vectors (last coordinate 0): the zero row sits in
    the middle, and the lexicographically positive half follows it.  Keys
    are linear, so the key of a neighbour cell is always a cell's key plus
    the offset's; a wrap or collision only adds candidate pairs, which
    their distances then reject."""
    keys = []
    for off in itertools.product((-1, 0, 1), repeat=dim - 1):
        key = 0
        for v in off:
            key = key * base + v
        keys.append(key * base & _MASK64)
    return np.asarray(keys, dtype=np.uint64)


def _close_pairs(q, qkeys, pts, keys, base, thr):
    """Index pairs (i, j), as two arrays, with q[i] strictly closer than
    thr to pts[j].  pts are sorted by their cell keys (``_grid``);
    a pair is looked for only in the one ring of cells around q[i], which
    holds every point closer than the cell side.  With fewer points than
    the 3^dim ring cells, every point is compared instead."""
    m, dim = q.shape
    if 3**dim > len(pts):
        return _joined(_close_in_ranges(q, pts, np.zeros(m, dtype=np.intp),
                                        np.full(m, len(pts)), thr))
    return _joined(_close_in_rows(q, qkeys, _ring_rows(dim, base), pts, keys, thr))


def _close_pairs_within(pts, keys, base, thr):
    """Yield each pair of pts strictly closer than thr, once, as
    index arrays (i, j), one numpy pass at a time, so a caller may stop at
    the first.  pts are sorted by their cell keys; each point is compared
    with the points after it up to the end of the next cell along the
    last axis (the rest of its own cell, then that cell: one key interval)
    and with the points of the lexicographically positive half of its
    ring's rows.  With fewer points than the 3^dim ring cells, each point
    is compared with every later point instead."""
    n, dim = pts.shape
    if 3**dim > n:
        yield from _close_in_ranges(pts, pts, np.arange(1, n + 1), np.full(n, n), thr)
        return
    yield from _close_in_keys(pts, pts, keys, keys, keys + _ONE, thr, np.arange(1, n + 1))
    rows = _ring_rows(dim, base)
    for i, j in _close_in_rows(pts, keys, rows[len(rows) // 2 + 1:], pts, keys, thr):
        # A wrapped offset key can point back at the point itself.
        keep = i != j
        yield i[keep], j[keep]


def _close_in_rows(q, qkeys, rows, pts, keys, thr):
    """Yield, a numpy pass at a time, the index pairs (i, j) with q[i]
    strictly closer than thr to a point pts[j] in one of the three cells
    of a ring row around q[i]: whose key lies in [c - 1, c + 1] for c
    qkeys[i] plus one of rows (``_ring_rows``).  pts are sorted by their
    keys.  The intervals of several rows are looked up at once, at most
    _ROWS_PER_LOOKUP (or one row's) per lookup."""
    step = max(1, _ROWS_PER_LOOKUP // max(len(q), 1))
    for r in range(0, len(rows), step):
        mid = (qkeys + rows[r:r + step, None]).ravel()
        yield from _close_in_keys(q, pts, keys, mid - _ONE, mid + _ONE, thr)


def _close_in_keys(q, pts, keys, lo, hi, thr, first=None):
    """Yield the index pairs (i, j) with q[i] strictly closer than thr to
    pts[j] for the j whose key lies in the interval [lo[r], hi[r]] of
    uint64 keys, i = r mod len(q); pts are sorted by their keys.  An
    interval with lo > hi wraps: it is [lo, 2^64) and [0, hi].  Given
    first, j starts at first[r] instead, which must lie in the interval's
    first part."""
    if first is None:
        first = np.searchsorted(keys, lo)
    stop = np.searchsorted(keys, hi, "right")
    wrap = np.flatnonzero(lo > hi)
    if len(wrap):
        rows = wrap % len(q)
        for i, j in _close_in_ranges(q[rows], pts, np.zeros(len(wrap), dtype=np.intp),
                                     stop[wrap], thr):
            yield rows[i], j
        stop[wrap] = len(keys)
    yield from _close_in_ranges(q, pts, first, stop, thr)


def _joined(hits):
    """Concatenate (rows, cols) index array pairs."""
    hits = list(hits)
    if not hits:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return tuple(np.concatenate(part) for part in zip(*hits))


def has_close_pair(flat, dim, threshold):
    """True iff some pair of points lies strictly closer than threshold.

    ``flat`` holds the points row-major, as a list or a 1-D float array.
    The points are binned by the module's cell rule with the largest
    |coordinate| as the extent, their indices shifted by the per-axis
    minimum (``_grid``), and each is compared with the later points of its
    own cell and the next along the last axis, and with the points of the
    lexicographically positive half of its ring (``_close_pairs_within``,
    which ``dart_throw`` shares).  The scan stops at the first numpy pass
    that finds a pair, so a set that fails the audit fails fast however
    many of its points crowd one cell.  Every candidate is confirmed by its
    own distance in threshold's binary units, so the answer is the naive
    scan's at any offset and any scale of the points and threshold.
    """
    n = len(flat) // dim
    if n < 2 or threshold <= 0.0:
        return False
    pts = np.asarray(flat, dtype=float)[: n * dim].reshape(n, dim)
    keys, base = _grid(pts, max(-float(pts.min()), float(pts.max())), threshold, shift=True)
    order = np.argsort(keys)
    return any(len(i) for i, _ in _close_pairs_within(pts[order], keys[order], base, threshold))


def _binary_units(thr):
    """The power of two s that brings the distance thr > 0 into [0.5, 1),
    and thr*s.  For a subnormal thr, s stops at 2^1023 and thr*s at 2^-51
    or above; for thr = 0, s is 1.  Differences are multiplied by s before they are squared, so
    squares near thr^2 stay normal floats at any scale of thr; wherever
    thr^2 is a normal float, every comparison with it is decided as in the
    input's units, since the scaling is exact."""
    scale = math.ldexp(1.0, -max(math.frexp(thr)[1], -1023))
    return scale, thr * scale


def _close_in_ranges(q, pts, first, stop, thr):
    """Yield the index pairs (i, j) with q[i] strictly closer than thr to
    pts[j] for j in [first[r], stop[r]) and i = r mod len(q), as two arrays
    per numpy pass of ``_sq_dists_in_ranges``, which squares differences
    in thr's binary units."""
    scale, thr = _binary_units(thr)
    thr2 = thr * thr
    for rows, cols, d2 in _sq_dists_in_ranges(q, pts, first, stop, scale):
        close = np.flatnonzero(d2 < thr2)
        yield rows[close], cols[close]


def _sq_dists_in_ranges(q, pts, first, stop, scale):
    """Yield (i, j, d2), three arrays per numpy pass, over the index pairs
    with j in [first[r], stop[r]) and i = r mod len(q), in order of r and
    then j; d2 is the squared distance of q[i] and pts[j] with each
    difference times scale, summed axis by axis, as a scalar loop sums it.
    A square past the float range reads as inf.  This is the one loop over
    pairwise distances.  The pairs come from ``_range_pairs``, at most
    _PAIRS_PER_PASS pairs (or one range) per pass, so memory stays
    O(len(first) + _PAIRS_PER_PASS + the longest range) however many
    points share a range."""
    for rows, cols in _range_pairs(first, stop, _PAIRS_PER_PASS):
        rows %= len(q)
        d2 = np.zeros(len(rows))
        with np.errstate(over="ignore"):
            for a in range(q.shape[1]):
                t = pts[cols, a] - q[rows, a]
                t *= scale
                t *= t
                d2 += t
        yield rows, cols, d2


def _range_pairs(first, stop, per_pass):
    """Yield (r, j), two index arrays per pass, over the index pairs with j
    in [first[r], stop[r]), in order of r and then j.  This is the one
    expansion of ranges into pairs, for the distance loop and for the
    collinear finder's coloring: each pass holds whole ranges, a run of
    them at a time, at most per_pass pairs (or one range)."""
    live = np.flatnonzero(stop > first)
    first = first[live]
    counts = stop[live] - first
    ends = np.cumsum(counts)
    start = 0
    while start < len(live):
        done = int(ends[start - 1]) if start else 0
        end = max(start + 1, int(np.searchsorted(ends, done + per_pass, "right")))
        runs = counts[start:end]
        rows = np.repeat(live[start:end], runs)
        # Pair p of a live row r sits at p - (ends[r] - runs[r] - done)
        # in the pass, and compares with point first[r] plus that.
        cols = np.arange(len(rows)) + np.repeat(
            first[start:end] - (ends[start:end] - runs - done), runs)
        yield rows, cols
        start = end


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
    """(min, max) squared distance over the pairs of rows of an (n, d)
    array, in the rows' units, and the farthest pair (i, j), i < j: the
    first in (i, j) order.

    One scan (``_sq_dists_in_ranges``) compares each row with all later
    rows.  Every distance is summed axis by axis in a fixed order, as a
    scalar loop sums it, so both extremes are bit for bit the naive double
    loop's; a square past the float range reads as inf, as in that loop.
    """
    n = len(rows)
    if n < 2:
        raise InvalidArgument("need at least two points")
    lo, hi, far = math.inf, -1.0, None
    for i, j, d2 in _sq_dists_in_ranges(rows, rows, np.arange(1, n + 1), np.full(n, n), 1.0):
        lo = min(lo, float(d2.min()))
        top = int(d2.argmax())
        if d2[top] > hi:
            hi, far = float(d2[top]), (int(i[top]), int(j[top]))
    return lo, hi, far


def pair_extremes(rows):
    """(min, max) distance over the pairs of rows of an (n, d) array, in
    the rows' units, and the first farthest pair: ``pair_sq_extremes`` on
    the rows scaled into the unit range (``_to_unit``), so no square leaves
    the float range on account of the rows' scale.  A distance whose
    square is a normal float in both units is the naive loop's sqrt bit
    for bit; a max distance past the float range reads as inf."""
    unit, e = _to_unit(rows)
    lo, hi, far = pair_sq_extremes(unit)
    with np.errstate(over="ignore"):
        lo, hi = np.ldexp(np.sqrt([lo, hi]), e).tolist()
    return lo, hi, far


def _to_unit(a):
    """a * 2**-e and e, for the e that brings max |a| into [0.5, 1).

    The scaling is exact in floats, so a quantity computed in the unit
    range is the input's, without squared lengths that underflow or
    overflow.
    """
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e
