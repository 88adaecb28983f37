import importlib
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from apxpat import bounds, collinear
from apxpat.collinear import (
    CollinearOutcome,
    angle_bucket,
    bucket_count,
    build_coloring,
    find_collinear,
)
from apxpat.errors import BudgetExceeded, DimensionMismatch
from apxpat.generators import gen_random_separated
from apxpat.geometry import Point, PointSet, diameter
from apxpat.oracle import exists_collinear
from apxpat.verifier import triangle_angles, verify_collinear

from _reference import cylinder_radius


def planted_tube_instance(seed: int, n_noise: int = 200, n_tube: int = 10):
    """Uniform noise plus points planted in a radius-0.001 tube around a
    random line, spread along the line so their pair directions agree."""
    rng = random.Random(seed)
    theta = rng.uniform(0, math.pi)
    ca, sa = math.cos(theta), math.sin(theta)
    cx, cy = 0.5, 0.5
    pts = []
    for i in range(n_tube):
        t = (i - (n_tube - 1) / 2) * (0.9 / n_tube) + rng.uniform(-0.01, 0.01)
        off = rng.uniform(-1e-5, 1e-5)
        pts.append((cx + t * ca - off * sa, cy + t * sa + off * ca))
    while len(pts) < n_noise + n_tube:
        cand = (rng.uniform(0, 1), rng.uniform(0, 1))
        pts.append(cand)
    planted = list(range(n_tube))
    return PointSet(2, pts), planted


def test_bucket_count_and_width():
    r = bucket_count(0.5)
    assert r == 8
    assert math.pi / r <= 0.5


def test_angle_bucket_examples():
    assert angle_bucket(Point((0, 0)), Point((1, 0)), 8) == 4
    assert angle_bucket(Point((0, 0)), Point((1, 1)), 8) == 6
    # orientation does not matter
    assert angle_bucket(Point((1, 1)), Point((0, 0)), 8) == 6
    # a vertical segment points down, to angle -pi/2: bucket 0 either way
    assert angle_bucket((0, 0), (0, 1), 8) == 0
    assert angle_bucket((0, 1), (0, 0), 8) == 0
    with pytest.raises(ValueError):
        angle_bucket(Point((0, 0)), Point((0, 0)), 8)
    with pytest.raises(DimensionMismatch):
        angle_bucket(Point((0, 0, 0)), Point((1, 0, 0)), 8)


def test_bad_bucket_parameters_rejected():
    p, q = Point((0, 0)), Point((1, 1))
    for r in (0, -3, 2.5):
        with pytest.raises(ValueError):
            angle_bucket(p, q, r)
    s = PointSet(2, [(0, 0), (1, 0.5), (2, 1.1)])
    for eps in (0.0, -1.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            bucket_count(eps)
        with pytest.raises(ValueError):
            build_coloring(s, eps)
    # ceil(pi/eps) + 1 past numpy's index range, or pi/eps past the floats.
    for eps in (1e-300, 5e-324, math.pi / 2.0**63):
        with pytest.raises(ValueError, match="angle buckets"):
            bucket_count(eps)
    assert bucket_count(math.pi / 2.0**62) == 2**62 + 1


def test_coloring_is_partition():
    s = PointSet(2, [(0.1, 0.2), (1.3, 0.4), (2.1, 1.9), (0.7, 1.1)])
    coloring, _ = build_coloring(s, 0.3)
    n = len(s)
    pairs = list(zip(coloring.i.tolist(), coloring.j.tolist()))
    assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert len(coloring.assignments) == len(pairs)
    assert all(0 <= b < coloring.r for b in coloring.assignments.tolist())
    assert math.pi / coloring.r <= 0.3


def test_points_on_a_line_found():
    pts = [(i * 0.05, 0.3 * i * 0.05 + 1.0) for i in range(20)]
    s = PointSet(2, pts)
    for k in (3, 8, 20):
        res = find_collinear(s, k, 0.1)
        assert res.found
        assert len(res.subset) == k
        assert res.accepted


def test_vertical_line_found_in_bucket_0():
    pts = [(1.0, float(i)) for i in range(10)]
    s = PointSet(2, pts)
    res = find_collinear(s, 5, 0.2)
    assert res.found
    assert res.bucket == 0
    coloring, by_bucket = build_coloring(s, 0.2)
    assert coloring.assignments.tolist() == [0] * 45
    assert by_bucket.tolist() == list(range(45))


def test_tiny_eps_needs_no_bucket_sized_arrays():
    # eps = 1e-6 asks for r = 3,141,594 buckets; counting them all peaks at
    # about 200 MB under tracemalloc, and eps = 1e-9 would take tens of GB.
    # Only the buckets that occur are grouped, so memory follows the pairs.
    rng = random.Random(5)
    s = PointSet(2, [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(12)])
    for eps in (1e-6, 1e-9):
        tracemalloc.start()
        try:
            res = find_collinear(s, 3, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert not res.found and res.proven_absent


def test_tiny_coordinates_found():
    # x-coordinates 1e-13 apart: the same set at any power-of-two scale
    # gives the same outcome.
    pts = [(0.0, 0.0), (1e-13, 3e-14), (2e-13, 7e-14), (3.1e-13, 1e-13)]
    res = find_collinear(PointSet(2, pts), 3, 0.1)
    assert res.found
    for scale in (2.0**-40, 2.0**40, 2.0**43):
        assert find_collinear(PointSet(2, [(x * scale, y * scale) for x, y in pts]), 3, 0.1) == res


def test_verifier_and_oracle_agree_with_finder_at_1e_170():
    # Squared lengths underflow at this scale; the verifier works in the
    # unit range, so it and the oracle accept what the finder certifies.
    s = PointSet(2, [(0.0, 0.0), (1e-170, 2e-171), (2e-170, 4.1e-171)])
    res = find_collinear(s, 3, 0.1)
    assert res.found
    assert verify_collinear(s, 0.1) == (True, res.worst_triangle)
    assert triangle_angles(*s.coords[list(res.worst_triangle)].tolist()) == res.worst_angles
    assert exists_collinear(s, 3, 0.1)


def test_pentagon_proven_absent():
    pent = PointSet(
        2,
        [(math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5)) for i in range(5)],
    )
    res = find_collinear(pent, 5, 0.01)
    assert not res.found
    assert res.proven_absent


def test_planted_tube_found_and_certified():
    for seed in range(3):
        s, planted = planted_tube_instance(seed)
        res = find_collinear(s, 8, 0.1)
        assert res.found, seed
        subset = PointSet(2, [s.points[i] for i in res.subset])
        acc, _ = verify_collinear(subset, 0.1)
        assert acc
        assert cylinder_radius(subset) <= 0.1 * diameter(subset) + 1e-12


def test_monochromatic_implies_collinear():
    # Any subset whose pairs share one bucket passes verify_collinear.
    rng = random.Random(17)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
    s = PointSet(2, pts)
    eps = 0.25
    coloring, _ = build_coloring(s, eps)
    checked = 0
    for b in np.unique(coloring.assignments):
        mono = coloring.assignments == b
        adj = np.zeros((len(s), len(s)), dtype=bool)
        adj[coloring.i[mono], coloring.j[mono]] = True
        adj |= adj.T
        # any triangle in this bucket
        for i, j in zip(coloring.i[mono], coloring.j[mono]):
            common = np.flatnonzero(adj[i] & adj[j])
            if len(common):
                acc, _ = verify_collinear(s.subset((i, j, common[0])), eps)
                assert acc
                checked += 1
                break
    assert checked >= 1


def test_budget_exhaustion_flagged():
    pts = [(i * 0.01, 0.2 * i * 0.01) for i in range(30)]
    s = PointSet(2, pts)
    res = find_collinear(s, 30, 0.2, node_budget=1)
    # With a 1-node budget the exact search dies instantly; the greedy
    # fallback still finds the fully-collinear clique.
    assert res.found or not res.proven_absent


def test_k_larger_than_n():
    s = PointSet(2, [(0, 0), (1, 0.5), (2, 1.1)])
    res = find_collinear(s, 5, 0.2)
    assert not res.found
    assert res.proven_absent


def test_determinism():
    s, _ = planted_tube_instance(4)
    a = find_collinear(s, 8, 0.1)
    b = find_collinear(s, 8, 0.1)
    assert a == b


# ---------------------------------------------------------------------------
# The finder before the coloring became arrays and the bucket graphs
# bitsets: a dict of pair tuples, per-bucket edge lists and dict-of-set
# adjacency, with each bucket's path bound as a longest-path recurrence over
# the points in (x ascending, y descending) order.  Kept as the reference
# the array-and-bitset finder must match outcome for outcome, budget
# exhaustion included.
# ---------------------------------------------------------------------------

def _ref_bucket(dx, dy, r):
    theta = math.atan2(dy, dx)
    bucket = math.floor((theta + math.pi / 2.0) / (math.pi / r))
    return min(max(bucket, 0), r - 1)


def _ref_coloring(pts, eps):
    r = math.ceil(math.pi / eps) + 1
    assignments = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            if dx < 0 or (dx == 0 and dy > 0):
                dx, dy = -dx, -dy
            assignments[(i, j)] = _ref_bucket(dx, dy, r)
    return assignments


def _ref_color_bound(cands, adj):
    colors = {}
    for v in cands:
        used = {colors[u] for u in adj[v] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return len(set(colors.values())) if colors else 0


class _RefExhausted(Exception):
    pass


def _ref_k_clique(adj, k, budget):
    adj = {v: set(nb) for v, nb in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) < k - 1:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    if len(adj) < k:
        return None, False
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    nodes = 0

    def extend(clique, cands):
        nonlocal nodes
        if len(clique) == k:
            return clique
        nodes += 1
        if nodes > budget:
            raise _RefExhausted
        if len(clique) + len(cands) < k:
            return None
        if len(clique) + _ref_color_bound(cands, adj) < k:
            return None
        for pos, v in enumerate(cands):
            if len(clique) + (len(cands) - pos) < k:
                return None
            out = extend(clique + [v], [u for u in cands[pos + 1:] if u in adj[v]])
            if out is not None:
                return out
        return None

    try:
        return extend([], order), False
    except _RefExhausted:
        return None, True


def _ref_greedy_clique(adj, k):
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    for start in order:
        clique = [start]
        for u in order:
            if u != start and all(u in adj[v] for v in clique):
                clique.append(u)
                if len(clique) == k:
                    return clique
    return None


def _ref_longest_path(edges, pts):
    """Points on a longest path of the graph, each edge pointed from the
    lower to the higher point in the order (x ascending, y descending)."""
    def key(v):
        return pts[v][0], -pts[v][1]

    into = {}
    for i, j in edges:
        lo, hi = sorted((i, j), key=key)
        into.setdefault(hi, []).append(lo)
    longest = {}
    for v in sorted({v for edge in edges for v in edge}, key=key):
        longest[v] = 1 + max((longest[u] for u in into.get(v, ())), default=0)
    return max(longest.values(), default=0)


def _ref_find_collinear(s, k, eps, budget):
    """(outcome, whether some bucket's exact search ran out of budget)."""
    if len(s) < k:
        return CollinearOutcome(False, (), None, False, None, None, True), False
    pts = s.coords.tolist()
    assignments = _ref_coloring(pts, eps)
    buckets = {}
    for pair, b in assignments.items():
        buckets.setdefault(b, []).append(pair)
    exhausted_any = False
    for b in sorted(buckets, key=lambda b: (-len(buckets[b]), b)):
        edges = buckets[b]
        if len(edges) < k * (k - 1) // 2 or _ref_longest_path(edges, pts) < k:
            continue
        adj = {}
        for i, j in edges:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        clique, exhausted = _ref_k_clique(adj, k, budget)
        if exhausted:
            exhausted_any = True
            if clique is None:
                clique = _ref_greedy_clique(adj, k)
        if clique is None:
            continue
        subset = tuple(sorted(clique))
        accepted, worst_local = verify_collinear(s.subset(subset), eps)
        assert accepted
        worst = tuple(subset[t] for t in worst_local)
        angles = triangle_angles(*s.coords[list(worst)].tolist())
        return CollinearOutcome(True, subset, b, True, worst, angles, False), exhausted_any
    return CollinearOutcome(False, (), None, False, None, None,
                            not exhausted_any), exhausted_any


def _reference_instances(rng):
    """(point set, k, eps, budget): uniform clouds, lines on bucket edges,
    vertical lines, planted tubes, and exact searches cut off after 1 to
    100 nodes."""
    for t in range(250):
        kind = t % 5
        if kind == 4:
            # wide buckets over a denser cloud: long searches, often cut off
            n, eps, k = rng.randint(40, 80), rng.choice((0.5, 0.7, 0.9)), rng.randint(6, 9)
        else:
            n, eps, k = rng.randint(5, 36), rng.choice((0.05, 0.1, 0.2, 0.3, 0.5)), rng.randint(3, 7)
        pts = {(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)}
        if kind == 1:
            # a line along a bucket edge, jittered across it
            r = bucket_count(eps)
            theta = -math.pi / 2 + rng.randint(1, r - 1) * math.pi / r
            for u in range(rng.randint(k - 1, k + 4)):
                off = rng.uniform(-1e-4, 1e-4)
                pts.add((0.5 + 0.1 * u * math.cos(theta) - off * math.sin(theta),
                         0.5 + 0.1 * u * math.sin(theta) + off * math.cos(theta)))
        elif kind == 2:
            x = rng.choice((0.25, 0.5))
            pts |= {(x, 0.07 * u) for u in range(rng.randint(k - 1, k + 4))}
        budget = round(10 ** rng.uniform(0, 2)) if kind == 4 or t % 3 == 0 else None
        yield PointSet(2, sorted(pts, key=lambda p: rng.random())), k, eps, budget
    for seed in range(3):
        s, _ = planted_tube_instance(seed, n_noise=120)
        yield s, 8, 0.1, None
        yield s, 8, 0.1, 5 + 20 * seed
    # Wide buckets searched with a budget of 0 or 1 nodes: the exact search
    # runs out at once, unless the path bound rules the bucket out first.
    for t in range(60):
        n, eps, k = rng.randint(20, 60), rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randint(5, 9)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        yield PointSet(2, pts), k, eps, t % 2


def _finder_without_path_bound(s, k, eps, budget=None):
    """``find_collinear`` before buckets were ruled out by their path
    bound: every bucket with C(k, 2) pairs, richest first, gets the exact
    search, and the greedy pass if that runs out."""
    budget = collinear.DEFAULT_NODE_BUDGET if budget is None else budget
    if len(s) < k:
        return CollinearOutcome(False, (), None, False, None, None, True)
    coloring, by_bucket = build_coloring(s, eps)
    sorted_buckets = coloring.assignments[by_bucket]
    starts = np.append(0, np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1)
    counts = np.diff(starts, append=len(by_bucket))
    exhausted_any = False
    for g in np.argsort(-counts, kind="stable").tolist():
        if counts[g] < k * (k - 1) // 2:
            break
        pairs = by_bucket[starts[g]:starts[g] + counts[g]]
        i, j = coloring.i[pairs].astype(np.intp), coloring.j[pairs].astype(np.intp)
        clique, exhausted = collinear._k_clique(i, j, len(s), k, budget)
        if exhausted:
            exhausted_any = True
            if clique is None:
                clique = collinear._greedy_clique(*collinear._core(i, j, len(s), 1), k)
        if clique is None:
            continue
        subset = tuple(sorted(clique))
        _, worst_local = verify_collinear(s.subset(subset), eps)
        worst = tuple(subset[t] for t in worst_local)
        angles = triangle_angles(*s.coords[list(worst)].tolist())
        return CollinearOutcome(True, subset, int(sorted_buckets[starts[g]]), True, worst,
                                angles, False)
    return CollinearOutcome(False, (), None, False, None, None, not exhausted_any)


def _assert_only_proven_absent_moves(new, old):
    """new equals old, except that proven_absent may turn from False to
    True; returns whether it did."""
    assert vars(new) | {"proven_absent": None} == vars(old) | {"proven_absent": None}
    assert new.proven_absent >= old.proven_absent
    return new.proven_absent != old.proven_absent


def test_matches_dict_reference():
    rng = random.Random(2011)
    seen = exhausted = found = absent = repeated_x = moved = 0
    for s, k, eps, budget in _reference_instances(rng):
        new = find_collinear(s, k, eps, node_budget=budget)
        ref, ran_out = _ref_find_collinear(
            s, k, eps, collinear.DEFAULT_NODE_BUDGET if budget is None else budget)
        assert vars(new) == vars(ref), (s.coords.tolist(), k, eps, budget)
        seen += 1
        exhausted += ran_out
        found += new.found
        absent += new.proven_absent
        repeated_x += len(np.unique(s.coords[:, 0])) < len(s)
        moved += _assert_only_proven_absent_moves(
            new, _finder_without_path_bound(s, k, eps, budget))
    assert seen >= 200
    assert exhausted >= 20 and found >= 50 and absent >= 50 and repeated_x >= 30
    # Instances the bound proves absent where the exact search ran out.
    assert moved >= 3


def test_path_bound_changes_only_proven_absent():
    # On clouds, bucket-edge lines, vertical lines, planted tubes and
    # budgets from 0 nodes up, the finder gives the subset, bucket and worst
    # triangle the finder without the bound gives; only proven_absent may
    # turn from False to True, where a bucket the bound rules out ran out
    # of budget before.
    seen = found = moved = 0
    for s, k, eps, budget in _reference_instances(random.Random(25)):
        for b in {budget, 0}:
            new = find_collinear(s, k, eps, node_budget=b)
            moved += _assert_only_proven_absent_moves(new, _finder_without_path_bound(s, k, eps, b))
            seen += 1
            found += new.found
    assert seen >= 500 and found >= 100 and moved >= 10


def test_reference_instances_keep_their_outcome_under_power_of_two_scaling():
    # Scaling by a power of two is exact in floats, the coloring has no
    # absolute tolerance, and a found subset is certified in the unit range,
    # so every outcome is the same at each scale.  At 2^-270 the squared
    # lengths' products underflow unless the subset is rescaled first.
    rng = random.Random(2011)
    for s, k, eps, budget in _reference_instances(rng):
        want = find_collinear(s, k, eps, node_budget=budget)
        for scale in (2.0**-270, 2.0**-40, 2.0**40):
            scaled = PointSet(2, s.coords * scale)
            assert find_collinear(scaled, k, eps, node_budget=budget) == want, scale


def test_buckets_at_edges_match_scalar_rule():
    # Directions within 1e-15 rad of every inner bucket edge: numpy's
    # arctan2 alone puts some of them in the neighbouring bucket.
    rng = np.random.default_rng(5)
    offsets = np.linspace(-1e-15, 1e-15, 200)
    total = 0
    for r in (4, 8, 33, 64, 101):
        edges = -math.pi / 2 + np.arange(1, r) * (math.pi / r)
        theta = (edges[:, None] + offsets[None, :]).ravel()
        length = rng.uniform(0.1, 10.0, theta.size)
        dx, dy = length * np.cos(theta), length * np.sin(theta)
        want = [_ref_bucket(a, b, r) for a, b in zip(dx.tolist(), dy.tolist())]
        assert collinear._buckets(dx, dy, r).tolist() == want, r
        step = 97
        assert [angle_bucket((0.0, 0.0), (a, b), r) for a, b in
                zip(dx[::step].tolist(), dy[::step].tolist())] == want[::step]
        total += theta.size
    assert total == 41_000


def _oriented_ref_bucket(dx, dy, r):
    """The scalar rule of ``angle_bucket``: the segment pointed so that
    dx > 0, or dx = 0 and dy < 0, then math.atan2."""
    if dx < 0 or (dx == 0 and dy > 0):
        dx, dy = -dx, -dy
    return _ref_bucket(dx, dy, r)


@pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6, 1e-8, 1e-9])
def test_buckets_match_scalar_rule_at_tiny_eps(eps):
    # Random directions, and directions a few ulps from bucket edges, in
    # every quadrant: the vector path with its scalar fallback near edges
    # gives the scalar rule's bucket.
    rng = np.random.default_rng(int(-math.log10(eps)))
    r = bucket_count(eps)
    edges = -math.pi / 2 + rng.integers(1, r, 300) * (math.pi / r)
    ulps = rng.integers(-4, 5, (300, 1)) * np.spacing(np.abs(edges))[:, None]
    theta = np.concatenate([rng.uniform(-math.pi, math.pi, 2000),
                            (edges[:, None] + ulps).ravel(),
                            (edges[:, None] + ulps).ravel() + math.pi])
    length = rng.uniform(0.1, 10.0, theta.size)
    dx, dy = length * np.cos(theta), length * np.sin(theta)
    want = [_oriented_ref_bucket(a, b, r) for a, b in zip(dx.tolist(), dy.tolist())]
    assert collinear._buckets(dx, dy, r).tolist() == want


def test_tiny_eps_keeps_the_vector_path(monkeypatch):
    # build_coloring recomputes in Python, with math.atan2, only the
    # positions within _EDGE_MARGIN * r of a bucket edge: a sliver of the
    # pairs even at eps = 1e-9, where a margin of 1e-9 * r took every pair
    # from about eps = 6e-9 down.
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def atan2(self, y, x):
            calls.append(1)
            return math.atan2(y, x)

    monkeypatch.setattr(collinear, "math", CountingMath())
    s = gen_random_separated(2, 40, 1.0, 400, 3)
    pairs = len(s) * (len(s) - 1) // 2
    for eps in (1e-8, 1e-9):
        calls.clear()
        coloring, _ = build_coloring(s, eps)
        assert len(coloring.assignments) == pairs
        assert len(calls) < 0.01 * pairs


# ---------------------------------------------------------------------------
# The coloring before it was built in passes: every pair at once from
# np.triu_indices, with n(n-1)/2-long int64 and float temporaries.  Kept as
# the reference the pass-by-pass coloring must match pair for pair.
# ---------------------------------------------------------------------------

def _one_shot_coloring(s, eps):
    r = bucket_count(eps)
    x, y = s.coords[:, 0], s.coords[:, 1]
    i, j = np.triu_indices(len(x), 1)
    assignments = collinear._buckets(x[j] - x[i], y[j] - y[i], r)
    key = assignments.astype(np.min_scalar_type(r - 1))
    return i, j, assignments, np.argsort(key, kind="stable")


class _Rows:
    """A stand-in for a planar point set of any size, zero included (a
    PointSet refuses to be empty)."""

    dim = 2

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=float).reshape(-1, 2)

    def __len__(self):
        return len(self.coords)


def _coloring_fuzz_sets(rng):
    """Uniform clouds, vertical segments, lines along bucket edges, each
    also at 2^k scalings."""
    for n in (0, 1, 2, 3, 40, 255, 256, 257):
        yield _Rows(rng.random((n, 2)))
    for n in (10, 60):
        pts = rng.random((n, 2))
        pts[::3, 0] = pts[0, 0]  # vertical segments, both orientations
        yield _Rows(pts)
    for eps in (0.5, 0.1, 1e-3):
        r = bucket_count(eps)
        theta = -math.pi / 2 + rng.integers(1, r, 12) * (math.pi / r)
        t = rng.uniform(-1, 1, (12, 5))
        pts = np.stack([np.cos(theta)[:, None] * t, np.sin(theta)[:, None] * t], axis=2)
        yield _Rows(pts.reshape(-1, 2) + rng.uniform(-1e-9, 1e-9, (60, 2)))
    base = rng.random((50, 2))
    for e in (-300, -40, 40, 300):
        yield _Rows(np.ldexp(base, e))


def _assert_coloring_matches_one_shot(s, eps):
    coloring, by_bucket = build_coloring(s, eps)
    i, j, assignments, want_order = _one_shot_coloring(s, eps)
    n = len(s)
    assert coloring.r == bucket_count(eps)
    assert coloring.i.dtype == coloring.j.dtype == np.min_scalar_type(n - 1)
    assert coloring.assignments.dtype == np.min_scalar_type(coloring.r - 1)
    assert np.array_equal(coloring.i, i) and np.array_equal(coloring.j, j)
    assert np.array_equal(coloring.assignments, assignments)
    assert np.array_equal(by_bucket, want_order)


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-3, 1e-9])
def test_coloring_in_passes_matches_the_one_shot_coloring(eps):
    rng = np.random.default_rng(round(-math.log2(eps)))
    for s in _coloring_fuzz_sets(rng):
        _assert_coloring_matches_one_shot(s, eps)


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-3, 1e-9])
def test_coloring_matches_the_one_shot_coloring_around_pass_sizes(monkeypatch, eps):
    # Pair counts just below, at and just above one and two passes: at the
    # module's own pass size (128 points hold 8,128 pairs, 129 hold 8,256,
    # 181 hold 16,290, 182 hold 16,471), and at pass sizes set from a
    # set's pair count m, down to one pair per pass.
    assert collinear._PAIRS_PER_PASS == 8192
    rng = np.random.default_rng(7)
    for n in (128, 129, 181, 182):
        _assert_coloring_matches_one_shot(_Rows(rng.random((n, 2))), eps)
    for n in (5, 30, 77):
        s = _Rows(rng.random((n, 2)))
        m = n * (n - 1) // 2
        for per_pass in (1, m // 2 - 1, m // 2, m // 2 + 1, m - 1, m, m + 1):
            monkeypatch.setattr(collinear, "_PAIRS_PER_PASS", per_pass)
            _assert_coloring_matches_one_shot(s, eps)


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_finder_memory_per_pair(n):
    # The pairs are held as narrow index and bucket arrays with one
    # position each from the sort by bucket: about 16 bytes a pair at its
    # peak, against 64 for the one-shot coloring.  find_collinear's model,
    # n(n - 1)/2 * (2*w_n + 2*w_r + 8) bytes, counts the arrays that live
    # together; the colouring passes' float temporaries and the bucket
    # searches add the rest, 11-17% of it here, so the peak stays within
    # 1.25 times the model.
    s = PointSet(2, np.random.default_rng(n).random((n, 2)))
    w_n = np.min_scalar_type(n - 1).itemsize
    w_r = np.min_scalar_type(bucket_count(0.1) - 1).itemsize
    model = n * (n - 1) // 2 * (2 * w_n + 2 * w_r + 8)
    tracemalloc.start()
    try:
        find_collinear(s, 8, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model <= peak <= 1.25 * model


def test_finder_refuses_pairs_past_memory_before_it_allocates(monkeypatch):
    # 100 points and 33 buckets (eps 0.1): 4,950 pairs of 2*1 + 2*1 + 8 =
    # 12 bytes, 59,400 bytes in all.  One byte less of memory is refused
    # with no more than the refusal allocated; exactly that much runs.
    s = PointSet(2, np.random.default_rng(0).random((100, 2)))
    monkeypatch.setattr(bounds, "_MEMORY", 59_399)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="4950 pairs of 100 points do not fit"):
            find_collinear(s, 8, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(bounds, "_MEMORY", 59_400)
    assert find_collinear(s, 8, 0.1).proven_absent


def _previous_core(i, j, n, m):
    """``_core`` with two degree tests per edge in each peeling round."""
    while True:
        deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        keep = (deg[i] >= m) & (deg[j] >= m)
        if keep.all():
            break
        i, j = i[keep], j[keep]
    by_degree = np.argsort(-deg, kind="stable")
    size = np.count_nonzero(deg)
    pos = np.argsort(by_degree)
    adj = np.zeros((size, size), dtype=bool)
    adj[pos[i], pos[j]] = adj[pos[j], pos[i]] = True
    rows = np.packbits(adj, axis=1, bitorder="little")
    return by_degree[:size].tolist(), [int.from_bytes(row.tobytes(), "little") for row in rows]


def test_core_matches_the_previous_core_on_workload_bucket_graphs(tmp_path, monkeypatch):
    # Every bucket graph of the collinear-tube benchmark's 24 clouds (seed
    # 3), peeled to the cores its k = 8 and k = 13 searches and the greedy
    # fallback ask for.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "apxbench"))
    workloads = importlib.import_module("workloads")
    bench = workloads.CollinearTube(tmp_path, 3)
    graphs = 0
    for _, pts in bench.tubes + bench.uniform:
        s = PointSet(2, pts)
        coloring, by_bucket = build_coloring(s, bench.eps)
        buckets = coloring.assignments[by_bucket]
        for b in np.unique(buckets):
            pairs = by_bucket[buckets == b]
            i, j = coloring.i[pairs].astype(np.intp), coloring.j[pairs].astype(np.intp)
            for m in (1, 7, 12):
                assert collinear._core(i, j, len(s), m) == _previous_core(i, j, len(s), m)
            graphs += 1
    assert graphs >= 24 * 30


def test_core_in_row_blocks_matches_the_previous_core(monkeypatch):
    # Adjacency rows packed a few at a time, down to one row a block, give
    # the bitsets the whole dense matrix gives.
    rng = np.random.default_rng(11)
    graphs = [(np.array([0]), np.array([1]), 2), (np.array([], dtype=np.intp),) * 2 + (5,)]
    for n, m in ((30, 40), (90, 600), (300, 3000)):
        i, j = rng.integers(0, n, (2, m))
        i, j = np.unique(np.sort([i[i != j], j[i != j]], axis=0), axis=1)
        graphs.append((i, j, n))
    for block in (1, 7, 64, 1000, collinear._CORE_BLOCK_BYTES):
        monkeypatch.setattr(collinear, "_CORE_BLOCK_BYTES", block)
        for i, j, n in graphs:
            for m in (1, 3, 9):
                assert collinear._core(i, j, n, m) == _previous_core(i, j, n, m), (block, n, m)


def test_core_memory_follows_the_edges():
    # A graph shaped like the richest bucket of 4,000 uniform points at
    # eps = 0.1: 258,505 edges (4.1 MB of intp ends) whose 6-core holds
    # nearly every vertex.  A dense core x core matrix would take 15 MB.
    rng = np.random.default_rng(4000)
    n, m = 4000, 258_505
    keys = np.unique(rng.integers(0, n * n, 3 * m))
    keys = rng.permutation(keys[keys // n < keys % n])[:m]
    i, j = keys // n, keys % n
    assert len(i) == m
    tracemalloc.start()
    try:
        order, nbr = collinear._core(i, j, n, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(order) > 3900 and sum(b.bit_count() for b in nbr) == 2 * m
    assert peak < 10 * 2**20


def _longest_path_by_search(arcs, n):
    """The most vertices on a directed path, by following every path."""
    out = {v: [h for t, h in arcs if t == v] for v in range(n)}

    def through(v):
        return 1 + max((through(h) for h in out[v]), default=0)

    return max((through(v) for v in range(n)), default=0)


def _random_dags(rng):
    """(tail, head, n): arcs ascending in a random order of the vertices,
    with no arcs, one path, and random arc sets."""
    yield np.array([], dtype=np.intp), np.array([], dtype=np.intp), 0
    yield np.array([], dtype=np.intp), np.array([], dtype=np.intp), 4
    for length in (2, 3, 5, 8):
        order = rng.permutation(9)[:length]
        yield order[:-1], order[1:], 9
    for _ in range(300):
        n = int(rng.integers(1, 10))
        order = rng.permutation(n)
        lo, hi = np.triu_indices(n, 1)
        pick = rng.random(len(lo)) < rng.uniform(0, 1)
        yield order[lo[pick]], order[hi[pick]], n


def test_path_bound_matches_the_longest_path():
    # The bound answers whether some path runs through k vertices, for every
    # k from 2 past n, on DAGs with no arcs, a single path of exactly k
    # vertices and random arc sets.
    rng = np.random.default_rng(25)
    kinds = set()
    for tail, head, n in _random_dags(rng):
        longest = _longest_path_by_search(list(zip(tail.tolist(), head.tolist())), n)
        for k in range(2, n + 3):
            assert collinear._has_path(tail.astype(np.intp), head.astype(np.intp), n, k) == (
                longest >= k), (tail.tolist(), head.tolist(), n, k)
            kinds.add((longest == k, k == 3, k > n))
    assert kinds == {(a, b, c) for a in (False, True) for b in (False, True)
                     for c in (False, True)} - {(True, False, True), (True, True, True)}


def test_uniform_workload_clouds_never_reach_the_core(monkeypatch):
    # On 400 separated uniform points, the cloud the collinear-tube
    # benchmark searches at k = 13, every bucket's longest path is shorter
    # than 13 points, so no bucket is peeled or searched.
    calls = []

    def counting_core(*args):
        calls.append(1)
        return core(*args)

    core = collinear._core
    monkeypatch.setattr(collinear, "_core", counting_core)
    for seed in range(3):
        s = gen_random_separated(2, 1.0, 0.01, 400, seed)
        res = find_collinear(s, 13, 0.1)
        assert not res.found and res.proven_absent
    assert not calls
    # The stand-in sees the calls a bucket that passes the bound makes.
    find_collinear(s, 8, 0.1)
    assert calls
