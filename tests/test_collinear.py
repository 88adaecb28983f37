import math
import random
import tracemalloc

import numpy as np
import pytest

from apxpat import collinear
from apxpat.collinear import (
    CollinearOutcome,
    angle_bucket,
    bucket_count,
    build_coloring,
    find_collinear,
)
from apxpat.errors import DimensionMismatch
from apxpat.geometry import Point, PointSet, diameter
from apxpat.oracle import exists_collinear
from apxpat.verifier import cylinder_radius, triangle_angles, verify_collinear


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
# adjacency.  Kept as the reference the array-and-bitset finder must match
# outcome for outcome, budget exhaustion included.
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


def _ref_find_collinear(s, k, eps, budget):
    """(outcome, whether some bucket's exact search ran out of budget)."""
    if len(s) < k:
        return CollinearOutcome(False, (), None, False, None, None, True), False
    assignments = _ref_coloring(s.coords.tolist(), eps)
    buckets = {}
    for pair, b in assignments.items():
        buckets.setdefault(b, []).append(pair)
    exhausted_any = False
    for b in sorted(buckets, key=lambda b: (-len(buckets[b]), b)):
        edges = buckets[b]
        if len(edges) < k * (k - 1) // 2:
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


def test_matches_dict_reference():
    rng = random.Random(2011)
    seen = exhausted = found = absent = repeated_x = 0
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
    assert seen >= 200
    assert exhausted >= 20 and found >= 50 and absent >= 50 and repeated_x >= 30


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
