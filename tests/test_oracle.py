import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from apxpat.errors import BudgetExceeded
from apxpat.generators import gen_adversarial_ap3, gen_random_separated
from apxpat.geometry import Pattern, PointSet
from apxpat.oracle import (
    enumerate_aps,
    enumerate_homothetic,
    exists_collinear,
)
from apxpat.bounds import schedule_nd
from apxpat.search1d import search_ap
from apxpat.searchnd import pattern_grid_resolution
from apxpat.verifier import verify_ap, verify_collinear, verify_homothetic
from _reference import grid_min_deviation_ap, grid_min_deviation_homothety
from test_pattern_nodes import PATTERNS, _small_instance


class TestEnumerateAps:
    def test_exact_ap_single_hit(self):
        s = PointSet(1, [(0,), (1,), (2,)])
        assert enumerate_aps(s, 3, 0.0) == [(0, 1, 2)]

    def test_geometric_empty(self):
        s = PointSet(1, [(1 / 64,), (1 / 8,), (1,)])
        assert enumerate_aps(s, 3, 0.25) == []

    def test_all_four_triples(self):
        s = PointSet(1, [(0,), (1,), (2.5,), (5,)])
        hits = enumerate_aps(s, 3, 1 / 3)
        assert len(hits) == 4

    def test_budget(self):
        s = PointSet(1, [(float(i),) for i in range(30)])
        with pytest.raises(BudgetExceeded):
            enumerate_aps(s, 10, 0.1, budget=100)

    def test_order_independence(self):
        rng = random.Random(5)
        vals = sorted(rng.uniform(0, 20) for _ in range(9))
        s1 = PointSet(1, [(v,) for v in vals])
        perm = vals[::-1]
        s2 = PointSet(1, [(v,) for v in perm])
        h1 = {tuple(s1[i].coords[0] for i in hit) for hit in enumerate_aps(s1, 3, 0.3)}
        h2 = {tuple(s2[i].coords[0] for i in hit) for hit in enumerate_aps(s2, 3, 0.3)}
        assert h1 == h2

    def test_searcher_consistency(self):
        # found=true from the searcher implies a nonempty oracle enumeration.
        from apxpat.generators import gen_random_separated

        for seed in range(5):
            s = gen_random_separated(1, 60.0, 1.0, 20, seed)
            out = search_ap(s, 3, 1 / 3, 1.0, 1 / 3)
            if out.found:
                assert enumerate_aps(s, 3, 1 / 3)


class TestEnumerateHomothetic:
    def test_exact_copy_found(self):
        p = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        pts = [(5.0, 5.0), (7.0, 5.0), (5.0, 7.0), (30.0, -4.0), (-20.0, 11.0)]
        s = PointSet(2, pts)
        hits = enumerate_homothetic(s, p, 0.1)
        assert any(set(sub) == {0, 1, 2} for sub, _ in hits)

    def test_matches_enumerate_aps_on_eighth_set(self):
        s = gen_adversarial_ap3(6, "eighth")
        p = Pattern(1, [(0,), (1,), (2,)])
        assert enumerate_homothetic(s, p, 0.25) == []
        assert enumerate_aps(s, 3, 0.25) == []

    def test_cross_oracle_agreement_1d(self):
        rng = random.Random(13)
        p = Pattern(1, [(0,), (1,), (2,)])
        for _ in range(50):
            vals = sorted(rng.uniform(0, 8) for _ in range(6))
            if any(b - a < 1e-3 for a, b in zip(vals, vals[1:])):
                continue
            s = PointSet(1, [(v,) for v in vals])
            eps = rng.uniform(0.05, 1 / 3)
            ap_sets = {hit for hit in enumerate_aps(s, 3, eps)}
            hom_sets = {sub for sub, _ in enumerate_homothetic(s, p, eps)}
            # Skip near-boundary instances where solver tolerances may differ.
            boundary = {
                hit
                for hit in ap_sets ^ hom_sets
                if abs(
                    verify_ap([s[i].coords[0] for i in hit], eps).max_relative_deviation - eps
                ) < 1e-6
            }
            assert ap_sets ^ hom_sets == boundary, (vals, eps)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_progression_hits_are_the_aps(self, k):
        # With eps <= 1/3 an accepted 1-D homothety keeps the order, so the
        # unit k-term progression's hits are enumerate_aps's index sets,
        # each under its sorted assignment.  Dart-thrown sets, half of them
        # with a jittered progression shuffled in.
        rng = random.Random(80 + k)
        p = Pattern(1, [(i,) for i in range(k)])
        hits = 0
        for seed in range(8):
            rows = gen_random_separated(1, 16.0, 1.0, 8, seed).coords[:, 0].tolist()
            if seed % 2:
                a, r = rng.uniform(-4, 4), rng.uniform(1.0, 3.0)
                rows[:k] = [a + r * (i + rng.uniform(-0.2, 0.2)) for i in range(k)]
                rng.shuffle(rows)
            s = PointSet(1, [(v,) for v in rows])
            for eps in (0.1, 0.25, 1 / 3):
                aps = {frozenset(hit) for hit in enumerate_aps(s, k, eps)}
                found = enumerate_homothetic(s, p, eps)
                assert {frozenset(sub) for sub, _ in found} == aps, (rows, eps)
                for sub, sigma in found:
                    xs = [rows[i] for i in sub]
                    assert list(sigma) == [sorted(xs).index(x) for x in xs]
                hits += len(aps)
        assert hits >= 100

    def test_distance_ratio_filter_matches_unfiltered_on_pattern_node_sets(self):
        # The sets of test_small_finds_confirmed_by_the_oracle.
        rng = random.Random(8)
        hits = 0
        for trial in range(12):
            p = Pattern(2, PATTERNS[("triangle", "skew triangle", "L-shape")[trial % 3]])
            K, eps_g = pattern_grid_resolution(p, 1 / 3)
            stride = schedule_nd(2, K, 0.5, 0.5, eps_g).s
            s = _small_instance(rng, p, K, stride, planted=trial % 4 != 3)
            want = _unfiltered_enumerate_homothetic(s, p, 1 / 3)
            assert enumerate_homothetic(s, p, 1 / 3) == want
            hits += len(want)
        assert hits >= 9

    def test_distance_ratio_filter_matches_unfiltered_fuzz(self):
        # Noisy copies of random patterns (d = 1..3, |P| = 2..4) at noise
        # around eps, among random points, so many subsets sit near the
        # boundary of acceptance.
        rng = random.Random(41)
        hits = 0
        for _ in range(30):
            d, k = rng.randint(1, 3), rng.randint(2, 4)
            pts = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(k)]
            p = Pattern(d, pts)
            eps = rng.choice([0.05, 0.15, 0.25, 1 / 3])
            lam = math.exp(rng.uniform(-2, 2))
            noise = rng.uniform(0.5, 1.5) * eps * p.min_pairwise * lam / math.sqrt(d)
            rows = [tuple(lam * c + rng.uniform(-noise, noise) for c in row) for row in pts]
            rows += [tuple(rng.uniform(-3, 3) * lam for _ in range(d)) for _ in range(5 - k)]
            rng.shuffle(rows)
            s = PointSet(d, rows)
            want = _unfiltered_enumerate_homothetic(s, p, eps)
            assert enumerate_homothetic(s, p, eps) == want
            hits += len(want)
        assert hits >= 30

    def test_budget_and_size_caps(self):
        p = Pattern(1, [(float(i),) for i in range(9)])
        s = PointSet(1, [(float(i),) for i in range(12)])
        with pytest.raises(BudgetExceeded):
            enumerate_homothetic(s, p, 0.1)


def _unfiltered_enumerate_homothetic(s, p, eps):
    """enumerate_homothetic before its distance-ratio filter: every
    (subset, assignment) pair goes to the verifier."""
    k = len(p)
    hits = []
    rows = [tuple(row) for row in s.coords.tolist()]
    for combo in combinations(range(len(s)), k):
        if len({rows[i] for i in combo}) != k:
            continue
        candidate = s.subset(combo)
        for sigma in permutations(range(k)):
            if verify_homothetic(candidate, p, sigma, eps).accepted:
                hits.append((combo, sigma))
                break
    return hits


class TestExistsCollinear:
    def test_line_present(self):
        s = PointSet(2, [(0, 0), (1, 1), (2, 2), (5, 1)])
        assert exists_collinear(s, 3, 0.05)

    def test_pentagon_absent(self):
        import math

        pent = PointSet(
            2,
            [(math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5)) for i in range(5)],
        )
        assert not exists_collinear(pent, 5, 0.01)

    def test_finder_implies_oracle(self):
        from apxpat.collinear import find_collinear

        pts = [(i * 0.1, 0.25 * i * 0.1 + 0.01 * ((-1) ** i) * 0.001) for i in range(12)]
        s = PointSet(2, pts)
        res = find_collinear(s, 5, 0.1)
        if res.found:
            assert exists_collinear(s, 5, 0.1)

    def test_budget(self):
        s = PointSet(2, [(float(i), float(i % 3)) for i in range(40)])
        with pytest.raises(BudgetExceeded):
            exists_collinear(s, 10, 0.1, budget=10)

    def test_matches_every_subset_through_verify_collinear(self):
        # The definition: some k-subset passes verify_collinear.  A third
        # of the sets hold a jittered line through their first m points.
        rng = random.Random(11)
        found = 0
        for trial in range(150):
            n, d = rng.randint(3, 9), rng.choice([2, 3])
            k, eps = rng.randint(3, min(n, 6)), rng.choice([0.05, 0.1, 0.3])
            pts = [[rng.uniform(0, 1) for _ in range(d)] for _ in range(n)]
            if trial % 3 == 0:
                m, u = rng.randint(3, n), [rng.uniform(-1, 1) for _ in range(d)]
                for i in range(m):
                    pts[i] = [i / m * v + rng.uniform(-1e-3, 1e-3) for v in u]
            s = PointSet(d, pts)
            want = any(verify_collinear(s.subset(c), eps)[0]
                       for c in combinations(range(n), k))
            assert exists_collinear(s, k, eps) == want
            found += want
        assert 30 <= found <= 120

    def test_evaluates_each_triangle_once(self, monkeypatch):
        from apxpat import oracle

        calls = []
        real = oracle.triangle_angles
        monkeypatch.setattr(oracle, "triangle_angles", lambda *p: calls.append(str(p)) or real(*p))
        s = PointSet(2, [(math.cos(t), math.sin(t)) for t in np.linspace(0, 6, 18)])
        assert not exists_collinear(s, 5, 0.1)
        assert 0 < len(calls) == len(set(calls)) <= math.comb(18, 3)

    def test_rejects_duplicate_points_and_bad_eps(self):
        s = PointSet(2, [(0, 0), (1, 1), (0, 0), (3, 3)])
        with pytest.raises(ValueError, match="duplicate"):
            exists_collinear(s, 3, 0.1)
        with pytest.raises(ValueError, match="eps"):
            exists_collinear(PointSet(2, [(0, 0), (1, 1), (2, 2)]), 3, 1.5)


def _dense_grid_min_deviation_ap(q, grid=2000):
    """The AP grid oracle before the V-shape window: every (a, r) cell of
    both passes evaluated, the first minimum in (a, r) order kept."""
    vals = np.asarray([float(v) for v in q], dtype=float)
    k = len(vals)
    span = float(vals[-1] - vals[0])
    idx = np.arange(k, dtype=float)
    a_lo, a_hi = vals[0] - span, vals[0] + span
    r_lo, r_hi = span / (k - 1) / 4.0, span / (k - 1) * 4.0
    best = math.inf
    best_a = best_r = None
    for _pass in range(2):
        a_grid = np.linspace(a_lo, a_hi, grid)
        r_grid = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), grid))
        shifted = vals[None, :] - r_grid[:, None] * idx[None, :]
        u_max = shifted.max(axis=1)
        u_min = shifted.min(axis=1)
        for start in range(0, grid, 256):
            a_blk = a_grid[start : start + 256, None]
            dev = np.maximum(u_max[None, :] - a_blk, a_blk - u_min[None, :])
            dev /= r_grid[None, :]
            pos = np.unravel_index(int(dev.argmin()), dev.shape)
            if float(dev[pos]) < best:
                best = float(dev[pos])
                best_a = float(a_grid[start + pos[0]])
                best_r = float(r_grid[pos[1]])
        a_step = (a_hi - a_lo) / (grid - 1)
        log_step = (math.log(r_hi) - math.log(r_lo)) / (grid - 1)
        a_lo, a_hi = best_a - 2 * a_step, best_a + 2 * a_step
        r_lo, r_hi = best_r * math.exp(-2 * log_step), best_r * math.exp(2 * log_step)
    return best


class TestGridOracles:
    def test_ap_grid_matches_dense_reference(self):
        # Bit-identical floats: the windowed oracle evaluates the same cells
        # near each r's turning point with the same arithmetic.
        rng = random.Random(12)
        checked = 0
        while checked < 200:
            k = rng.randint(3, 6)
            if rng.random() < 0.5:
                a, r0 = rng.uniform(-5, 5), rng.uniform(0.5, 3)
                q = sorted(a + i * r0 + rng.uniform(-0.4, 0.4) * r0 for i in range(k))
            else:
                q = sorted(rng.uniform(0, 10) for _ in range(k))
            if any(b - a < 1e-5 for a, b in zip(q, q[1:])):
                continue
            grid = 2000 if checked % 25 == 0 else rng.choice([64, 256, 512])
            assert grid_min_deviation_ap(q, grid=grid) == _dense_grid_min_deviation_ap(q, grid), q
            checked += 1
        for variant, eps in (("xi", 0.25), ("eighth", None)):
            vals = sorted(p.coords[0] for p in gen_adversarial_ap3(8, variant, eps).points)
            for triple in combinations(vals, 3):
                assert (grid_min_deviation_ap(triple, grid=512)
                        == _dense_grid_min_deviation_ap(triple, 512)), triple

    def test_ap_grid_matches_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            k = rng.choice([3, 4])
            q = sorted(rng.uniform(0, 10) for _ in range(k))
            if any(b - a < 1e-4 for a, b in zip(q, q[1:])):
                continue
            g = grid_min_deviation_ap(q)
            v = verify_ap(q, 1 / 3).max_relative_deviation
            assert g >= v - 1e-9
            assert g <= v + 2e-3

    def test_hom_grid_frozen_values(self):
        sq = Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        q = PointSet(2, [(0.2, -0.2), (1.2, 0.2), (-0.2, 1.2), (0.8, 0.8)])
        d = grid_min_deviation_homothety(q, sq, range(4))
        assert d == pytest.approx(0.2 * 2**0.5, abs=1e-3)
        col = PointSet(2, [(0, 0), (1, 0), (2, 0), (3, 0)])
        assert grid_min_deviation_homothety(col, sq, range(4)) > 1 / 3
