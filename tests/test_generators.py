import math
import time
from itertools import product

import pytest

from apxpat import bounds
from apxpat.bounds import ball_volume
from apxpat.errors import InfeasibleGeneration
from apxpat.generators import (
    _packs,
    gen_adversarial_ap3,
    gen_jittered_lattice,
    gen_random_separated,
)
from apxpat.geometry import min_pairwise_distance
from apxpat.pointio import write_pointset


class TestRandomSeparated:
    def test_separation_and_count(self):
        s = gen_random_separated(1, 100.0, 1.0, 50, 7)
        assert len(s) == 50
        assert min_pairwise_distance(s) >= 1.0

    def test_2d_separation(self):
        s = gen_random_separated(2, 30.0, 1.0, 150, 3)
        assert len(s) == 150
        assert min_pairwise_distance(s) >= 1.0
        for p in s:
            assert all(0 <= c < 30.0 for c in p.coords)

    def test_packing_infeasible(self):
        with pytest.raises(InfeasibleGeneration):
            gen_random_separated(1, 10.0, 1.0, 100, 0)

    def test_full_box_fails_fast(self):
        # Nine or ten points fill the 3 x 3 box; the run stops once the
        # accepted set is provably maximal instead of after 14 * 10^6
        # attempts.
        start = time.perf_counter()
        with pytest.raises(InfeasibleGeneration, match=r"accepted only (9|10)/14 points"):
            gen_random_separated(2, 3.0, 1.0, 14, 0)
        assert time.perf_counter() - start < 1.0

    def test_volume_past_float_range(self):
        # (length + delta)^2 overflows a float: the cube has room for any
        # count, and the cell grid still fits in Python ints.
        assert len(gen_random_separated(2, 1e200, 1.0, 3, 0)) == 3

    @pytest.mark.parametrize("count, d, length, delta", [
        (100, 2, 3e-179, 1e-179), (1000, 3, 3e120, 1e120), (100, 2, 3.0, 1.0)])
    def test_packing_infeasible_at_every_scale(self, count, d, length, delta):
        # The volumes of the first two, taken in the input's units,
        # underflow to 0 and overflow to inf.
        start = time.perf_counter()
        with pytest.raises(InfeasibleGeneration, match="cannot pack"):
            gen_random_separated(d, length, delta, count, 0)
        assert time.perf_counter() - start < 1.0

    def test_packing_verdicts_at_normal_scales(self):
        def volumes_in_input_units(count, d, length, delta):
            return count * ball_volume(d, delta / 2.0) <= (length + delta) ** d

        for d, length, delta in product(range(1, 6), (1.0, 1.5, 3.0, 10.0, 13122.0, 0.3),
                                        (0.1, 0.5, 1.0, 2.0)):
            room = (length + delta) ** d / ball_volume(d, delta / 2.0)
            for count in {1, 2, max(1, math.floor(room)), math.floor(room) + 1, 10**6}:
                assert _packs(count, d, length, delta) == volumes_in_input_units(
                    count, d, length, delta), (count, d, length, delta)
        assert not _packs(10**400, 1, 3.0, 1.0)

    def test_deterministic(self):
        a = gen_random_separated(2, 25.0, 0.8, 80, 42)
        b = gen_random_separated(2, 25.0, 0.8, 80, 42)
        assert a == b
        assert write_pointset(a) == write_pointset(b)

    def test_different_seeds_differ(self):
        a = gen_random_separated(1, 50.0, 1.0, 20, 1)
        b = gen_random_separated(1, 50.0, 1.0, 20, 2)
        assert a != b


class TestJitteredLattice:
    def test_zero_jitter_gives_centers(self):
        s = gen_jittered_lattice(2, 4.0, 0.0, 9)
        assert len(s) == 16
        coords = {p.coords for p in s}
        expected = {(i + 0.5, j + 0.5) for i in range(4) for j in range(4)}
        assert coords == expected

    def test_separation_bound(self):
        s = gen_jittered_lattice(2, 10.0, 0.4, 5)
        assert min_pairwise_distance(s) >= 0.2 - 1e-12

    def test_every_unit_cell_occupied(self):
        s = gen_jittered_lattice(2, 8.0, 0.45, 13)
        cells = {(math.floor(p[0]), math.floor(p[1])) for p in s}
        assert cells == {(i, j) for i in range(8) for j in range(8)}

    def test_occupancy_of_side2_cubes(self):
        # Every axis-aligned square of side >= 2 inside the domain holds a point.
        s = gen_jittered_lattice(2, 6.0, 0.3, 21)
        pts = [p.coords for p in s]
        for ox in (0.0, 0.7, 1.9, 3.3):
            for oy in (0.0, 1.1, 2.8):
                assert any(ox <= x <= ox + 2 and oy <= y <= oy + 2 for x, y in pts)

    def test_invalid_jitter(self):
        with pytest.raises(ValueError):
            gen_jittered_lattice(2, 5.0, 0.5, 0)
        with pytest.raises(ValueError):
            gen_jittered_lattice(2, 0.5, 0.1, 0)

    def test_deterministic(self):
        assert gen_jittered_lattice(2, 7.0, 0.3, 5) == gen_jittered_lattice(2, 7.0, 0.3, 5)

    def test_sets_past_the_memory_figure_are_infeasible(self, monkeypatch):
        # 50 points of dimension 2 take 800 bytes; the generators read the
        # one figure in bounds.
        monkeypatch.setattr(bounds, "_MEMORY", 799)
        with pytest.raises(InfeasibleGeneration, match="50 points of dimension 2 do not fit"):
            gen_random_separated(2, 20.0, 1.0, 50, 0)
        with pytest.raises(InfeasibleGeneration, match="a lattice of 10\\^2 points does not fit"):
            gen_jittered_lattice(2, 10.5, 0.0, 0)
        monkeypatch.setattr(bounds, "_MEMORY", 800)
        assert len(gen_random_separated(2, 20.0, 1.0, 50, 0)) == 50

    def test_lattice_past_memory_is_infeasible(self):
        # 10^15 and 3^30 cells: each allocation fails at once.
        for d, length in ((3, 1e5), (30, 3.0)):
            with pytest.raises(InfeasibleGeneration, match="does not fit in memory"):
                gen_jittered_lattice(d, length, 0.0, 0)


class TestAdversarial:
    def test_xi_variant_values(self):
        s = gen_adversarial_ap3(4, "xi", 0.25)
        vals = s.values()
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(1 / 12, rel=1e-15)
        assert vals[2] == pytest.approx(1 / 144, rel=1e-15)
        assert vals[3] == pytest.approx(1 / 1728, rel=1e-15)

    def test_eighth_variant_values(self):
        s = gen_adversarial_ap3(3, "eighth")
        assert s.values() == (1.0, 0.125, 0.015625)

    def test_points_in_unit_interval(self):
        for variant, eps in (("xi", 0.1), ("xi", 0.0), ("eighth", None)):
            s = gen_adversarial_ap3(10, variant, eps)
            assert all(0 < p.coords[0] <= 1 for p in s)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            gen_adversarial_ap3(5, "xi", 1 / 3)
        with pytest.raises(ValueError):
            gen_adversarial_ap3(5, "xi", None)
        with pytest.raises(ValueError):
            gen_adversarial_ap3(2, "eighth")
        with pytest.raises(ValueError):
            gen_adversarial_ap3(5, "nope")

    def test_terms_stay_distinct_positive_floats(self):
        # 8^-358 = 2^-1074 is the smallest subnormal; 8^-359 is 0.
        vals = gen_adversarial_ap3(359, "eighth").values()
        assert vals[-1] == 2.0**-1074 and len(set(vals)) == 359
        for n, variant, eps in ((360, "eighth", None), (2000, "eighth", None),
                                (700, "xi", 0.1)):
            with pytest.raises(ValueError, match="distinct positive floats"):
                gen_adversarial_ap3(n, variant, eps)

    def test_no_approximate_ap_oracle(self):
        from apxpat.oracle import enumerate_aps

        s = gen_adversarial_ap3(8, "eighth")
        assert enumerate_aps(s, 3, 0.25) == []
        for eps in (0.0, 0.1, 0.2, 0.3):
            s = gen_adversarial_ap3(8, "xi", eps)
            assert enumerate_aps(s, 3, eps) == []
