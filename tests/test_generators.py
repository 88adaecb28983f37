import math

import pytest

from apxpat.errors import InfeasibleGeneration
from apxpat.generators import (
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

    def test_volume_past_float_range(self):
        # (length + delta)^2 overflows a float: the cube has room for any
        # count, and the cell grid still fits in Python ints.
        assert len(gen_random_separated(2, 1e200, 1.0, 3, 0)) == 3

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

    def test_no_approximate_ap_oracle(self):
        from apxpat.oracle import enumerate_aps

        s = gen_adversarial_ap3(8, "eighth")
        assert enumerate_aps(s, 3, 0.25) == []
        for eps in (0.0, 0.1, 0.2, 0.3):
            s = gen_adversarial_ap3(8, "xi", eps)
            assert enumerate_aps(s, 3, eps) == []
