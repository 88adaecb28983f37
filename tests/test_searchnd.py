import io
import json
import math
import random
import time
import tracemalloc
from contextlib import redirect_stdout
from itertools import product

import numpy as np
import pytest

from apxpat.bounds import schedule_nd
from apxpat.cli import main
from apxpat.errors import ResolutionOverflow
from apxpat.generators import gen_jittered_lattice, gen_random_separated
from apxpat.geometry import Pattern, PointSet, apply_homothety
from apxpat.pointio import write_pointset
from apxpat.search1d import search_ap
from apxpat.searchnd import (SearchOutcome, StepDescend, StepSuccess, pattern_grid_resolution,
                             search_grid, search_pattern)


def test_jittered_lattice_step0_success():
    # Cells of side 2 each contain a full unit lattice cell, hence a point.
    s = gen_jittered_lattice(2, 30, 0.4, 5)
    out = search_grid(s, 3, 1 / 3, 0.2, 1.0)
    assert out.found
    assert len(out.trace.steps) == 1
    act = out.trace.steps[0].action
    assert isinstance(act, StepSuccess)
    assert act.t == (0, 0)
    assert out.verify.accepted


def test_exact_grid_zero_deviation():
    # Exact 2-grid with spacing s*x placed at cell first-vertices.
    pts = [(10.0 * i, 10.0 * j) for i in range(2) for j in range(2)]
    pts += [(37.0, 41.0), (51.0, 3.0)]
    s = PointSet(2, pts)
    out = search_grid(s, 2, 1 / 3, 1.0, 0.001, lo=(0.0, 0.0), length=100.0)
    if out.found:
        assert out.verify.max_relative_deviation <= 1 / out.schedule.s + 1e-9


def test_success_points_within_cell_diagonal_of_anchors():
    s = gen_jittered_lattice(2, 30, 0.35, 11)
    out = search_grid(s, 3, 1 / 3, 0.3, 1.0)
    assert out.found
    step = out.trace.steps[-1]
    x = step.side / (out.schedule.k * out.schedule.s)
    for anc, ci in zip(step.action.anchors, step.action.chosen):
        d = math.dist(anc.coords, s.points[ci].coords)
        assert d <= x * math.sqrt(2) + 1e-12
        assert x * math.sqrt(2) <= out.schedule.eps * out.schedule.s * x + 1e-12


def test_grid_dim1_matches_search_ap_semantics():
    s = gen_random_separated(1, 150.0, 1.0, 50, 17)
    g = search_grid(s, 3, 0.2, 1.0, 1 / 3)
    a = search_ap(s, 3, 0.2, 1.0, 1 / 3)
    # Same s (ceil(sqrt(1)/eps) == ceil(1/eps)) hence identical subdivision.
    assert g.schedule.s == a.schedule.s
    assert g.found == a.found
    if g.found:
        assert g.subset == a.subset


def test_soundness_fuzz_2d():
    rng = random.Random(7)
    for trial in range(25):
        length = rng.uniform(10, 30)
        delta = rng.uniform(0.4, 1.0)
        n = max(4, int(min(0.25 * length**2 / delta**2, 120)))
        s = gen_random_separated(2, length, delta, n, 6000 + trial)
        k = rng.choice([2, 3])
        eps = rng.uniform(0.12, 1 / 3)
        out = search_grid(s, k, eps, delta, n / length**2)
        sch = out.schedule
        assert len(out.trace.steps) <= sch.j
        ks = sch.k * sch.s
        for prev, nxt in zip(out.trace.steps, out.trace.steps[1:]):
            assert isinstance(prev.action, StepDescend)
            x = prev.side / ks
            assert nxt.side == x
            for a in range(2):
                assert nxt.low.coords[a] == prev.low.coords[a] + prev.action.cell[a] * x
            assert nxt.count * (sch.k**2 - 1) * sch.s**2 >= prev.count
        if out.found:
            assert out.verify.accepted
            assert len(set(out.subset)) == k**2


def test_cell_partition_exactness():
    # Counts at each step sum to the active total (records carry the count).
    s = gen_random_separated(2, 20.0, 0.5, 100, 3)
    out = search_grid(s, 2, 0.25, 0.5, 0.25)
    steps = out.trace.steps
    for prev, nxt in zip(steps, steps[1:]):
        assert nxt.count <= prev.count


class TestPatternResolution:
    def test_pair_pattern(self):
        K, eg = pattern_grid_resolution(Pattern(1, [(0,), (1,)]), 1 / 3)
        assert K == 5
        assert eg == pytest.approx(1 / 6)

    def test_unit_square(self):
        K, eg = pattern_grid_resolution(
            Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)]), 1 / 3
        )
        assert K == 7

    def test_monotone_in_eps(self):
        p = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        ks = [pattern_grid_resolution(p, e)[0] for e in (1 / 3, 0.2, 0.1, 0.05)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_distinct_nodes_fuzz(self):
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randint(2, 5)
            pts = set()
            while len(pts) < k:
                pts.add((round(rng.uniform(0, 3), 3), round(rng.uniform(0, 3), 3)))
            try:
                p = Pattern(2, sorted(pts))
            except ValueError:
                continue
            if p.min_pairwise < 0.05:
                continue
            K, eg = pattern_grid_resolution(p, rng.uniform(0.1, 1 / 3))
            d_inf = max(
                max(c[a] for c in p.points for c in [c.coords]) - min(c.coords[a] for c in p.points)
                for a in range(2)
            )
            p_lo = [min(c.coords[a] for c in p.points) for a in range(2)]
            nodes = {
                tuple(int(round((pt.coords[a] - p_lo[a]) * (K - 1) / d_inf)) for a in range(2))
                for pt in p.points
            }
            assert len(nodes) == k


class TestSearchPattern:
    def test_grid_pattern_is_fixed_point(self):
        # A {0..k-1}^d pattern reduces to a plain grid search.
        p = Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        s = gen_jittered_lattice(2, 130, 0.3, 2)
        out = search_pattern(s, p, 1 / 3, 0.4, 1.0)
        assert out.found
        assert out.verify.accepted
        assert len(out.subset) == 4

    def test_right_triangle_on_dense_lattice(self):
        tri = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        s = gen_jittered_lattice(2, 130, 0.3, 3)
        out = search_pattern(s, tri, 1 / 3, 0.4, 1.0)
        assert out.found
        assert out.verify.accepted
        # anchors are the exact homothetic copy under the reported witness
        for anc, img in zip(out.anchors, apply_homothety(out.homothety, tri)):
            assert math.dist(anc.coords, img.coords) < 1e-9

    def test_coincident_pattern_points_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Pattern(2, [(0, 0), (0, 0), (1, 1)])

    def test_resolution_overflow(self):
        p = Pattern(1, [(0,), (1e-5,), (1.0,)])
        s = PointSet(1, [(float(i),) for i in range(0, 40, 2)])
        with pytest.raises(ResolutionOverflow):
            search_pattern(s, p, 1 / 3, 1.0, 0.5)

    def test_1d_pattern(self):
        p = Pattern(1, [(0.0,), (1.0,), (3.0,)])
        s = gen_jittered_lattice(1, 400, 0.2, 8)
        out = search_pattern(s, p, 1 / 3, 0.6, 1.0)
        if out.found:
            assert out.verify.accepted
            assert out.reduction.grid_k >= 4

    def test_not_found_reports_reduction(self):
        p = Pattern(2, [(0, 0), (1, 0), (0, 1)])
        s = gen_random_separated(2, 12.0, 1.0, 20, 77)
        out = search_pattern(s, p, 0.3, 1.0, 20 / 144.0)
        assert out.reduction is not None
        if out.found:
            assert out.verify.accepted


def test_determinism_grid():
    s = gen_jittered_lattice(2, 30, 0.4, 12)
    a = search_grid(s, 3, 1 / 3, 0.2, 1.0)
    b = search_grid(s, 3, 1 / 3, 0.2, 1.0)
    assert a == b


def _dense_reference(s, k, sch):
    """The scan the residue count replaced: a dense (k*s)^d counts array and
    the s^d systems tried in lexicographic order.  One tuple per step:
    (box low, side, count, t or descend cell, chosen or None)."""
    coords = np.asarray([p.coords for p in s.points], dtype=float)
    d = s.dim
    ks = k * sch.s
    lo = coords.min(axis=0)
    side = float((coords.max(axis=0) - lo).max())
    active = np.arange(len(coords))
    steps = []
    for _ in range(sch.j):
        if len(active) < k**d:
            break
        x = side / ks
        idx = np.clip(np.floor((coords[active] - lo) / x).astype(np.int64), 0, ks - 1)
        counts = np.zeros((ks,) * d, dtype=np.int64)
        np.add.at(counts, tuple(idx.T), 1)
        hit = next((t for t in product(range(sch.s), repeat=d)
                    if (counts[tuple(slice(ta, None, sch.s) for ta in t)] > 0).all()), None)
        if hit is not None:
            chosen = tuple(
                int(min(i for i, cell in zip(active, idx)
                        if all(cell == np.add(hit, np.multiply(m, sch.s)))))
                for m in product(range(k), repeat=d)
            )
            steps.append((tuple(lo), side, len(active), hit, chosen))
            break
        best = tuple(int(v) for v in np.unravel_index(counts.argmax(), counts.shape))
        steps.append((tuple(lo), side, len(active), best, None))
        active = active[np.all(idx == best, axis=1)]
        lo = lo + np.asarray(best) * x
        side = x
    return steps


def _steps(out):
    rows = []
    for st in out.trace.steps:
        act = st.action
        if isinstance(act, StepSuccess):
            rows.append((st.low.coords, st.side, st.count, act.t, act.chosen))
        else:
            rows.append((st.low.coords, st.side, st.count, act.cell, None))
    return rows


def test_residue_scan_matches_dense_reference():
    rng = random.Random(41)
    found = 0
    for trial in range(60):
        d = trial % 3 + 1
        length = rng.uniform(8, 40) if d > 1 else rng.uniform(20, 200)
        delta = rng.uniform(0.4, 1.0)
        n = max(4, int(min(rng.uniform(0.1, 0.5) * (length / delta) ** d, 150)))
        if trial % 5 == 4:
            s = gen_jittered_lattice(d, length if d < 3 else 9.0, 0.3, trial)
            delta = 0.4
        else:
            s = gen_random_separated(d, length, delta, n, 300 + trial)
        k = rng.choice([3, 4]) if d == 1 else rng.choice([2, 3])
        eps = rng.uniform(0.15, 1 / 3)
        c = rng.uniform(0.05, 0.5)
        if d == 1:
            out = search_ap(s, k, eps, delta, c)
            ref = [(lo, side, n_, h[0], ch) for lo, side, n_, h, ch
                   in _dense_reference(s, k, schedule_nd(1, k, c, delta, eps))]
        else:
            out = search_grid(s, k, eps, delta, c)
            ref = _dense_reference(s, k, schedule_nd(d, k, c, delta, eps))
        assert _steps(out) == ref, trial
        assert out.found == (bool(ref) and ref[-1][4] is not None)
        found += out.found
    assert 10 <= found <= 50


def test_dimension_8_runs_in_linear_memory():
    # The dense (k*s)^d counts array that the residue scan replaced needed
    # 18^8 int64 cells (82 GiB) on this input of 256 points.
    s = gen_jittered_lattice(8, 2.0, 0.1, 1)
    tracemalloc.start()
    try:
        out = search_grid(s, 2, 1 / 3, 0.2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, SearchOutcome)
    assert peak < 50 * 2**20


def test_dimension_30_does_no_k_to_the_d_work():
    # 2^30 grid points: neither a counts array nor the unit grid pattern
    # may be built before a success, which 40 points cannot reach.
    s = gen_random_separated(30, 4.0, 1.0, 40, 3)
    start = time.perf_counter()
    out = search_grid(s, 2, 1 / 3, 1.0, 0.5)
    assert time.perf_counter() - start < 1.0
    assert not out.found
    assert out.warnings[-1] == "active point count fell below k^d; stopping early"


def test_cli_grid_search_at_dimension_8(tmp_path):
    path = tmp_path / "lattice-8d.txt"
    path.write_bytes(write_pointset(gen_jittered_lattice(8, 2.0, 0.1, 1)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["search", "grid", "--input", str(path), "--k", "2",
                     "--eps", repr(1 / 3), "--delta", "0.2", "--c", "1.0", "--json"])
    assert code in (0, 1)
    assert json.loads(buf.getvalue())["found"] == (code == 0)
