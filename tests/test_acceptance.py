"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Budgets are wall-clock caps from the requirements; the
functional assertions allow zero failures."""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from itertools import combinations

from apxpat.bounds import ball_volume, kappa, schedule_nd
from apxpat.cli import main
from apxpat.collinear import find_collinear
from apxpat.generators import (
    gen_adversarial_ap3,
    gen_jittered_lattice,
    gen_random_separated,
)
from apxpat.geometry import Pattern, PointSet, diameter
from apxpat.oracle import enumerate_aps, exists_collinear
from apxpat.search1d import search_ap
from apxpat.searchnd import StepDescend, StepSuccess, search_grid, search_pattern
from apxpat.verifier import verify_ap, verify_collinear, verify_homothetic

from _reference import cylinder_radius, grid_min_deviation_ap, grid_min_deviation_homothety
from test_collinear import planted_tube_instance


def _report(n: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"


def test_acceptance_1_guarantee_at_threshold_scale():
    t0 = time.perf_counter()
    sch = schedule_nd(1, 3, 0.4, 1.0, 1 / 3)
    assert sch.z0 == 13122.0 and sch.j == 4
    target = math.ceil(0.4 * 13122)
    assert target == 5249
    for seed in range(20):
        s = gen_random_separated(1, 13122.0, 1.0, target, seed)
        out = search_ap(s, 3, 1 / 3, 1.0, 0.4, lo=0.0, length=13122.0)
        assert out.found, f"seed {seed}: the threshold-scale guarantee was violated"
        assert len(out.trace.steps) <= 4
        assert out.verify.accepted
        check = verify_ap(sorted(s[i].coords[0] for i in out.subset), 1 / 3)
        assert check.accepted
    _report(1, "guarantee at threshold scale (20/20 seeds)", t0, 10.0)


def test_acceptance_2_adversarial_sets_have_no_ap():
    t0 = time.perf_counter()
    for variant, eps in (("xi", 0.25), ("eighth", None)):
        s = gen_adversarial_ap3(8, variant, eps)
        assert enumerate_aps(s, 3, 0.25) == []
        vals = sorted(p.coords[0] for p in s.points)
        count = 0
        for triple in combinations(vals, 3):
            assert not verify_ap(triple, 0.25).accepted
            assert grid_min_deviation_ap(triple, grid=512) > 0.25
            count += 1
        assert count == 56
    _report(2, "adversarial geometric sets admit no 3-term AP", t0, 1.0)


def test_acceptance_3_constants():
    t0 = time.perf_counter()
    assert kappa(2) == 3
    assert kappa(1) == 2
    assert abs(ball_volume(2, 1.0) - math.pi) <= 1e-12 * math.pi
    assert abs(ball_volume(3, 1.0) - 4 * math.pi / 3) <= 1e-12 * (4 * math.pi / 3)
    _report(3, "constants kappa/volumes", t0, 1.0)


def test_acceptance_4_grid_deterministic_success():
    t0 = time.perf_counter()
    for seed in range(10):
        s = gen_jittered_lattice(2, 30.0, 0.4, seed)
        out = search_grid(s, 3, 1 / 3, 0.2, 1.0)
        assert out.found, f"seed {seed}"
        assert len(out.trace.steps) == 1
        act = out.trace.steps[0].action
        assert isinstance(act, StepSuccess) and act.t == (0, 0)
        assert out.verify.accepted
    _report(4, "d=2 jittered lattice step-0 success (10/10)", t0, 2.0)


def _check_trace(out, dim: int) -> None:
    sch = out.schedule
    assert len(out.trace.steps) <= sch.j
    ks = sch.k * sch.s
    shrink = (sch.k**dim - 1) * sch.s**dim
    for prev, nxt in zip(out.trace.steps, out.trace.steps[1:]):
        assert isinstance(prev.action, StepDescend)
        x = prev.side / ks
        assert nxt.side == x  # side ratio exactly ks
        cell = prev.action.cell if dim > 1 else (prev.action.cell,)
        for a in range(dim):
            assert nxt.low.coords[a] == prev.low.coords[a] + cell[a] * x
        assert nxt.count * shrink >= prev.count  # pigeonhole


def test_acceptance_5_soundness_fuzz_1000():
    t0 = time.perf_counter()
    runs = 0
    found = 0
    for trial in range(500):
        rng = random.Random(10_000 + trial)
        length = rng.uniform(20, 150)
        delta = rng.uniform(0.3, 1.2)
        n = max(3, int(min(0.5 * length / delta, 60)))
        s = gen_random_separated(1, length, delta, n, 20_000 + trial)
        k = rng.choice([3, 4])
        eps = rng.uniform(0.06, 1 / 3)
        out = search_ap(s, k, eps, delta, n / length)
        _check_trace(out, 1)
        if out.found:
            found += 1
            assert out.verify.accepted
            assert len(set(out.subset)) == k
        runs += 1
    for trial in range(400):
        rng = random.Random(30_000 + trial)
        length = rng.uniform(8, 30)
        delta = rng.uniform(0.4, 1.0)
        n = max(4, int(min(0.3 * length**2 / delta**2, 120)))
        s = gen_random_separated(2, length, delta, n, 40_000 + trial)
        k = rng.choice([2, 3])
        eps = rng.uniform(0.12, 1 / 3)
        out = search_grid(s, k, eps, delta, n / length**2)
        _check_trace(out, 2)
        if out.found:
            found += 1
            assert out.verify.accepted
            assert len(set(out.subset)) == k**2
        runs += 1
    patterns = [
        Pattern(2, [(0, 0), (1, 0), (0, 1)]),
        Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
        Pattern(1, [(0,), (1,), (2.5,)]),
    ]
    for trial in range(100):
        rng = random.Random(50_000 + trial)
        p = patterns[trial % len(patterns)]
        eps = rng.uniform(0.2, 1 / 3)
        if p.dim == 2:
            s = gen_jittered_lattice(2, rng.choice([20, 30]), 0.35, 60_000 + trial)
            out = search_pattern(s, p, eps, 0.3, 1.0)
        else:
            s = gen_random_separated(1, 120.0, 1.0, 45, 70_000 + trial)
            out = search_pattern(s, p, eps, 1.0, 45 / 120.0)
        _check_trace(out, p.dim)
        if out.found:
            found += 1
            assert out.verify.accepted
        runs += 1
    assert runs == 1000
    _report(5, f"soundness fuzz ({runs} runs, {found} found, 0 violations)", t0, 60.0)


def test_acceptance_6_verifier_cross_validation():
    t0 = time.perf_counter()
    band = 1e-3
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        k = rng.choice([3, 4])
        if rng.random() < 0.5:
            a, r0 = rng.uniform(-5, 5), rng.uniform(0.5, 3)
            q = sorted(a + i * r0 + rng.uniform(-0.4, 0.4) * r0 for i in range(k))
        else:
            q = sorted(rng.uniform(0, 10) for _ in range(k))
        if any(b - a < 1e-5 for a, b in zip(q, q[1:])):
            continue
        eps = rng.uniform(0.05, 1 / 3)
        dev = grid_min_deviation_ap(q)
        if abs(dev - eps) <= band:
            continue
        assert verify_ap(q, eps).accepted == (dev <= eps), (q, eps, dev)
        checked += 1
    sq = Pattern(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = Pattern(2, [(0, 0), (1, 0), (0, 1)])
    checked2 = 0
    while checked2 < 100:
        p = sq if rng.random() < 0.5 else tri
        kk = len(p)
        lam = rng.uniform(0.5, 3)
        ax, ay = rng.uniform(-5, 5), rng.uniform(-5, 5)
        noise = rng.uniform(0.0, 0.5) * lam
        pts = [
            (
                ax + lam * pt.coords[0] + rng.uniform(-noise, noise),
                ay + lam * pt.coords[1] + rng.uniform(-noise, noise),
            )
            for pt in p.points
        ]
        if len(set(pts)) < kk:
            continue
        q2 = PointSet(2, pts)
        eps = rng.uniform(0.05, 1 / 3)
        dev = grid_min_deviation_homothety(q2, p, range(kk))
        if abs(dev - eps) <= band:
            continue
        got = verify_homothetic(q2, p, range(kk), eps).accepted
        assert got == (dev <= eps), (pts, eps, dev, got)
        checked2 += 1
    _report(6, f"verifier vs grid oracle ({checked}+{checked2} instances)", t0, 30.0)


def test_acceptance_7_collinear_pipeline():
    t0 = time.perf_counter()
    for seed in range(10):
        s, planted = planted_tube_instance(seed)
        # the planted tube really contains a valid answer
        tube = PointSet(2, [s.points[i] for i in planted])
        assert exists_collinear(tube, 8, 0.1)
        res = find_collinear(s, 8, 0.1)
        assert res.found, f"seed {seed}"
        subset = PointSet(2, [s.points[i] for i in res.subset])
        acc, _ = verify_collinear(subset, 0.1)
        assert acc
        assert cylinder_radius(subset) <= 0.1 * diameter(subset) + 1e-12
    pent = PointSet(
        2,
        [(math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5)) for i in range(5)],
    )
    res = find_collinear(pent, 5, 0.01)
    assert not res.found and res.proven_absent
    _report(7, "collinear pipeline (10/10 planted + pentagon absent)", t0, 10.0)


def _run_cli(*argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


def test_acceptance_8_determinism_byte_identical(tmp_path):
    t0 = time.perf_counter()
    eps = "0.3333333333333333"

    def pipeline() -> list[bytes]:
        outs = []
        pts = tmp_path / "d1.txt"
        code, out = _run_cli("generate", "--kind", "random", "--dim", "1",
                             "--length", "400", "--delta", "1", "--count", "120",
                             "--seed", "11", "--out", str(pts), "--json")
        assert code == 0
        outs.append(out)
        outs.append(pts.read_bytes())
        fig = tmp_path / "d1.svg"
        code, out = _run_cli("search", "ap", "--input", str(pts), "--k", "3",
                             "--eps", eps, "--delta", "1", "--c", "0.3",
                             "--json", "--trace", "--svg", str(fig))
        outs.append(out)
        outs.append(fig.read_bytes())
        lat = tmp_path / "d2.txt"
        _run_cli("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
                 "--jitter", "0.4", "--seed", "4", "--out", str(lat), "--json")
        fig2 = tmp_path / "d2.svg"
        code, out = _run_cli("search", "grid", "--input", str(lat), "--k", "3",
                             "--eps", eps, "--delta", "0.2", "--c", "1.0",
                             "--json", "--svg", str(fig2))
        assert code == 0
        outs.append(out)
        outs.append(fig2.read_bytes())
        line = tmp_path / "line.txt"
        rows = ["2"] + [f"{0.04 * i} {0.02 * i + 0.5}" for i in range(25)]
        line.write_text("\n".join(rows) + "\n")
        code, out = _run_cli("search", "collinear", "--input", str(line),
                             "--k", "10", "--eps", "0.1", "--json")
        assert code == 0
        outs.append(out)
        return outs

    first = pipeline()
    second = pipeline()
    assert first == second
    for doc in (first[0], first[2], first[4], first[6]):
        json.loads(doc)
    _report(8, "byte-identical JSON/SVG on repeat runs", t0, 30.0)
