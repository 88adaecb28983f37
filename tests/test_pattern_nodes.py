"""The pattern search looks for the pattern's node cells alone.

``search_pattern`` rounds a pattern onto the nodes of a K-grid and asks,
in each offset system, only that its |P| node cells be occupied.  Asking
for all K^d cells instead is ``search_grid(s, K, eps_g, ...)`` followed by
reading the node cells off the found grid; these tests rebuild that from
the public API and check that the node search finds wherever it does,
with the same answer, and more often.
"""

import random

import numpy as np

from apxpat.bounds import schedule_nd
from apxpat.generators import gen_jittered_lattice, gen_random_separated
from apxpat.geometry import Homothety, Pattern, PointSet
from apxpat.oracle import enumerate_homothetic
from apxpat.searchnd import StepSuccess, pattern_grid_resolution, search_grid, search_pattern
from apxpat.verifier import verify_homothetic

PATTERNS = {
    "triangle": [(0, 0), (1, 0), (0, 1)],
    "L-shape": [(0, 0), (1, 0), (2, 0), (0, 1)],
    "skew triangle": [(0, 0), (3, 1), (1, 2)],
    "star": [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
}


def _certified(s, p, subset, eps):
    return verify_homothetic(s.subset(subset), p, list(range(len(p))), eps)


def _full_grid_search(s, p, eps, delta, c):
    """The nested search: a whole K-grid, the pattern read off its nodes.

    Returns the grid outcome, and the pattern's subset and witness where
    the grid was found (None otherwise)."""
    K, eps_g = pattern_grid_resolution(p, eps)
    grid = search_grid(s, K, eps_g, delta, c)
    if not grid.found:
        return grid, None, None
    p_lo = p.coords.min(axis=0)
    span = float((p.coords.max(axis=0) - p_lo).max())
    nodes = np.rint((p.coords - p_lo) * (K - 1) / span).astype(np.int64)
    flat = np.ravel_multi_index(tuple(nodes.T), (K,) * p.dim)
    scale = grid.homothety.scale * (K - 1) / span
    witness = Homothety(np.asarray(grid.homothety.anchor.coords) - scale * p_lo, scale)
    return grid, tuple(grid.subset[f] for f in flat.tolist()), witness


def test_node_search_agrees_with_the_full_grid_search():
    # On 2 of these 8 grid finds, a system with a smaller t than the full
    # one has its node cells occupied too; the densest complete system is
    # still the full one.
    rng = random.Random(15)
    agreed = 0
    for trial in range(12):
        p = Pattern(2, PATTERNS[("triangle", "skew triangle", "L-shape")[trial % 3]])
        eps = rng.uniform(0.2, 1 / 3)
        jitter = rng.uniform(0.1, 0.3)
        s = gen_jittered_lattice(2, rng.uniform(80, 150), jitter, 500 + trial)
        delta = 1 - 2 * jitter
        out = search_pattern(s, p, eps, delta, 0.5)
        grid, subset, witness = _full_grid_search(s, p, eps, delta, 0.5)
        if subset is None:
            continue
        agreed += 1
        assert out.found
        # The descent does not depend on the target: same steps, then the
        # same success step, listing the grid's node cells.
        assert out.trace.steps[:-1] == grid.trace.steps[:-1]
        step, grid_step = out.trace.steps[-1], grid.trace.steps[-1]
        assert (step.low, step.side, step.count) == (grid_step.low, grid_step.side, grid_step.count)
        assert isinstance(step.action, StepSuccess) and step.action.t == grid_step.action.t
        at = [grid_step.action.chosen.index(i) for i in subset]
        assert step.action.chosen == subset
        assert step.action.anchors == tuple(grid_step.action.anchors[i] for i in at)
        assert out.subset == subset
        assert out.homothety == witness
        assert out.verify == _certified(s, p, subset, eps)
        assert out.verify.accepted
    assert agreed == 8


def _suite():
    """Every pattern over jittered lattices and dart-thrown sets."""
    for name, rows in PATTERNS.items():
        p = Pattern(2, rows)
        for kind in ("lattice", "dart"):
            for seed in range(3):
                rng = random.Random(f"{name}/{kind}/{seed}")
                eps = rng.uniform(0.2, 1 / 3)
                if kind == "lattice":
                    jitter = rng.uniform(0.1, 0.3)
                    s = gen_jittered_lattice(2, rng.uniform(60, 130), jitter, 10 + seed)
                    delta = 1 - 2 * jitter
                else:
                    length, delta = rng.uniform(50, 90), 1.0
                    s = gen_random_separated(2, length, delta, int(0.6 * length**2), 20 + seed)
                yield name, s, p, eps, delta


def test_found_rate_suite():
    found = dict.fromkeys(PATTERNS, 0)
    nested = 0
    for name, s, p, eps, delta in _suite():
        out = search_pattern(s, p, eps, delta, 0.5)
        _, subset, _ = _full_grid_search(s, p, eps, delta, 0.5)
        if subset is not None and _certified(s, p, subset, eps).accepted:
            nested += 1
            assert out.found and out.subset == subset
        if out.found:
            found[name] += 1
            assert out.verify.accepted
            assert out.verify == _certified(s, p, out.subset, eps)
        else:
            assert out.warnings[-1].startswith("active point count fell below the pattern's")
    # The nested search finds 1 of these 24; the node search finds 14:
    # 5 triangles, 3 L-shapes, 5 skew triangles and 1 star.
    assert nested == 1
    assert sum(found.values()) >= 14
    assert min(found.values()) >= 1


def test_patterns_found_on_a_10k_lattice():
    # The nested search stops on all three: too few points for K^d cells.
    s = gen_jittered_lattice(2, 100, 0.25, 1)
    for name, K in (("triangle", 8), ("L-shape", 15), ("skew triangle", 10)):
        p = Pattern(2, PATTERNS[name])
        out = search_pattern(s, p, 0.25, 0.5, 0.5)
        assert out.reduction.grid_k == K
        assert out.found and out.verify.accepted, name
        assert out.verify == _certified(s, p, out.subset, 0.25)
        grid, _, _ = _full_grid_search(s, p, 0.25, 0.5, 0.5)
        assert grid.warnings[-1] == "active point count fell below k^d; stopping early"


def _small_instance(rng, p, K, stride, planted):
    """Six points in the box [0, K*stride]^2 of unit cells: a jittered
    copy of the pattern in the node cells of a random system, or with one
    node moved a few cells off, among 0.5-separated noise points."""
    p_lo = p.coords.min(axis=0)
    span = float((p.coords.max(axis=0) - p_lo).max())
    nodes = np.rint((p.coords - p_lo) * (K - 1) / span).astype(int)
    t = np.array([rng.randrange(stride), rng.randrange(stride)])
    cells = t + stride * nodes
    if not planted:
        cells[rng.randrange(len(cells))] += [rng.choice((-2, 2)), rng.choice((-3, 3))]
    cells = np.clip(cells, 0, K * stride - 1)
    pts = [tuple(float(v + rng.uniform(0.2, 0.8)) for v in cell) for cell in cells]
    while len(pts) < 6:
        q = (rng.uniform(0, K * stride), rng.uniform(0, K * stride))
        if all(np.hypot(q[0] - a, q[1] - b) >= 0.5 for a, b in pts):
            pts.append(q)
    rng.shuffle(pts)
    return PointSet(2, pts)


def test_small_finds_confirmed_by_the_oracle():
    rng = random.Random(8)
    finds = 0
    for trial in range(12):
        p = Pattern(2, PATTERNS[("triangle", "skew triangle", "L-shape")[trial % 3]])
        K, eps_g = pattern_grid_resolution(p, 1 / 3)
        stride = schedule_nd(2, K, 0.5, 0.5, eps_g).s
        s = _small_instance(rng, p, K, stride, planted=trial % 4 != 3)
        out = search_pattern(s, p, 1 / 3, 0.5, 0.5, lo=(0.0, 0.0), length=K * stride)
        hits = {subset for subset, _ in enumerate_homothetic(s, p, 1 / 3)}
        if out.found:
            finds += 1
            assert tuple(sorted(out.subset)) in hits
    assert finds >= 9  # every planted copy


def test_early_stop_warnings():
    tri = Pattern(2, PATTERNS["triangle"])
    out = search_pattern(PointSet(2, [(0, 0), (5, 5)]), tri, 1 / 3, 1.0, 0.5)
    assert out.warnings[-1] == "active point count fell below the pattern's 3 points; stopping early"
    out = search_grid(PointSet(2, [(0, 0), (5, 5), (9, 1)]), 2, 1 / 3, 1.0, 0.5)
    assert out.warnings[-1] == "active point count fell below k^d; stopping early"
    out = search_grid(PointSet(1, [(0,), (5,)]), 3, 1 / 3, 1.0, 0.5)
    assert out.warnings[-1] == "active point count fell below k; stopping early"


def test_1d_pattern_trace_keeps_tuples():
    p = Pattern(1, [(0.0,), (1.0,), (3.0,)])
    s = PointSet(1, [(float(i) + 0.1 * (i % 3),) for i in range(400)])
    out = search_pattern(s, p, 1 / 3, 0.6, 1.0)
    assert out.found and out.verify.accepted
    step = out.trace.steps[-1].action
    assert isinstance(step.t, tuple) and len(step.t) == 1
    assert len(step.chosen) == len(step.anchors) == 3
