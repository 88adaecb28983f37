"""The four benchmark workloads: their inputs and their request sequences.

Every input is made from the workload seed through the library's public
generators and written with ``write_pointset``; the program under test
only ever receives the files.  A request is one or more ``apxpat`` CLI
invocations timed together, plus what the checker expects of them.

Request streams repeat in *periods* of request kinds; a traced run
traces every other period, and the two periods of a pair use the same
instances (``paired``).  An untraced run moves to the next instances
every period.  Each kind cycles through several instances, so that a
run's figures do not hang on the cost of one instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import apxpat.bounds
import apxpat.generators
import apxpat.geometry
import apxpat.pointio

from check import unit_grid

EPS3 = repr(1 / 3)  # the CLI's spelling of eps = 1/3


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its outcome must be.

    ``expect`` names the check: "grid-found", "ap-found", "generated",
    "verify-accept", "verify-reject", "collinear-found", "collinear-any".
    """

    argv: tuple[str, ...]
    expect: str
    points: tuple | None = None  # coordinates the indices in the output refer to
    k: int = 0
    eps: float = 0.0
    svg: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Request:
    kind: str
    calls: tuple[Call, ...]


def _write(path: Path, pointset) -> tuple:
    path.write_bytes(apxpat.pointio.write_pointset(pointset))
    return tuple(p.coords for p in pointset.points)


class GridLattice:
    """``search grid`` on d=2 jittered lattices of side 60, 100 and 140."""

    name = "grid-lattice"
    sides = (60, 100, 140)
    period = len(sides)

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.files = {}
        for side in self.sides:
            s = apxpat.generators.gen_jittered_lattice(2, side, 0.4, rng.getrandbits(63))
            path = workdir / f"lattice{side}.txt"
            self.files[side] = (str(path), _write(path, s))
        self.svg = str(workdir / "out.svg")

    def request(self, i: int) -> Request:
        side = self.sides[i % self.period]
        path, pts = self.files[side]
        argv = ("search", "grid", "--input", path, "--k", "3", "--eps", EPS3,
                "--delta", "0.2", "--c", "1", "--json", "--svg", self.svg)
        return Request(f"grid L={side}", (Call(argv, "grid-found", pts, 3, 1 / 3, self.svg),))


class ApThreshold:
    """``generate`` then ``search ap`` on the paper's threshold instance
    (L = Z0 = 13122, n = 5249, k = 3, eps = 1/3, c = 0.4), a fresh
    instance for every request."""

    name = "ap-threshold"
    period = 1
    length = 13122
    count = 5249

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.path = str(workdir / "ap.txt")
        self.svg = str(workdir / "ap.svg")

    def request(self, i: int) -> Request:
        gen_seed = str(random.Random(self.seed * 1_000_003 + i).getrandbits(63))
        gen = ("generate", "--kind", "random", "--dim", "1", "--length", str(self.length),
               "--delta", "1", "--count", str(self.count), "--seed", gen_seed,
               "--out", self.path)
        search = ("search", "ap", "--input", self.path, "--k", "3", "--eps", EPS3,
                  "--delta", "1", "--c", "0.4", "--lo", "0", "--length", str(self.length),
                  "--json", "--trace", "--svg", self.svg)
        params = {"path": self.path, "length": float(self.length), "count": self.count,
                  "delta": 1.0, "max_steps": 4}
        return Request("ap", (Call(gen, "generated", params=params),
                              Call(search, "ap-found", None, 3, 1 / 3, self.svg, params)))


class Certify:
    """Certificate-heavy mix: one-step ``search grid`` at k = 4, 5, 6, each
    followed by ``verify pattern`` on a k x k candidate that is near-exact
    (accepted) in the first half of a period and stretched by 1 + 4 eps
    along x (rejected) in the second."""

    name = "certify"
    ks = (4, 5, 6)
    period = 4 * len(ks)
    lattices_per_k = 16
    paired = True
    candidates_per_kind = 24
    eps = 1 / 3

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.lattices = {}
        self.candidates = {}
        self.patterns = {}
        for k in self.ks:
            # Side 2*k*s makes the first-step cells 2 wide, so every cell is
            # occupied and the search succeeds at step 1.
            s = apxpat.bounds.schedule_nd(2, k, 1.0, 0.2, self.eps).s
            side = 2 * k * s
            self.lattices[k] = []
            for v in range(self.lattices_per_k):
                ps = apxpat.generators.gen_jittered_lattice(2, side, 0.4, rng.getrandbits(63))
                path = workdir / f"certify-lattice-k{k}-{v}.txt"
                self.lattices[k].append((str(path), _write(path, ps)))
            grid = unit_grid(k)
            pat = workdir / f"pattern-k{k}.txt"
            _write(pat, apxpat.geometry.PointSet(2, grid))
            self.patterns[k] = str(pat)
            for stretched in (False, True):
                out = []
                for v in range(self.candidates_per_kind):
                    out.append(self._candidate(workdir, rng, k, grid, stretched, v))
                self.candidates[k, stretched] = out

    def _candidate(self, workdir, rng, k, grid, stretched, v):
        """a + lam * m (x scaled by 1 + 4 eps if stretched), each axis
        jittered by at most 0.2 eps lam.  Near-exact candidates lie within
        0.29 eps lam of the exact copy.  Stretched ones fit no homothety:
        with every point within eps*mu of its image, the x extent needs a
        scale mu >= 1.87 lam and the y extent mu <= 1.35 lam (k = 4; the
        gap widens with k)."""
        ax, ay = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
        lam = rng.uniform(0.5, 5.0)
        sx = 1.0 + 4.0 * self.eps if stretched else 1.0
        jit = 0.2 * self.eps * lam
        pts = [(ax + lam * sx * x + rng.uniform(-jit, jit),
                ay + lam * y + rng.uniform(-jit, jit)) for x, y in grid]
        tag = "stretched" if stretched else "exact"
        path = workdir / f"candidate-k{k}-{tag}-{v}.txt"
        return str(path), _write(path, apxpat.geometry.PointSet(2, pts))

    def request(self, i: int) -> Request:
        rep, pos = divmod(i, self.period)
        half, slot = divmod(pos, 2 * len(self.ks))
        k = self.ks[slot // 2]
        if slot % 2 == 0:
            # Both periods of a pair search the same two lattices, so a run
            # of n periods (n <= lattices_per_k) weighs n lattices alike.
            path, pts = self.lattices[k][(rep // 2 * 2 + half) % self.lattices_per_k]
            argv = ("search", "grid", "--input", path, "--k", str(k), "--eps", EPS3,
                    "--delta", "0.2", "--c", "1", "--json")
            return Request(f"grid k={k}", (Call(argv, "grid-found", pts, k, self.eps),))
        stretched = half == 1
        pair = rep // 2 if self.paired else rep
        path, pts = self.candidates[k, stretched][pair % self.candidates_per_kind]
        argv = ("verify", "pattern", "--input", path, "--pattern", self.patterns[k],
                "--eps", EPS3, "--json")
        expect = "verify-reject" if stretched else "verify-accept"
        return Request(f"verify k={k} {'reject' if stretched else 'accept'}",
                       (Call(argv, expect, pts, k, self.eps),))


class CollinearTube:
    """``search collinear`` alternating k=8 on clouds with a planted thin
    tube (found, early exit) and k=13 on uniform clouds (every bucket's
    clique search runs)."""

    name = "collinear-tube"
    period = 2
    paired = True
    clouds = 12
    noise = 400
    tube = 10
    eps = 0.1

    def __init__(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.tubes = []
        self.uniform = []
        for v in range(self.clouds):
            base = apxpat.generators.gen_random_separated(2, 1.0, 0.01, self.noise,
                                                          rng.getrandbits(63))
            pts = [p.coords for p in base.points] + self._tube(rng)
            path = workdir / f"tube-{v}.txt"
            self.tubes.append((str(path), _write(path, apxpat.geometry.PointSet(2, pts))))
            base = apxpat.generators.gen_random_separated(2, 1.0, 0.01, self.noise,
                                                          rng.getrandbits(63))
            path = workdir / f"uniform-{v}.txt"
            self.uniform.append((str(path), _write(path, base)))

    def _tube(self, rng) -> list[tuple[float, float]]:
        """Points within 1e-5 of a line whose angle is the centre of one of
        the finder's angle buckets, so all their pairs share that bucket
        and a k=8 clique exists by construction."""
        r = math.ceil(math.pi / self.eps) + 1
        theta = -math.pi / 2 + (rng.randrange(4, r - 4) + 0.5) * math.pi / r
        ca, sa = math.cos(theta), math.sin(theta)
        cx, cy = rng.uniform(0.45, 0.55), rng.uniform(0.45, 0.55)
        out = []
        for i in range(self.tube):
            t = (i - (self.tube - 1) / 2) * (0.9 / self.tube) + rng.uniform(-0.01, 0.01)
            off = rng.uniform(-1e-5, 1e-5)
            out.append((cx + t * ca - off * sa, cy + t * sa + off * ca))
        return out

    def request(self, i: int) -> Request:
        rep, pos = divmod(i, self.period)
        v = (rep // 2 if self.paired else rep) % self.clouds
        if pos == 0:
            path, pts = self.tubes[v]
            k, expect = 8, "collinear-found"
        else:
            path, pts = self.uniform[v]
            k, expect = 13, "collinear-any"
        argv = ("search", "collinear", "--input", path, "--k", str(k),
                "--eps", repr(self.eps), "--json")
        return Request(f"collinear k={k}", (Call(argv, expect, pts, k, self.eps),))


WORKLOADS = {w.name: w for w in (GridLattice, ApThreshold, Certify, CollinearTube)}
