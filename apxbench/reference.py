"""A fixed unit of interpreter work that gauges the host's current speed.

The machine the bounds were set on is a small shared VM whose speed
drifts by 1.5x or more, for seconds or for whole minutes, with no steal
time showing: the same code simply runs slower.  A figure taken within
one run cannot tell such a spell from a slower program.  So the worker
times this reference between requests, in the same process, and the
gated latency figures are given in units of its median time over the
same run.

The work imitates the program's own mix at a fixed size: parse text
into float tuples, bin them into a dict keyed by integer cells, scan
neighbouring cells for close pairs, and format the points back to text.
It depends on nothing in ``apxpat``, so a change to the program cannot
change it.
"""

from __future__ import annotations

import random
from time import perf_counter

N_POINTS = 3000
SIDE = 60.0
CLOSE = 0.5


class Reference:
    def __init__(self, seed: int = 20100408):
        rng = random.Random(seed)
        pts = [(rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE)) for _ in range(N_POINTS)]
        self.text = "\n".join(f"{x!r} {y!r}" for x, y in pts)
        self.expected = self.work()

    def work(self) -> tuple[int, int]:
        pts = [tuple(map(float, line.split())) for line in self.text.split("\n")]
        cells: dict = {}
        for p in pts:
            cells.setdefault((int(p[0]), int(p[1])), []).append(p)
        close = 0
        lim = CLOSE * CLOSE
        for (cx, cy), members in cells.items():
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    other = cells.get((cx + dx, cy + dy))
                    if not other:
                        continue
                    for ax, ay in members:
                        for bx, by in other:
                            ex, ey = ax - bx, ay - by
                            if 0.0 < ex * ex + ey * ey < lim:
                                close += 1
        out = "\n".join(f"{x:.9f},{y:.9f}" for x, y in pts)
        return close, len(out)

    def time(self) -> float:
        """Wall time of one unit of work; raises if the work went wrong."""
        start = perf_counter()
        got = self.work()
        elapsed = perf_counter() - start
        if got != self.expected:
            raise RuntimeError(f"reference work gave {got}, expected {self.expected}")
        return elapsed
