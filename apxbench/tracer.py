"""Spans and counters recorded around the library's module boundaries.

The library has no spans of its own yet, so the traced run replaces each
public function where one module calls another, under the name the caller
looks up, with a wrapper that records a span (name, start, end, parent)
and counts work.  Nothing under ``src/`` changes; ``install`` and
``uninstall`` swap the module attributes in and out.

A layer's self time is its span minus its child spans, so the self times
of one request sum exactly to its ``cli.main`` spans.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _systems_scanned(outcome) -> int:
    """Offset systems scanned: all s^d on a descend step, and up to and
    including the hit (lexicographic order) on the success step."""
    sch = outcome.schedule
    total = 0
    for st in outcome.trace.steps:
        t = getattr(st.action, "t", None)
        if t is None:
            total += sch.s ** sch.d
            continue
        flat = 0
        for ta in (t,) if isinstance(t, int) else t:
            flat = flat * sch.s + ta
        total += flat + 1
    return total


def _count_search(args, out):
    steps = out.trace.steps
    return {"search.steps": len(steps),
            "search.points_binned": sum(st.count for st in steps),
            "search.systems_scanned": _systems_scanned(out)}


# (span name, module that defines it, attribute, modules that look it up
#  under that attribute, counter).  The defining module is listed among
#  the users when callers reach the function through it.  A counter maps
#  (args, result) to increments.
LAYERS = (
    ("cli.main", "apxpat.cli", "main", ("apxpat.cli",), None),
    ("pointio.parse_pointset", "apxpat.pointio", "parse_pointset", ("apxpat.cli",),
     lambda a, o: {"pointio.parse_pointset.bytes": len(a[0])}),
    ("pointio.write_pointset", "apxpat.pointio", "write_pointset",
     ("apxpat.cli", "apxpat.pointio"), None),
    ("pointio.emit_svg", "apxpat.pointio", "emit_svg", ("apxpat.cli",), None),
    ("geometry.PointSet", "apxpat.geometry", "PointSet",
     ("apxpat.pointio", "apxpat.generators", "apxpat.searchnd", "apxpat.collinear"), None),
    ("generators.gen_random_separated", "apxpat.generators", "gen_random_separated",
     ("apxpat.cli", "apxpat.generators"), None),
    ("generators.gen_jittered_lattice", "apxpat.generators", "gen_jittered_lattice",
     ("apxpat.cli", "apxpat.generators"), None),
    ("kernels.dart_throw", "apxpat._kernels", "dart_throw", ("apxpat._kernels",),
     lambda a, o: {"kernels.dart_throw.accepted": len(o[0]) // a[0],
                   "kernels.dart_throw.attempts": o[1]}),
    ("kernels.has_close_pair", "apxpat._kernels", "has_close_pair", ("apxpat._kernels",),
     lambda a, o: {"kernels.has_close_pair.points": len(a[0]) // a[1]}),
    ("kernels.bin_cells", "apxpat._kernels", "bin_cells", ("apxpat._kernels",), None),
    ("search1d.search_ap", "apxpat.search1d", "search_ap", ("apxpat.cli",), _count_search),
    ("searchnd.search_grid", "apxpat.searchnd", "search_grid", ("apxpat.cli",), _count_search),
    ("verifier.verify_ap", "apxpat.verifier", "verify_ap",
     ("apxpat.cli", "apxpat.search1d"), None),
    ("verifier.verify_homothetic", "apxpat.verifier", "verify_homothetic",
     ("apxpat.cli", "apxpat.searchnd"),
     lambda a, o: {"verifier.verify_homothetic.accepted": int(o.accepted)}),
    ("verifier.verify_collinear", "apxpat.verifier", "verify_collinear",
     ("apxpat.cli", "apxpat.collinear"), None),
    ("collinear.build_coloring", "apxpat.collinear", "build_coloring", ("apxpat.collinear",),
     lambda a, o: {"collinear.pairs_colored": len(o[0].assignments)}),
    ("collinear.find_collinear", "apxpat.collinear", "find_collinear", ("apxpat.cli",),
     lambda a, o: {"collinear.find_collinear.found": int(o.found)}),
)


class Tracer:
    """In-memory span recorder.  ``phase`` tags spans and counts as set-up
    ("setup") or as belonging to request number ``phase``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            counts = self.counts[self.phase]
            counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[key] += value
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, home, attr, users, counter in LAYERS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, counter)
            for user in users:
                mod = importlib.import_module(user)
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """{phase: {span name: total self seconds}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child[i]
        return out

    def root_time(self, phase) -> float:
        return sum(end - start for name, start, end, parent, ph in self.spans
                   if parent < 0 and ph == phase)
