"""Compare two sets of benchmark records.

    python3 apxbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (``run.py`` writes
one per run under ``.bench_results/``).  For every workload, trace mode
and metric it prints both medians and the change.  For runs with the same
workload and seed it also counts requests whose stdout or SVG digest
differs; that is information, not a gate.  It refuses to compare sets
whose kernel backends differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def backends(records: list[dict]) -> set[str]:
    return {r["host"]["backend"] for r in records}


def digest_diffs(base: list[dict], new: list[dict]) -> tuple[int, int, int]:
    """(requests compared, stdout digests differing, SVG digests differing)."""
    by_key = {(r["workload"], r["seed"], r["trace"]): r for r in base}
    seen = out = svg = 0
    for r in new:
        other = by_key.get((r["workload"], r["seed"], r["trace"]))
        if other is None:
            continue
        for a, b in zip(other["requests"], r["requests"]):
            seen += 1
            out += a["stdout_sha256"] != b["stdout_sha256"]
            svg += a["svg_sha256"] != b["svg_sha256"]
    return seen, out, svg


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: no records found", file=sys.stderr)
        return 2
    kinds = backends(base) | backends(new)
    if len(kinds) != 1:
        print(f"error: refusing to compare records of different backends: {sorted(kinds)}",
              file=sys.stderr)
        return 2
    groups: dict = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for name, value in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, {"base": [], "new": []})[side].append(value)
    print(f"backend: {kinds.pop()}")
    print(f"{'workload':16s} {'metric':44s} {'base':>12s} {'new':>12s} {'change':>8s}  runs")
    for (workload, trace, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        a, b = statistics.median(sides["base"]), statistics.median(sides["new"])
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{workload:16s} {name:44s} {a:12.6g} {b:12.6g} {change:>8s}  "
              f"{len(sides['base'])}/{len(sides['new'])}")
    seen, out, svg = digest_diffs(base, new)
    print(f"outputs (information only): {seen} same-seed requests compared, "
          f"{out} differ in stdout, {svg} differ in SVG")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
