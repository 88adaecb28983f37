"""Summarise apxbench record files into one BENCH_<n>.json.

Each ``--side LABEL COMMIT FILE...`` names one side of a comparison (for
example the parent commit and the change), the commit its runs were made
on, and the record files that ``apxbench/run.py`` wrote for it under
``.bench_results/``.  For every side, workload and metric the summary
holds the median and the quartiles (numpy's linear interpolation) over
the side's runs, the values themselves, the seeds, the hosts and the
backend.  Untraced runs (``--trace 0``) give the end-to-end metrics,
traced runs (``--trace 1``) the per-layer ones; they are kept apart.

With exactly two sides, the second is compared with the first on every
untraced metric, run by run with the runs paired by seed: the wins of
the second side (ties count for neither), the relative change of the
medians, and the first side's interquartile range.  A workload whose
sides ran different seeds is an error.  A metric's direction comes from
``BENCHMARK.json`` (``better``: lower or higher); metrics it does not list
are compared as lower-is-better.

Usage:
    python tools/bench_summary.py --out BENCH_11.json \\
        --side parent 2dd3a86 .bench_parent/*.json \\
        --side change 1a2b3c4 .bench_change/*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": values}


def _host_key(host: dict) -> str:
    return json.dumps({k: v for k, v in host.items() if k != "seed"}, sort_keys=True)


def summarise_side(label: str, commit: str, paths: list[str]) -> dict:
    """One side's records, grouped by trace flag and workload."""
    groups: dict = {}
    hosts: dict = {}
    for path in sorted(paths):
        rec = json.loads(Path(path).read_text())
        kind = "traced" if rec["trace"] else "end_to_end"
        runs = groups.setdefault(kind, {}).setdefault(rec["workload"], [])
        runs.append(rec)
        hosts[_host_key(rec["host"])] = rec["host"]
    side: dict = {"label": label, "commit": commit,
                  "hosts": [{k: v for k, v in h.items() if k != "seed"}
                            for h in hosts.values()],
                  "backends": sorted({h["backend"] for h in hosts.values()})}
    for kind, workloads in groups.items():
        side[kind] = {}
        for name, runs in sorted(workloads.items()):
            runs.sort(key=lambda r: r["seed"])
            metrics = {m: _quartiles([r["metrics"][m] for r in runs])
                       for m in runs[0]["metrics"]}
            side[kind][name] = {
                "seeds": [r["seed"] for r in runs],
                "seconds": sorted({r["seconds"] for r in runs}),
                "correct_runs": sum(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
    return side


def _directions() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def compare(base: dict, other: dict) -> dict:
    """Run-by-run comparison of other against base on the untraced metrics,
    the runs paired by seed.  Raises ValueError when a workload's two
    sides ran different seeds."""
    better = _directions()
    out: dict = {}
    for name, b in base.get("end_to_end", {}).items():
        o = other.get("end_to_end", {}).get(name)
        if o is None:
            continue
        if b["seeds"] != o["seeds"]:
            raise ValueError(f"{name}: the sides ran different seeds "
                             f"({b['seeds']} against {o['seeds']})")
        rows = {}
        for metric, bm in b["metrics"].items():
            if metric not in o["metrics"]:
                continue
            om = o["metrics"][metric]
            sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
            pairs = list(zip(bm["values"], om["values"]))
            rows[metric] = {
                "pairs": len(pairs),
                "wins": sum(sign * (y - x) > 0 for x, y in pairs),
                "losses": sum(sign * (y - x) < 0 for x, y in pairs),
                "median_change": om["median"] / bm["median"] - 1.0 if bm["median"] else None,
                "base_iqr": bm["q3"] - bm["q1"],
                "median_gap": abs(om["median"] - bm["median"]),
                "better": "lower" if sign < 0 else "higher",
            }
        out[name] = rows
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--side", nargs="+", action="append", required=True,
                    metavar="LABEL COMMIT FILE", help="a label, a commit and record files")
    ap.add_argument("--note", default="", help="free text kept in the summary")
    args = ap.parse_args(argv)
    for side in args.side:
        if len(side) < 3:
            ap.error("--side needs a label, a commit and at least one record file")
    sides = [summarise_side(s[0], s[1], s[2:]) for s in args.side]
    summary = {"schema": 1, "note": args.note, "sides": sides}
    if len(sides) == 2:
        try:
            workloads = compare(sides[0], sides[1])
        except ValueError as exc:
            ap.error(str(exc))
        summary["comparison"] = {"base": sides[0]["label"], "other": sides[1]["label"],
                                 "workloads": workloads}
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
