"""Command-line interface.

Verbs: bounds, generate, search {ap,grid,pattern,collinear},
verify {ap,pattern,collinear}, oracle {ap,pattern,collinear}, plot.
Each command returns its reply and whether it found or accepted what it
looked for; ``main`` alone writes the reply and picks the exit code.  With
--json the reply is one strict JSON object (schema 1) on stdout, or nothing
when the command fails; otherwise it is one ``key: value`` line per key.
Diagnostics go to stderr.  Exit codes: 0 found/accepted, 1 not
found/rejected, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from ._kernels import BACKEND
from .bounds import Schedule, schedule_nd
from .collinear import CollinearOutcome, find_collinear
from .errors import ApxpatError
from .generators import gen_adversarial_ap3, gen_jittered_lattice, gen_random_separated
from .geometry import Pattern, PointSet
from .oracle import enumerate_aps, enumerate_homothetic, exists_collinear
from .pointio import emit_svg, parse_pointset, write_pointset
from .search1d import search_ap
from .searchnd import SearchOutcome, StepDescend, StepSuccess, search_grid, search_pattern
from .verifier import VerifyResult, triangle_angles, verify_ap, verify_collinear, verify_homothetic

SCHEMA = 1


def _schedule_dict(sch: Schedule) -> dict:
    return {
        "d": sch.d, "k": sch.k, "c": sch.c, "delta": sch.delta, "eps": sch.eps,
        "s": sch.s, "r": sch.r, "j": sch.j,
        "z0": sch.z0 if math.isfinite(sch.z0) else None, "kappa": sch.kappa,
    }


def _verify_dict(v: VerifyResult) -> dict:
    return {
        "accepted": v.accepted,
        "witness_anchor": list(v.witness_anchor.coords),
        "witness_scale": v.witness_scale,
        "max_relative_deviation": v.max_relative_deviation,
    }


def _trace_dict(outcome: SearchOutcome) -> list[dict]:
    steps = []
    for st in outcome.trace.steps:
        entry = {
            "box_low": list(st.low.coords),
            "side": st.side,
            "count": st.count,
        }
        if isinstance(st.action, StepSuccess):
            entry["action"] = {
                "kind": "success",
                "t": st.action.t if isinstance(st.action.t, int) else list(st.action.t),
                "anchors": [list(a.coords) for a in st.action.anchors],
                "chosen": list(st.action.chosen),
            }
        elif isinstance(st.action, StepDescend):
            cell = st.action.cell
            entry["action"] = {
                "kind": "descend",
                "cell": cell if isinstance(cell, int) else list(cell),
            }
        steps.append(entry)
    return steps


def _outcome_dict(outcome: SearchOutcome, with_trace: bool) -> dict:
    out = {
        "found": outcome.found,
        "below_threshold": outcome.below_threshold,
        "warnings": list(outcome.warnings),
        "schedule": _schedule_dict(outcome.schedule),
        "subset": list(outcome.subset),
        "anchors": [list(a.coords) for a in outcome.anchors],
        "witness": None,
        "verify": None,
    }
    if outcome.homothety is not None:
        out["witness"] = {
            "anchor": list(outcome.homothety.anchor.coords),
            "scale": outcome.homothety.scale,
        }
    if outcome.verify is not None:
        out["verify"] = _verify_dict(outcome.verify)
    if outcome.reduction is not None:
        out["reduction"] = {
            "grid_k": outcome.reduction.grid_k,
            "grid_eps": outcome.reduction.grid_eps,
            "nodes": [list(n) for n in outcome.reduction.nodes],
        }
    if with_trace:
        out["trace"] = _trace_dict(outcome)
    return out


def _collinear_dict(outcome: CollinearOutcome) -> dict:
    out = {
        "found": outcome.found,
        "proven_absent": outcome.proven_absent,
        "subset": list(outcome.subset),
        "bucket": outcome.bucket,
    }
    if outcome.found:
        out["certificate"] = {
            "accepted": outcome.accepted,
            "worst_triangle": list(outcome.worst_triangle),
            "worst_angles": list(outcome.worst_angles),
        }
    return out


def _emit(reply: dict, as_json: bool) -> None:
    """Write a reply: one strict JSON object carrying the schema, or one
    ``key: value`` line per key."""
    if as_json:
        sys.stdout.write(json.dumps({"schema": SCHEMA, **reply}, allow_nan=False) + "\n")
    else:
        sys.stdout.write("".join(f"{key}: {val}\n" for key, val in reply.items()))


def _read_pointset(path: str) -> PointSet:
    return parse_pointset(Path(path).read_bytes())


def _read_pattern(path: str) -> Pattern:
    s = _read_pointset(path)
    return Pattern(s.dim, s.coords)


# Each command returns (reply, ok): the reply dict, or None when it wrote
# its own output, and whether it found or accepted what it looked for.


def _cmd_bounds(args) -> tuple[dict, bool]:
    sch = schedule_nd(args.dim, args.k, args.c, args.delta, args.eps)
    return {"schedule": _schedule_dict(sch)}, True


def _cmd_generate(args) -> tuple[dict | None, bool]:
    if args.kind == "random":
        s = gen_random_separated(args.dim, args.length, args.delta, args.count, args.seed)
    elif args.kind == "lattice":
        s = gen_jittered_lattice(args.dim, args.length, args.jitter, args.seed)
    else:
        s = gen_adversarial_ap3(args.count, args.variant, args.eps)
    data = write_pointset(s)
    if args.out:
        Path(args.out).write_bytes(data)
    elif not args.json:
        # stream the point file; with --json, stdout stays one JSON object
        sys.stdout.write(data.decode("ascii"))
        return None, True
    return {"kind": args.kind, "dim": s.dim, "count": len(s), "out": args.out}, True


def _cmd_search(args) -> tuple[dict, bool]:
    s = _read_pointset(args.input)
    if args.svg and s.dim > 2:
        raise ValueError("SVG emission supports dim 1 and 2 only")
    if args.mode == "collinear":
        outcome = find_collinear(s, args.k, args.eps, node_budget=args.budget)
        reply, anchors = _collinear_dict(outcome), None
    else:
        if args.mode == "ap":
            outcome = search_ap(s, args.k, args.eps, args.delta, args.c,
                                lo=args.lo, length=args.length)
        elif args.mode == "grid":
            outcome = search_grid(s, args.k, args.eps, args.delta, args.c,
                                  length=args.length)
        else:
            pat = _read_pattern(args.pattern)
            outcome = search_pattern(s, pat, args.eps, args.delta, args.c,
                                     length=args.length)
        for w in outcome.warnings:
            print(f"warning: {w}", file=sys.stderr)
        reply, anchors = _outcome_dict(outcome, args.trace), outcome.anchors
    if args.svg:
        Path(args.svg).write_bytes(emit_svg(s, outcome.subset, anchors))
    return reply, outcome.found


def _cmd_verify(args) -> tuple[dict, bool]:
    s = _read_pointset(args.input)
    if args.mode == "collinear":
        accepted, worst = verify_collinear(s, args.eps)
        angles = triangle_angles(*s.coords[list(worst)].tolist())
        return {"accepted": accepted, "worst_triangle": list(worst),
                "worst_angles": list(angles)}, accepted
    if args.mode == "ap":
        result = verify_ap(sorted(s.values()), args.eps)
    else:
        pat = _read_pattern(args.pattern)
        sigma = range(len(pat))
        if args.assignment:
            sigma = [int(t) for t in args.assignment.split(",")]
        result = verify_homothetic(s, pat, sigma, args.eps)
    return _verify_dict(result), result.accepted


def _cmd_oracle(args) -> tuple[dict, bool]:
    s = _read_pointset(args.input)
    if args.mode == "collinear":
        found = exists_collinear(s, args.k, args.eps, budget=args.budget)
        return {"exists": found}, found
    if args.mode == "ap":
        hits = [list(h) for h in enumerate_aps(s, args.k, args.eps, budget=args.budget)]
    else:
        pairs = enumerate_homothetic(s, _read_pattern(args.pattern), args.eps,
                                     budget=args.budget)
        hits = [{"subset": list(sub), "assignment": list(sig)} for sub, sig in pairs]
    reply = {"count": len(hits)}
    if args.list:
        reply["hits"] = hits
    return reply, bool(hits)


def _cmd_plot(args) -> tuple[dict, bool]:
    s = _read_pointset(args.input)
    highlight = [int(t) for t in args.highlight.split(",")] if args.highlight else None
    anchors = _read_pointset(args.anchors).coords.tolist() if args.anchors else None
    Path(args.out).write_bytes(emit_svg(s, highlight, anchors))
    return {"out": args.out}, True


def _leaf(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """A command's own parser, with --json and its handler."""
    p = sub.add_parser(name, **kwargs)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="apxpat",
                                 description="approximate pattern search in separated point sets")
    ap.add_argument("--version", action="version",
                    version=f"apxpat {__version__} ({BACKEND} kernels)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = _leaf(sub, "bounds", _cmd_bounds, help="compute a search schedule")
    b.add_argument("--dim", type=int, default=1)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--eps", type=float, required=True)

    g = _leaf(sub, "generate", _cmd_generate, help="generate a point-set file")
    g.add_argument("--kind", choices=["random", "lattice", "adversarial"], required=True)
    g.add_argument("--dim", type=int, default=1)
    g.add_argument("--length", type=float, default=1.0)
    g.add_argument("--delta", type=float, default=1.0)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--jitter", type=float, default=0.0)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--variant", choices=["xi", "eighth"], default="eighth")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output file (default: stdout)")

    sc = sub.add_parser("search", help="run a subdivision / clique search")
    ssub = sc.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "grid", "pattern", "collinear"):
        m = _leaf(ssub, mode, _cmd_search)
        m.add_argument("--input", required=True, help="point-set file")
        if mode != "pattern":
            m.add_argument("--k", type=int, required=True)
        m.add_argument("--eps", type=float, required=True)
        m.add_argument("--svg", help="write a figure of the input/result")
        if mode == "collinear":
            m.add_argument("--budget", type=int, default=None)
            continue
        m.add_argument("--delta", type=float, required=True)
        m.add_argument("--c", type=float, required=True)
        m.add_argument("--length", type=float, default=None,
                       help="override the search interval/cube side")
        m.add_argument("--trace", action="store_true")
        if mode == "ap":
            m.add_argument("--lo", type=float, default=None,
                           help="override the interval's left endpoint")
        if mode == "pattern":
            m.add_argument("--pattern", required=True, help="pattern point-set file")

    v = sub.add_parser("verify", help="certify a candidate subset")
    vsub = v.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "pattern", "collinear"):
        m = _leaf(vsub, mode, _cmd_verify)
        m.add_argument("--input", required=True)
        m.add_argument("--eps", type=float, required=True)
        if mode == "pattern":
            m.add_argument("--pattern", required=True)
            m.add_argument("--assignment", default=None,
                           help="comma-separated pattern indices, default identity")

    o = sub.add_parser("oracle", help="brute-force enumeration on small inputs")
    osub = o.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "pattern", "collinear"):
        m = _leaf(osub, mode, _cmd_oracle)
        m.add_argument("--input", required=True)
        m.add_argument("--eps", type=float, required=True)
        if mode != "pattern":
            m.add_argument("--k", type=int, required=True)
        else:
            m.add_argument("--pattern", required=True)
        m.add_argument("--budget", type=int, default=None)
        if mode != "collinear":
            m.add_argument("--list", action="store_true")

    pl = _leaf(sub, "plot", _cmd_plot, help="render a point set to SVG")
    pl.add_argument("--input", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--highlight", default=None, help="comma-separated indices")
    pl.add_argument("--anchors", default=None, help="point-set file of anchors")

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        reply, ok = args.func(args)
        if reply is not None:
            _emit(reply, args.json)
    except (ApxpatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
