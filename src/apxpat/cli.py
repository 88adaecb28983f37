"""Command-line interface.

Verbs: bounds, generate, search {ap,grid,pattern,collinear},
verify {ap,pattern,collinear}, oracle {ap,pattern,collinear}, plot.
With --json a single JSON object (schema 1) goes to stdout; diagnostics go
to stderr.  Exit codes: 0 found/accepted, 1 not found/rejected, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .search1d import SearchOutcome, StepDescend, StepSuccess, search_ap
from .searchnd import search_grid, search_pattern
from .verifier import VerifyResult, triangle_angles, verify_ap, verify_collinear, verify_homothetic

SCHEMA = 1


def _schedule_dict(sch: Schedule) -> dict:
    return {
        "d": sch.d, "k": sch.k, "c": sch.c, "delta": sch.delta, "eps": sch.eps,
        "s": sch.s, "r": sch.r, "j": sch.j, "z0": sch.z0, "kappa": sch.kappa,
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
            "box_low": list(st.box.low.coords),
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
        "schema": SCHEMA,
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
        "schema": SCHEMA,
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


def _emit(payload: dict, args) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        for key, val in payload.items():
            if key == "schema":
                continue
            sys.stdout.write(f"{key}: {val}\n")


def _read_pointset(path: str) -> PointSet:
    return parse_pointset(Path(path).read_bytes())


def _read_pattern(path: str) -> Pattern:
    return Pattern.from_pointset(_read_pointset(path))


def _write_svg(args, s: PointSet, outcome: SearchOutcome | None = None) -> None:
    target = getattr(args, "svg", None)
    if not target:
        return
    highlight = outcome.subset if outcome is not None else None
    anchors = outcome.anchors if outcome is not None else None
    Path(target).write_bytes(emit_svg(s, highlight, anchors))


def _cmd_bounds(args) -> int:
    sch = schedule_nd(args.dim, args.k, args.c, args.delta, args.eps)
    _emit({"schema": SCHEMA, "schedule": _schedule_dict(sch)}, args)
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "random":
        s = gen_random_separated(args.dim, args.length, args.delta, args.count, args.seed)
    elif args.kind == "lattice":
        s = gen_jittered_lattice(args.dim, args.length, args.jitter, args.seed)
    else:
        s = gen_adversarial_ap3(args.count, args.variant, args.eps)
    data = write_pointset(s)
    payload = {"schema": SCHEMA, "kind": args.kind, "dim": s.dim, "count": len(s),
               "out": args.out}
    if args.out:
        Path(args.out).write_bytes(data)
        _emit(payload, args)
    elif args.json:
        # keep stdout a single JSON object; point data needs --out
        _emit(payload, args)
    else:
        sys.stdout.write(data.decode("ascii"))
    return 0


def _cmd_search(args) -> int:
    s = _read_pointset(args.input)
    if args.mode == "ap":
        outcome = search_ap(s, args.k, args.eps, args.delta, args.c,
                            lo=args.lo, length=args.length)
    elif args.mode == "grid":
        outcome = search_grid(s, args.k, args.eps, args.delta, args.c,
                              length=args.length)
    elif args.mode == "pattern":
        pat = _read_pattern(args.pattern)
        outcome = search_pattern(s, pat, args.eps, args.delta, args.c,
                                 length=args.length)
    else:
        col = find_collinear(s, args.k, args.eps, node_budget=args.budget)
        _emit(_collinear_dict(col), args)
        if args.svg:
            Path(args.svg).write_bytes(emit_svg(s, col.subset or None))
        return 0 if col.found else 1
    for w in outcome.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(_outcome_dict(outcome, args.trace), args)
    _write_svg(args, s, outcome)
    return 0 if outcome.found else 1


def _cmd_verify(args) -> int:
    s = _read_pointset(args.input)
    if args.mode == "ap":
        result = verify_ap(sorted(s.values()), args.eps)
        payload = {"schema": SCHEMA, **_verify_dict(result)}
        _emit(payload, args)
        return 0 if result.accepted else 1
    if args.mode == "pattern":
        pat = _read_pattern(args.pattern)
        if args.assignment:
            sigma = [int(t) for t in args.assignment.split(",")]
        else:
            sigma = list(range(len(pat)))
        result = verify_homothetic(s, pat, sigma, args.eps)
        payload = {"schema": SCHEMA, **_verify_dict(result)}
        _emit(payload, args)
        return 0 if result.accepted else 1
    accepted, worst = verify_collinear(s, args.eps)
    angles = triangle_angles(*s.coords[list(worst)].tolist())
    payload = {
        "schema": SCHEMA, "accepted": accepted,
        "worst_triangle": list(worst), "worst_angles": list(angles),
    }
    _emit(payload, args)
    return 0 if accepted else 1


def _cmd_oracle(args) -> int:
    s = _read_pointset(args.input)
    if args.mode == "ap":
        hits = enumerate_aps(s, args.k, args.eps, budget=args.budget)
        payload = {"schema": SCHEMA, "count": len(hits)}
        if args.list:
            payload["hits"] = [list(h) for h in hits]
        _emit(payload, args)
        return 0 if hits else 1
    if args.mode == "pattern":
        pat = _read_pattern(args.pattern)
        pairs = enumerate_homothetic(s, pat, args.eps, budget=args.budget)
        payload = {"schema": SCHEMA, "count": len(pairs)}
        if args.list:
            payload["hits"] = [
                {"subset": list(sub), "assignment": list(sig)} for sub, sig in pairs
            ]
        _emit(payload, args)
        return 0 if pairs else 1
    found = exists_collinear(s, args.k, args.eps, budget=args.budget)
    _emit({"schema": SCHEMA, "exists": found}, args)
    return 0 if found else 1


def _cmd_plot(args) -> int:
    s = _read_pointset(args.input)
    highlight = [int(t) for t in args.highlight.split(",")] if args.highlight else None
    anchors = None
    if args.anchors:
        anchors = _read_pointset(args.anchors).coords.tolist()
    Path(args.out).write_bytes(emit_svg(s, highlight, anchors))
    _emit({"schema": SCHEMA, "out": args.out}, args)
    return 0


def _add_common_search_flags(p: argparse.ArgumentParser, *, need_k: bool) -> None:
    p.add_argument("--input", required=True, help="point-set file")
    if need_k:
        p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", help="write a figure of the input/result")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="apxpat",
                                 description="approximate pattern search in separated point sets")
    ap.add_argument("--version", action="version",
                    version=f"apxpat {__version__} ({BACKEND} kernels)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute a search schedule")
    b.add_argument("--dim", type=int, default=1)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bounds)

    g = sub.add_parser("generate", help="generate a point-set file")
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
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_generate)

    sc = sub.add_parser("search", help="run a subdivision / clique search")
    ssub = sc.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "grid", "pattern", "collinear"):
        m = ssub.add_parser(mode)
        _add_common_search_flags(m, need_k=mode != "pattern")
        if mode in ("ap", "grid", "pattern"):
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
        if mode == "collinear":
            m.add_argument("--budget", type=int, default=None)
        m.set_defaults(func=_cmd_search)

    v = sub.add_parser("verify", help="certify a candidate subset")
    vsub = v.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "pattern", "collinear"):
        m = vsub.add_parser(mode)
        m.add_argument("--input", required=True)
        m.add_argument("--eps", type=float, required=True)
        m.add_argument("--json", action="store_true")
        if mode == "pattern":
            m.add_argument("--pattern", required=True)
            m.add_argument("--assignment", default=None,
                           help="comma-separated pattern indices, default identity")
        m.set_defaults(func=_cmd_verify)

    o = sub.add_parser("oracle", help="brute-force enumeration on small inputs")
    osub = o.add_subparsers(dest="mode", required=True)
    for mode in ("ap", "pattern", "collinear"):
        m = osub.add_parser(mode)
        m.add_argument("--input", required=True)
        m.add_argument("--eps", type=float, required=True)
        if mode != "pattern":
            m.add_argument("--k", type=int, required=True)
        else:
            m.add_argument("--pattern", required=True)
        m.add_argument("--budget", type=int, default=None)
        m.add_argument("--list", action="store_true")
        m.add_argument("--json", action="store_true")
        m.set_defaults(func=_cmd_oracle)

    pl = sub.add_parser("plot", help="render a point set to SVG")
    pl.add_argument("--input", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--highlight", default=None, help="comma-separated indices")
    pl.add_argument("--anchors", default=None, help="point-set file of anchors")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=_cmd_plot)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ApxpatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
