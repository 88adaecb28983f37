"""One argument contract: every public entry point answers or raises a
typed ``ApxpatError``.

Each name in the ``__all__`` of the package or of any of its modules that
takes arguments, and each public method of ``PointSet``, is called with
each of its numeric arguments drawn on its own from an in-range strategy
or from ``WILD``: boundaries, zeros, negatives, non-integers, subnormals,
huge values, +-inf and nan.  An argument that holds a point's coordinates
is drawn from ``WILD_ROWS`` instead: a pair holding each ``WILD`` value,
scalars, ragged and nested rows, strings and arrays.  Every call must
return or raise an ``ApxpatError``, within ``TIME_CAP_S`` seconds and
with a tracemalloc peak under ``PEAK_CAP_BYTES``.  The same values go to
every numeric flag of the CLI: every run exits 0, 1 or 2, raises nothing
out of ``main``, and with ``--json`` writes one JSON object or nothing.
The cases named in the regression tests at the end each failed before
the checks were shared, or before point inputs went through one row
check.
"""

import dataclasses
import importlib
import io
import json
import math
import pkgutil
import signal
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apxpat
from apxpat import (Homothety, Pattern, Point, PointSet, angle_bucket, apply_homothety,
                    ball_volume, diameter, emit_svg, enumerate_aps, enumerate_homothetic,
                    exists_collinear, find_collinear, gen_adversarial_ap3, gen_jittered_lattice,
                    gen_random_separated, kappa, min_pairwise_distance, parse_pointset,
                    pattern_grid_resolution, schedule_nd, search_ap, search_grid, search_pattern,
                    verify_ap, verify_collinear, verify_homothetic, write_pointset)
from apxpat.cli import main
from apxpat.collinear import bucket_count, build_coloring
from apxpat.errors import ApxpatError, DimensionMismatch, InvalidArgument
from apxpat.verifier import triangle_angles

INF, NAN = math.inf, math.nan
WILD = (0, -1, 1, 2, 0.0, -0.0, 0.5, 1 / 3, 1.0, 2.5, -2.5, 5e-324, 1e-320,
        2.2250738585072014e-308, 1e-19, 1e308, -1e308, 10**30, -(10**30), 2**63,
        4294967296, INF, -INF, NAN)
WILD_ROWS = (*((v, 1.0) for v in WILD), 1.0, NAN, None, "ab", (), (1.0,), (1.0, 2.0, 3.0),
             ((1.0, 2.0), (3.0, 4.0)), [1.0, (2.0,)], (10**400, 0.0), np.array(1.0),
             np.array([1.0, 2.0]), {1: 2, 3: 4})
TIME_CAP_S = 10
PEAK_CAP_BYTES = 32 * 2**20

_TRI = Pattern(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def _line(x):
    return PointSet(1, [(0.0,), (1.0,), (2.0,), (4.0,), (x,)])


def _plane(x):
    return PointSet(2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (x, 2.0)])


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _opt(strategy):
    return st.none() | strategy


# Each argument: (its value in the base call, its in-range strategy).
_X1, _X2 = (6.0, _floats(5.0, 9.0)), (0.5, _floats(-0.5, 3.0))
_D, _K = (2, st.integers(1, 3)), (3, st.integers(2, 5))
_C, _DELTA = (0.5, _floats(0.1, 2.0)), (0.5, _floats(0.1, 1.0))
_EPS = (0.25, _floats(0.05, 1 / 3))
_SEED = (7, st.integers(-5, 2**64))
_BUDGET = (None, _opt(st.integers(0, 10**4)))
_LO, _LENGTH = (None, _opt(_floats(-5.0, 0.0))), (None, _opt(_floats(0.0, 100.0)))


def _row(base):
    """A point's coordinates: in range a pair of floats, wild from WILD_ROWS."""
    return base, st.tuples(_floats(-3.0, 3.0), _floats(-3.0, 3.0)), WILD_ROWS


# Every name in the __all__ of the package and of each of its modules.
PUBLIC = {name: getattr(module, name)
          for module in [apxpat, *(importlib.import_module(f"apxpat.{info.name}")
                                   for info in pkgutil.iter_modules(apxpat.__path__))]
          for name in getattr(module, "__all__", ())}


def _records():
    """The dataclass records of the API, each field drawn like any argument."""
    out = {}
    for name, obj in PUBLIC.items():
        if dataclasses.is_dataclass(obj) and obj.__dataclass_params__.init:
            fields = [f.name for f in dataclasses.fields(obj) if f.init]
            out[name] = (obj, {f: (0, st.integers(0, 3)) for f in fields})
    return out


ENTRIES = {
    "Point": (Point, {"coords": _row((0.5, 1.0))}),
    "PointSet": (lambda dim, x, row: PointSet(dim, [(x, 0.0), row]),
                 {"dim": (2, st.just(2)), "x": _X2, "row": _row((1.0, 1.0))}),
    "PointSet.points": (lambda x: _plane(x).points, {"x": _X2}),
    "PointSet.subset": (lambda i: _plane(0.5).subset([0, i]), {"i": (1, st.integers(-5, 4))}),
    "PointSet.values": (lambda x: _line(x).values(), {"x": _X1}),
    "Pattern": (lambda dim, x, row: Pattern(dim, [(x, 0.0), row]),
                {"dim": (2, st.just(2)), "x": _X2, "row": _row((1.0, 1.0))}),
    "Homothety": (Homothety, {"anchor": _row((0.5, 0.0)), "scale": (2.0, _floats(1e-3, 1e3))}),
    "apply_homothety": (lambda anchor, scale: apply_homothety(Homothety(anchor, scale), _TRI),
                        {"anchor": _row((0.5, 0.0)), "scale": (2.0, _floats(1e-3, 1e3))}),
    "min_pairwise_distance": (lambda x: min_pairwise_distance(PointSet(1, [(0.0,), (x,)])),
                              {"x": _X2}),
    "diameter": (lambda x: diameter(PointSet(1, [(0.0,), (x,)])), {"x": _X2}),
    "schedule_nd": (schedule_nd, {"d": _D, "k": _K, "c": _C, "delta": _DELTA, "eps": _EPS}),
    "kappa": (kappa, {"d": _D}),
    "ball_volume": (ball_volume, {"d": _D, "radius": (1.0, _floats(0.0, 10.0))}),
    "verify_ap": (lambda x, eps: verify_ap([0.0, 1.0, x], eps),
                  {"x": (2.0, _floats(1.5, 3.0)), "eps": (0.25, _floats(0.0, 1 / 3))}),
    "verify_homothetic": (
        lambda x, i, eps: verify_homothetic(PointSet(2, [(0.0, 0.0), (2.0, 0.0), (x, 2.0)]),
                                            _TRI, [0, 1, i], eps),
        {"x": (0.1, _floats(-0.5, 0.5)), "i": (2, st.just(2)), "eps": _EPS}),
    "triangle_angles": (triangle_angles, {"a": _row((0.0, 0.0)), "b": _row((1.0, 0.5)),
                                          "c": _row((2.0, 0.0))}),
    "verify_collinear": (
        lambda x, eps: verify_collinear(PointSet(2, [(0.0, 0.0), (1.0, 0.01), (2.0, x)]), eps),
        {"x": (0.0, _floats(-1.0, 1.0)), "eps": (0.25, _floats(0.01, 1.0))}),
    "search_ap": (
        lambda x, k, eps, delta, c, lo, length: search_ap(
            _line(x), k, eps, delta, c, lo=lo, length=length),
        {"x": _X1, "k": (3, st.integers(3, 5)), "eps": _EPS, "delta": _DELTA, "c": _C,
         "lo": _LO, "length": _LENGTH}),
    "search_grid": (
        lambda x, k, eps, delta, c, lo, length: search_grid(
            _plane(x), k, eps, delta, c, lo=None if lo is None else (lo, lo), length=length),
        {"x": _X2, "k": _K, "eps": _EPS, "delta": _DELTA, "c": _C, "lo": _LO,
         "length": _LENGTH}),
    "search_pattern": (
        lambda x, eps, delta, c, lo, length: search_pattern(
            _plane(x), _TRI, eps, delta, c, lo=None if lo is None else (lo, lo), length=length),
        {"x": _X2, "eps": _EPS, "delta": _DELTA, "c": _C, "lo": _LO, "length": _LENGTH}),
    "pattern_grid_resolution": (
        lambda x, eps: pattern_grid_resolution(Pattern(2, [(0.0, 0.0), (1.0, 0.0), (x, 1.0)]), eps),
        {"x": _X2, "eps": _EPS}),
    "angle_bucket": (lambda p, x, r: angle_bucket(p, (x, 1.0), r),
                     {"p": _row((0.0, 0.0)), "x": _X2, "r": (8, st.integers(1, 10**6))}),
    "bucket_count": (bucket_count, {"eps": (0.25, _floats(0.01, 0.99))}),
    "build_coloring": (lambda x, eps: build_coloring(_plane(x), eps),
                       {"x": _X2, "eps": (0.25, _floats(0.01, 0.99))}),
    "find_collinear": (
        lambda x, k, eps, node_budget: find_collinear(_plane(x), k, eps, node_budget=node_budget),
        {"x": _X2, "k": (3, st.integers(3, 5)), "eps": (0.25, _floats(0.01, 0.99)),
         "node_budget": _BUDGET}),
    "gen_random_separated": (
        gen_random_separated,
        {"d": _D, "length": (8.0, _floats(1.0, 20.0)), "delta": (1.0, _floats(0.5, 2.0)),
         "target_count": (5, st.integers(1, 10)), "seed": _SEED}),
    "gen_jittered_lattice": (
        gen_jittered_lattice,
        {"d": _D, "length": (4.0, _floats(1.0, 6.0)), "jitter": (0.25, _floats(0.0, 0.49)),
         "seed": _SEED}),
    "gen_adversarial_ap3": (
        gen_adversarial_ap3,
        {"n": (5, st.integers(3, 40)), "variant": ("xi", st.sampled_from(["xi", "eighth", "tenth"])),
         "eps": (0.1, _opt(_floats(0.0, 0.33)))}),
    "enumerate_aps": (
        lambda x, k, eps, budget: enumerate_aps(_line(x), k, eps, budget=budget),
        {"x": _X1, "k": (3, st.integers(3, 5)), "eps": (0.25, _floats(0.0, 1 / 3)),
         "budget": _BUDGET}),
    "enumerate_homothetic": (
        lambda x, eps, budget: enumerate_homothetic(_plane(x), _TRI, eps, budget=budget),
        {"x": _X2, "eps": _EPS, "budget": _BUDGET}),
    "exists_collinear": (
        lambda x, k, eps, budget: exists_collinear(_plane(x), k, eps, budget=budget),
        {"x": _X2, "k": (3, st.integers(3, 5)), "eps": (0.25, _floats(0.01, 1.0)),
         "budget": _BUDGET}),
    "parse_pointset": (lambda dim, x: parse_pointset(f"{dim}\n{x!r} 0\n1 1\n"),
                       {"dim": (2, st.just(2)), "x": _X2}),
    "write_pointset": (lambda x: write_pointset(PointSet(2, [(x, 0.0), (1.0, 1.0)])), {"x": _X2}),
    "emit_svg": (lambda anchor, i: emit_svg(_plane(1.0), [i], [anchor]),
                 {"anchor": _row((0.5, 0.0)), "i": (1, st.integers(0, 4))}),
    **_records(),
}
# Arguments that are not numbers take only their in-range values.
_NOT_NUMERIC = {("gen_adversarial_ap3", "variant")}


def _wild(name, arg):
    """The wild values of one argument: none for an argument that is not a
    number, WILD_ROWS for a point's coordinates, else WILD."""
    if (name, arg) in _NOT_NUMERIC:
        return ()
    spec = ENTRIES[name][1][arg]
    return spec[2] if len(spec) > 2 else WILD


def test_every_public_name_that_takes_arguments_is_covered():
    methods = {f"PointSet.{name}" for name in vars(PointSet) if not name.startswith("_")}
    assert methods == {"PointSet.points", "PointSet.subset", "PointSet.values"}
    assert {name for name, obj in PUBLIC.items() if callable(obj)} | methods == set(ENTRIES)


class _Overtime(BaseException):
    pass


def _overtime(signum, frame):
    raise _Overtime


def run_capped(call, *args, **kwargs):
    """(value or the exception raised, tracemalloc peak in bytes) of one
    call, cut with _Overtime after TIME_CAP_S seconds."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(TIME_CAP_S)
    tracemalloc.start()
    try:
        out = call(*args, **kwargs)
    except (Exception, _Overtime) as exc:  # the caller inspects it
        out = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return out, peak


def _typed(out):
    """Whether a call returned, or raised an ApxpatError."""
    return not isinstance(out, BaseException) or isinstance(out, ApxpatError)


def _arguments(name):
    def drawn(arg, strategy):
        wild = _wild(name, arg)
        return strategy | st.sampled_from(wild) if wild else strategy

    return st.fixed_dictionaries({arg: drawn(arg, spec[1])
                                  for arg, spec in ENTRIES[name][1].items()})


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_returns_or_raises_a_typed_error(name, data):
    kwargs = data.draw(_arguments(name), label="arguments")
    out, peak = run_capped(ENTRIES[name][0], **kwargs)
    assert _typed(out), repr(out)
    assert peak < PEAK_CAP_BYTES


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_one_wild_argument_at_a_time(name):
    # Every wild value of every argument, the others at their base.
    call, specs = ENTRIES[name]
    base = {arg: spec[0] for arg, spec in specs.items()}
    for arg in specs:
        for value in _wild(name, arg):
            out, peak = run_capped(call, **{**base, arg: value})
            assert _typed(out), (arg, value, repr(out))
            assert peak < PEAK_CAP_BYTES, (arg, value, peak)


# --- The CLI ---------------------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"d1": "1\n0\n1\n2\n4\n6\n", "d2": "2\n0 0\n1 0\n2 0\n0 1\n1 1\n0.5 2\n",
             "tri": "2\n0 0\n1 0\n0 1\n", "cand": "2\n0 0\n2 0\n0.1 2\n"}
    for name, text in paths.items():
        (root / f"{name}.txt").write_text(text)
    return {name: str(root / f"{name}.txt") for name in paths} | {"out": str(root / "out")}


# Each command: its fixed arguments (with {file} placeholders) and its
# numeric flags, each with its value in the base run and its in-range
# strategy.  --json is added by the property.
_FLAG_INT = {"--dim": (2, st.integers(1, 3)), "--k": (3, st.integers(2, 5)),
             "--budget": (100, st.integers(0, 10**4)), "--seed": (7, st.integers(-5, 2**64))}
_FLAG_FLOAT = {"--c": (0.5, _floats(0.1, 2.0)), "--delta": (0.5, _floats(0.1, 1.0)),
               "--eps": (0.25, _floats(0.05, 1 / 3)), "--length": (4.0, _floats(1.0, 6.0)),
               "--lo": (-1.0, _floats(-5.0, 0.0)), "--jitter": (0.25, _floats(0.0, 0.49))}
COMMANDS = {
    "bounds": (["bounds"], ["--dim", "--k", "--c", "--delta", "--eps"]),
    "generate-random": (["generate", "--kind", "random", "--out", "{out}"],
                        ["--dim", "--length", "--delta", "--count", "--seed"]),
    "generate-lattice": (["generate", "--kind", "lattice", "--out", "{out}"],
                         ["--dim", "--length", "--jitter", "--seed"]),
    "generate-adversarial": (["generate", "--kind", "adversarial", "--variant", "xi"],
                             ["--count", "--eps"]),
    "search-ap": (["search", "ap", "--input", "{d1}"],
                  ["--k", "--eps", "--delta", "--c", "--length", "--lo"]),
    "search-grid": (["search", "grid", "--input", "{d2}"],
                    ["--k", "--eps", "--delta", "--c", "--length"]),
    "search-pattern": (["search", "pattern", "--input", "{d2}", "--pattern", "{tri}"],
                       ["--eps", "--delta", "--c", "--length"]),
    "search-collinear": (["search", "collinear", "--input", "{d2}"], ["--k", "--eps", "--budget"]),
    "verify-ap": (["verify", "ap", "--input", "{d1}"], ["--eps"]),
    "verify-pattern": (["verify", "pattern", "--input", "{cand}", "--pattern", "{tri}"],
                       ["--eps", "--assignment"]),
    "verify-collinear": (["verify", "collinear", "--input", "{d2}"], ["--eps"]),
    "oracle-ap": (["oracle", "ap", "--input", "{d1}", "--list"], ["--k", "--eps", "--budget"]),
    "oracle-pattern": (["oracle", "pattern", "--input", "{d2}", "--pattern", "{tri}"],
                       ["--eps", "--budget"]),
    "oracle-collinear": (["oracle", "collinear", "--input", "{d2}"], ["--k", "--eps", "--budget"]),
    "plot": (["plot", "--input", "{d2}", "--out", "{out}"], ["--highlight"]),
}
_FLAGS = {**_FLAG_INT, **_FLAG_FLOAT, "--count": (5, st.integers(1, 10)),
          "--assignment": (2, st.just(2)), "--highlight": (1, st.integers(0, 5))}


def _flag_text(flag, value):
    text = repr(value) if isinstance(value, float) else str(value)
    if flag == "--assignment":
        return f"0,1,{text}"
    if flag == "--highlight":
        return f"0,{text}"
    return text


def run_main(argv):
    """(exit code or the exception main raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_capped(main, argv)[0]
    return code, out.getvalue(), err.getvalue()


def _check_run(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if "--json" in argv and out:
        reply = json.loads(out)
        assert isinstance(reply, dict) and reply["schema"] == 1, argv


def _argv(command, values, files):
    fixed, flags = COMMANDS[command]
    argv = [part.format(**files) for part in fixed]
    for flag in flags:
        argv += [flag, _flag_text(flag, values[flag])]
    return argv + ["--json"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_cli_run_exits_0_1_or_2(command, data, files):
    values = data.draw(st.fixed_dictionaries({
        flag: _FLAGS[flag][1] | st.sampled_from(WILD) for flag in COMMANDS[command][1]}))
    _check_run(_argv(command, values, files))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_wild_flag_at_a_time(command, files):
    flags = COMMANDS[command][1]
    base = {flag: _FLAGS[flag][0] for flag in flags}
    for flag in flags:
        for value in WILD:
            _check_run(_argv(command, {**base, flag: value}, files))


# --- Regression cases --------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: search_ap(_line(6.0), 3, 0.25, 0.5, 0.5, length=NAN),
    lambda: search_grid(_plane(0.5), 2, 0.25, 0.5, 0.5, length=NAN),
    lambda: search_pattern(_plane(0.5), _TRI, 0.25, 0.5, 0.5, length=NAN),
    lambda: search_ap(_line(6.0), 3, 0.25, 0.5, 0.5, length=-1.0),
    lambda: search_ap(_line(6.0), 3, 0.25, 0.5, 0.5, lo=INF),
    lambda: search_ap(_line(6.0), 3, 0.25, 0.5, 0.5, lo=NAN),
    lambda: search_grid(_plane(0.5), 2, 0.25, 0.5, 0.5, lo=(0.0, -INF)),
    lambda: gen_random_separated(1, 10.0, 1.0, 3, 2.5),
    lambda: gen_jittered_lattice(1, 10.0, 0.25, 2.5),
    lambda: gen_random_separated(1, 10.0, 1.0, 2.5, 0),
    lambda: find_collinear(_plane(0.5), 3, 0.25, node_budget=NAN),
    lambda: enumerate_aps(_line(6.0), 3, 0.25, budget=2.5),
    lambda: exists_collinear(_plane(0.5), 3, 0.25, budget=INF),
    lambda: angle_bucket((0.0, 0.0), (1.0, 1.0), 10**30),
    lambda: emit_svg(_plane(0.5), [1.5]),
], ids=["ap-length-nan", "grid-length-nan", "pattern-length-nan", "ap-length-negative",
        "ap-lo-inf", "ap-lo-nan", "grid-lo-inf", "random-seed-2.5", "lattice-seed-2.5",
        "random-count-2.5", "collinear-node-budget-nan", "aps-budget-2.5",
        "exists-collinear-budget-inf", "angle-bucket-r-huge", "svg-highlight-1.5"])
def test_values_once_accepted_silently_are_refused(call):
    with pytest.raises(InvalidArgument):
        call()


@pytest.mark.parametrize("call,error", [
    (lambda: triangle_angles((0, 0), (1, NAN), (2, 0)), InvalidArgument),
    (lambda: triangle_angles((0, 0), (1,), (2, 0)), DimensionMismatch),
    (lambda: triangle_angles(1.0, (1, 2), (2, 0)), DimensionMismatch),
    (lambda: PointSet(2, [1.0, (1, 2)]), DimensionMismatch),
    (lambda: Point(1.0), DimensionMismatch),
    (lambda: Point([]), InvalidArgument),
    (lambda: Point("12"), DimensionMismatch),
    (lambda: Point(b"\x01\x02"), InvalidArgument),
    (lambda: Homothety("12", 1.0), DimensionMismatch),
    (lambda: _plane(0.5).subset([0.5]), InvalidArgument),
    (lambda: _plane(0.5).subset([5]), InvalidArgument),
    (lambda: _plane(0.5).subset([-6]), InvalidArgument),
], ids=["triangle-nan", "triangle-ragged", "triangle-scalar", "pointset-scalar-row",
        "point-scalar", "point-empty", "point-str", "point-bytes", "homothety-str",
        "subset-0.5", "subset-past-the-end", "subset-before-the-start"])
def test_point_inputs_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("row", ["12", b"\x01\x02", "ab", (1.0, NAN), (10**400, 0.0),
                                 [1.0, (2.0,)], ((1.0, 2.0), (3.0, 4.0)), np.array([1.0, 2.0])],
                         ids=repr)
def test_a_point_is_checked_as_a_row_of_its_own_length(row):
    # A string or bytes object is not read as a sequence of digits.
    try:
        want = PointSet(len(row), [row]).coords[0].tolist()
    except ApxpatError as exc:
        with pytest.raises(type(exc)):
            Point(row)
    else:
        assert list(Point(row)) == want


@pytest.mark.parametrize("call,error", [
    (lambda: search_grid(_plane(0.5), 2, 0.25, 0.5, 0.5, lo=(0.0,)), DimensionMismatch),
    (lambda: search_pattern(_line(6.0), _TRI, 0.25, 0.5, 0.5), DimensionMismatch),
    (lambda: search_ap(_plane(0.5), 3, 0.25, 0.5, 0.5), DimensionMismatch),
    (lambda: verify_homothetic(_plane(0.5).subset([0, 1]), _TRI, [0, 1], 0.25),
     InvalidArgument),
    (lambda: verify_homothetic(PointSet(3, np.eye(3)), _TRI, [0, 1, 2], 0.25),
     DimensionMismatch),
    (lambda: verify_collinear(_plane(0.5).subset([0, 1]), 0.25), InvalidArgument),
    (lambda: enumerate_aps(_plane(0.5), 3, 0.25), DimensionMismatch),
    (lambda: enumerate_homothetic(_line(6.0), _TRI, 0.25), DimensionMismatch),
    (lambda: Pattern(2, [(0.0, 0.0)]), InvalidArgument),
    (lambda: _plane(0.5).values(), DimensionMismatch),
    (lambda: build_coloring(_line(6.0), 0.25), DimensionMismatch),
    (lambda: find_collinear(_line(6.0), 3, 0.25), DimensionMismatch),
], ids=["grid-lo-of-one-axis", "pattern-off-its-dimension", "ap-in-the-plane",
        "homothety-sizes-differ", "homothety-dimensions-differ", "collinear-two-points",
        "aps-in-the-plane", "enumerate-homothetic-off-its-dimension", "pattern-of-one-point",
        "values-in-the-plane", "coloring-on-a-line", "collinear-on-a-line"])
def test_refusals_of_each_entry_point(call, error):
    with pytest.raises(error):
        call()


def test_search_stops_where_the_cell_width_underflows():
    # A box two subnormal steps long in k*s = 6 cells: the first width is 0.
    out = search_grid(PointSet(1, [[0.0], [1e-323]]), 2, 1 / 3, 5e-324, 1.0)
    assert not out.found and out.trace.steps == ()
    assert out.warnings[-1] == "cell width underflowed; stopping early"


def test_subset_keeps_negative_indices():
    s = _plane(0.5)
    assert s.subset([-1, 0, -5]) == s.subset([4, 0, 0])


def test_sizes_are_refused_before_anything_is_built():
    # n terms of an adversarial sequence, 2**32 or more points of a random
    # set, and a lattice past _MAX_DIM or past memory: each refused at once.
    for call in (lambda: gen_adversarial_ap3(4294967296, "eighth"),
                 lambda: gen_adversarial_ap3(10**30, "xi", 0.1),
                 lambda: gen_random_separated(1, 1e308, 1.0, 4294967296, 0),
                 lambda: gen_random_separated(1, 1e308, 1.0, 10**30, 0),
                 lambda: gen_jittered_lattice(10**30, 2.0, 0.25, 0),
                 lambda: gen_jittered_lattice(3, 1e6, 0.25, 0)):
        out, peak = run_capped(call)
        assert isinstance(out, ApxpatError), repr(out)
        assert peak < 2**20


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "lattice", "--dim", str(10**30), "--length", "2"],
    ["generate", "--kind", "adversarial", "--count", "4294967296"],
    ["search", "ap", "--input", "{d1}", "--k", "3", "--eps", "0.25", "--delta", "0.5",
     "--c", "0.5", "--lo", "inf"],
], ids=["lattice-dim-10**30", "adversarial-count-2**32", "search-ap-lo-inf"])
def test_cli_cases_exit_2_with_one_error_line(argv, files):
    code, out, err = run_main([part.format(**files) for part in argv] + ["--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("k", ["4294967296", str(10**30)])
def test_cli_oracle_with_k_above_n_counts_none(k, files):
    code, out, err = run_main(["oracle", "ap", "--input", files["d1"], "--k", k,
                               "--eps", "0.25", "--json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"schema": 1, "count": 0}


def test_enumerate_aps_with_k_above_n_finds_none():
    assert enumerate_aps(_line(6.0), 4294967296, 0.25) == []
    assert enumerate_aps(_line(6.0), 10**30, 0.25) == []
