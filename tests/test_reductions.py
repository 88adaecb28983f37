"""Reductions over point rows go through the per-column helpers.

numpy reduces an (n, d) array along an axis by walking its rows, which
costs many times a reduction of each column as one contiguous run, so
``_kernels.per_axis`` (min and max per axis) and ``_kernels.across_axes``
(all and any per row) reduce one column at a time.  Each module under
src/apxpat/ is parsed, not imported, and every call of ``min``, ``max``,
``all``, ``any`` or a ufunc's ``reduce`` with an ``axis=`` keyword is
flagged, outside those two helpers and the calls listed in ``ALLOWED``,
each with the reason its rows are not point rows.

The helpers themselves are checked against numpy's own reductions bit
for bit, signed zeros included.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from apxpat import _kernels

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apxpat"
MODULES = sorted(PACKAGE.glob("*.py"))
REDUCTIONS = {"min", "max", "all", "any", "reduce"}
HELPERS = {("_kernels.py", "per_axis"), ("_kernels.py", "across_axes")}
# (module, enclosing function, method): why the call may keep its axis.
ALLOWED = {
    ("oracle.py", "enumerate_homothetic", "max"):
        "a row per assignment of the pattern over its C(k, 2) pair columns, "
        "on the brute-force oracle's path",
    ("oracle.py", "enumerate_homothetic", "min"):
        "the same rows as the max beside it",
}


def _axis_reductions(tree: ast.Module, module: str) -> list[tuple[str, str, str, int]]:
    """(module, enclosing function, method, line) of every reduction call
    with an axis= keyword outside the helpers."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and any(kw.arg == "axis" for kw in child.keywords):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in REDUCTIONS and (module, func) not in HELPERS:
                    found.append((module, func, name, child.lineno))
            walk(child, func)

    walk(tree, "<module>")
    return found


def test_package_modules_found():
    assert {"_kernels.py", "searchnd.py", "pointio.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_point_rows_reduce_by_column(path):
    calls = _axis_reductions(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert [c for c in calls if c[:3] not in ALLOWED] == []


def test_every_allowed_call_is_still_there():
    calls = {c[:3] for path in MODULES
             for c in _axis_reductions(ast.parse(path.read_text()), path.name)}
    assert set(ALLOWED) <= calls


def test_checker_flags_a_planted_call():
    tree = ast.parse("import numpy as np\n"
                     "def f(a, b):\n"
                     "    lo = a.min(axis=0)\n"
                     "    hi = a.max()\n"
                     "    ok = np.all(b, axis=1)\n"
                     "    s = a.sum(axis=1)\n"
                     "    return np.minimum.reduce(a, axis=0), any(b), lo, hi, ok, s\n"
                     "def per_axis(ufunc, a):\n"
                     "    return ufunc.reduce(a, axis=0)\n"
                     "def g(b):\n"
                     "    return b.any(axis=1)\n")
    assert _axis_reductions(tree, "_kernels.py") == [
        ("_kernels.py", "f", "min", 3), ("_kernels.py", "f", "all", 5),
        ("_kernels.py", "f", "reduce", 7), ("_kernels.py", "g", "any", 11)]
    # Outside _kernels the helper's name is no exemption.
    assert ("x.py", "per_axis", "reduce", 9) in _axis_reductions(tree, "x.py")


_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_helpers_match_numpy_bit_for_bit(dim):
    # Columns of signed zeros alone, of the listed values, and of those
    # mixed with random floats; C and Fortran order.  A contiguous min of
    # a column disagrees with numpy's row walk on the sign of a zero in
    # some of the all-zero ones.
    rng = np.random.default_rng(dim)
    for trial in range(300):
        n = int(rng.integers(1, 301))
        pick = _VALUES[rng.integers(0, len(_VALUES), size=(n, dim))]
        a = [np.where(rng.random((n, dim)) < 0.5, 0.0, -0.0), pick,
             np.where(rng.random((n, dim)) < 0.5, pick, rng.normal(size=(n, dim)))][trial % 3]
        if trial % 4 == 3:
            a = np.asfortranarray(a)
        assert _kernels.per_axis(np.minimum, a).tobytes() == a.min(axis=0).tobytes()
        assert _kernels.per_axis(np.maximum, a).tobytes() == a.max(axis=0).tobytes()
        b = rng.random((n, dim)) < rng.random()
        assert np.array_equal(_kernels.across_axes(np.logical_and, b), b.all(axis=1))
        assert np.array_equal(_kernels.across_axes(np.logical_or, b), b.any(axis=1))
