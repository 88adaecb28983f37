"""Points are binned into cells in one place per job.

The separation audit, dart throwing and its full-box test take their
cells, base and keys from ``_kernels._grid``, the one cell rule, and the
subdivision search bins through ``_kernels.bin_cells``.  ``_kernels.py`` is
parsed, not imported, and every ``floor`` call outside those two
functions is flagged: a second binning rule would have to be argued
sound on its own.
"""

import ast
from pathlib import Path

KERNELS = Path(__file__).resolve().parents[1] / "src" / "apxpat" / "_kernels.py"
BINNERS = {"_grid", "bin_cells"}


def _floor_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every floor call outside the binners."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "floor" and func not in BINNERS:
                    found.append((func, child.lineno))
            walk(child, func)

    walk(tree, "<module>")
    return found


def test_kernels_bin_by_one_rule():
    assert _floor_calls(ast.parse(KERNELS.read_text(), filename=str(KERNELS))) == []


def test_both_binners_are_still_there():
    names = {node.name for node in ast.walk(ast.parse(KERNELS.read_text()))
             if isinstance(node, ast.FunctionDef)}
    assert BINNERS <= names


def test_checker_flags_a_planted_call():
    tree = ast.parse("import math\n"
                     "import numpy as np\n"
                     "def _grid(x, c):\n"
                     "    return np.floor(x / c)\n"
                     "def _home_keys(x, c):\n"
                     "    return np.floor(x / c)\n"
                     "def f(x):\n"
                     "    return math.floor(x), np.ceil(x)\n"
                     "top = np.floor(2.5)\n")
    assert _floor_calls(tree) == [("_home_keys", 6), ("f", 8), ("<module>", 9)]
