"""Every import in the package is used or re-exported.

Each module under src/apxpat/ is parsed, not imported.  A name bound by an
``import`` or ``from ... import`` statement must be read somewhere in the
module (a bare name, or the root of an attribute chain such as ``np.sum``)
or be listed in the module's ``__all__``.  ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apxpat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_package_modules_found():
    assert {"searchnd.py", "collinear.py", "__init__.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_a_leftover_import():
    tree = ast.parse("from itertools import product\nimport numpy as np\n"
                     "__all__ = ['f']\nfrom .x import f\nnp.zeros(1)\n")
    assert _unused_imports(tree) == ["line 1: product"]
