"""Every import and every top-level definition in the package is used or
exported.

Each module under src/apxpat/ is parsed, not imported.  A name bound by an
``import`` or ``from ... import`` statement must be read somewhere in the
module (a bare name, or the root of an attribute chain such as ``np.sum``)
or be listed in the module's ``__all__``.  ``from __future__`` imports are
compiler directives and are skipped.

A top-level function, class or constant must be read by some other
top-level statement of the package (as a bare name, an attribute such as
``_kernels.bin_cells``, or a name imported with ``from ... import``) or be
listed in its module's ``__all__``.  Code that only the tests run belongs
under tests/.

A module's ``__all__`` lists only names that the module itself defines at
top level, so no module re-exports another's names; ``__init__`` is the
one exception, as the package's public face.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apxpat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _exports(tree: ast.Module) -> set[str]:
    exported: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return exported


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
    exported = _exports(tree)
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def _reads(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """'module line N: name' for each top-level definition that no other
    top-level statement of the package reads and no __all__ lists."""
    exports = {mod: _exports(tree) for mod, tree in trees.items()}
    stmts = [(mod, stmt) for mod, tree in trees.items() for stmt in tree.body]
    reads = [_reads(stmt) for _, stmt in stmts]
    return [f"{mod} line {stmt.lineno}: {name}"
            for at, (mod, stmt) in enumerate(stmts) for name in _defined(stmt)
            if name not in exports[mod]
            and not any(name in r for other, r in enumerate(reads) if other != at)]


def _undefined_exports(tree: ast.Module) -> list[str]:
    """Names in the module's __all__ that no top-level statement of the
    module defines (an import does not define a name)."""
    defined = {name for stmt in tree.body for name in _defined(stmt)}
    return sorted(_exports(tree) - defined)


def test_package_modules_found():
    assert {"searchnd.py", "collinear.py", "__init__.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_a_leftover_import():
    tree = ast.parse("from itertools import product\nimport numpy as np\n"
                     "__all__ = ['f']\nfrom .x import f\nnp.zeros(1)\n")
    assert _unused_imports(tree) == ["line 1: product"]


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_all_lists_only_own_definitions(path):
    assert _undefined_exports(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_a_reexport():
    tree = ast.parse("from .x import Step\nimport numpy as np\n"
                     "__all__ = ['run', 'Step', 'LIMIT', 'CAP', 'Box', 'np']\n"
                     "LIMIT: int = 3\nCAP = 4\ndef run():\n    return Step\nclass Box:\n    pass\n")
    assert _undefined_exports(tree) == ["Step", "np"]


def test_no_unused_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    assert _unused_definitions(trees) == []


def test_checker_flags_a_leftover_definition():
    lib = ast.parse("__all__ = ['run']\n_N = 3\n_LEFT = 5\n"
                    "def run():\n    return _helper(_N)\n"
                    "def _helper(n):\n    return n\n"
                    "def _recursive(n):\n    return _recursive(n - 1)\n"
                    "class _Orphan:\n    pass\n")
    other = ast.parse("from .lib import run\nfrom . import lib\n"
                      "def _main():\n    return lib._walk(run())\n"
                      "def _walk(x):\n    return x\n"
                      "if __name__ == '__main__':\n    _main()\n")
    assert _unused_definitions({"lib.py": lib, "cli.py": other}) == [
        "lib.py line 3: _LEFT", "lib.py line 8: _recursive", "lib.py line 10: _Orphan"]
