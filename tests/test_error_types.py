"""The package raises typed errors and checks whole numbers in one place.

Each module under src/apxpat/ is parsed, not imported.  No statement may
raise a bare ``ValueError``: an argument outside a function's domain raises
``InvalidArgument`` (an ``ApxpatError`` that is also a ``ValueError``),
from the shared checks in ``bounds`` where one fits.  No expression may
test ``int(x) != x`` by hand: ``bounds.check_whole`` is the one
whole-number check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apxpat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_int_of(node: ast.AST, other: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int" and len(node.args) == 1 and not node.keywords
            and ast.dump(node.args[0]) == ast.dump(other))


def _offences(tree: ast.AST) -> list[str]:
    """'line N: ...' for each bare ValueError raised and each int(x) != x."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append((node.lineno, "raise ValueError"))
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], ast.NotEq)):
            left, right = node.left, node.comparators[0]
            if _is_int_of(left, right) or _is_int_of(right, left):
                found.append((node.lineno, "int(x) != x"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_error_and_no_hand_written_whole_number_check(path):
    assert _offences(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_a_planted_value_error_and_whole_number_check():
    tree = ast.parse(
        "def f(n, eps):\n"
        "    if int(n) != n:\n"
        "        raise ValueError('n must be an integer')\n"
        "    if n.real != int(n.real):\n"
        "        raise ValueError\n"
        "    if int(n) != eps or int(n, 2) != n:\n"
        "        raise InvalidArgument('fine')\n"
        "    try:\n"
        "        return 1 / eps\n"
        "    except ValueError:\n"
        "        raise\n")
    assert _offences(tree) == ["line 2: int(x) != x", "line 3: raise ValueError",
                               "line 4: int(x) != x", "line 5: raise ValueError"]
