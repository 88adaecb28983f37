"""Point files have one bulk reader.

``pointio`` reads every plain point file with its own exact reader and
every other file with its row loop (see the pointio module docstring).
numpy's text readers would be a second bulk path, with rules of their own
for line ends, comments and malformed fields, so the package calls none
of them.  Each module under src/apxpat/ is parsed, not imported, and any
call of ``loadtxt``, ``genfromtxt`` or ``fromstring`` is flagged, whether
reached through the numpy module or imported from it by name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apxpat"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = {"loadtxt", "genfromtxt", "fromstring"}


def _reader_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every call of a numpy text reader in tree."""
    numpy_names = {"numpy"}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            imported |= {a.asname or a.name: a.name for a in node.names if a.name in READERS}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in READERS
                and isinstance(f.value, ast.Name) and f.value.id in numpy_names):
            found.append((f.attr, node.lineno))
        elif isinstance(f, ast.Name) and f.id in imported:
            found.append((imported[f.id], node.lineno))
    return sorted(found, key=lambda c: c[1])


def test_package_modules_found():
    assert {"pointio.py", "cli.py", "geometry.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_text_reader(path):
    assert _reader_calls(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_a_planted_call():
    tree = ast.parse("import io\n"
                     "import numpy as np\n"
                     "from numpy import genfromtxt as gft\n"
                     "def f(text):\n"
                     "    a = np.loadtxt(io.StringIO(text))\n"
                     "    b = gft(io.StringIO(text))\n"
                     "    return a, b, np.fromstring(text, sep=' '), np.frombuffer(b'')\n")
    assert _reader_calls(tree) == [("loadtxt", 5), ("genfromtxt", 6), ("fromstring", 7)]
