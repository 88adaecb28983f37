"""The traced benchmark (apxbench/tracer.py) wraps library functions by
their module attribute names; a renamed or bypassed function would drop
its spans without an error.  One traced ``search ap`` and one traced
``search grid`` must record the layers the benchmark reports."""

import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

from apxpat import cli

APXBENCH = Path(__file__).resolve().parents[1] / "apxbench"


def _run(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def test_traced_searches_record_their_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(APXBENCH))
    tracer = importlib.import_module("tracer")
    line = tmp_path / "line.txt"
    lattice = tmp_path / "lattice.txt"
    assert _run("generate", "--kind", "random", "--dim", "1", "--length", "400",
                "--delta", "1", "--count", "120", "--seed", "11", "--out", str(line)) == 0
    assert _run("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
                "--jitter", "0.4", "--seed", "4", "--out", str(lattice)) == 0
    eps = repr(1 / 3)
    t = tracer.Tracer()
    t.install()
    try:
        assert _run("search", "ap", "--input", str(line), "--k", "3", "--eps", eps,
                    "--delta", "1", "--c", "0.3") == 0
        assert _run("search", "grid", "--input", str(lattice), "--k", "3", "--eps", eps,
                    "--delta", "0.2", "--c", "1.0") == 0
    finally:
        t.uninstall()
    names = {span[0] for span in t.spans}
    assert {"search1d.search_ap", "verifier.verify_ap", "searchnd.search_grid",
            "verifier.verify_homothetic", "kernels.bin_cells"} <= names
