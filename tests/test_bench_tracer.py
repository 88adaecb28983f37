"""The traced benchmark (apxbench/tracer.py) wraps library functions by
their module attribute names; a renamed or bypassed function would drop
its spans without an error.  Traced runs of every command the benchmark
runs must record the layers it reports, and each run's self times must
add up to its ``cli.main`` span."""

import importlib
import io
import math
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
    tube = tmp_path / "tube.txt"
    tri = tmp_path / "triangle.txt"
    cand = tmp_path / "candidate.txt"
    tube.write_text("2\n" + "".join(f"{0.5 + i!r} {0.25 * i + 1e-3 * (-1) ** i!r}\n"
                                    for i in range(6)) + "3.0 5.0\n0.1 4.0\n")
    tri.write_text("2\n0 0\n1 0\n0 1\n")
    cand.write_text("2\n10 10\n12 10.01\n10 12\n")
    eps = repr(1 / 3)
    commands = [
        ("generate", "--kind", "random", "--dim", "1", "--length", "400",
         "--delta", "1", "--count", "120", "--seed", "11", "--out", str(line)),
        ("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
         "--jitter", "0.4", "--seed", "4", "--out", str(lattice)),
        ("search", "ap", "--input", str(line), "--k", "3", "--eps", eps,
         "--delta", "1", "--c", "0.3", "--svg", str(tmp_path / "ap.svg")),
        ("search", "grid", "--input", str(lattice), "--k", "3", "--eps", eps,
         "--delta", "0.2", "--c", "1.0", "--svg", str(tmp_path / "grid.svg")),
        ("search", "collinear", "--input", str(tube), "--k", "6", "--eps", "0.1",
         "--svg", str(tmp_path / "tube.svg")),
        ("verify", "pattern", "--input", str(cand), "--pattern", str(tri), "--eps", eps),
    ]
    t = tracer.Tracer()
    t.install()
    try:
        for phase, argv in enumerate(commands):
            t.phase = phase
            assert _run(*argv) == 0, argv
    finally:
        t.uninstall()
    names = {span[0] for span in t.spans}
    assert {"search1d.search_ap", "verifier.verify_ap", "searchnd.search_grid",
            "verifier.verify_homothetic", "kernels.bin_cells", "geometry.PointSet",
            "pointio.parse_pointset", "pointio.write_pointset", "pointio.emit_svg",
            "generators.gen_random_separated", "generators.gen_jittered_lattice",
            "kernels.dart_throw", "kernels.has_close_pair", "collinear.build_coloring",
            "collinear.find_collinear", "verifier.verify_collinear"} <= names
    # The tracer counts pairs as the coloring's len(assignments): 8 points.
    tube_phase = next(p for p, argv in enumerate(commands) if argv[:2] == ("search", "collinear"))
    assert t.counts[tube_phase]["collinear.pairs_colored"] == 28
    selfs = t.self_times()
    for phase in range(len(commands)):
        root = t.root_time(phase)
        assert [s[0] for s in t.spans if s[4] == phase and s[3] < 0] == ["cli.main"]
        assert math.isclose(sum(selfs[phase].values()), root, rel_tol=1e-9), phase


def test_traced_ap_search_counts(tmp_path, monkeypatch):
    # search.steps and search.systems_scanned of two traced ``search ap
    # --json --trace`` requests: one that succeeds at step 0 in system
    # t = 1, and one that descends twice and succeeds in system t = 3
    # (5 + 5 + 4 systems at s = 5).
    monkeypatch.syspath_prepend(str(APXBENCH))
    tracer = importlib.import_module("tracer")
    dense, sparse = tmp_path / "dense.txt", tmp_path / "sparse.txt"
    for path, count, seed in ((dense, "120", "0"), (sparse, "40", "3")):
        assert _run("generate", "--kind", "random", "--dim", "1", "--length", "400",
                    "--delta", "1", "--count", count, "--seed", seed, "--out", str(path)) == 0
    requests = {
        "step 0": ("--input", str(dense), "--lo", "-60", "--length", "600"),
        "descents": ("--input", str(sparse), "--lo", "0", "--length", "20000"),
    }
    counts = {}
    t = tracer.Tracer()
    t.install()
    try:
        for phase, (name, box) in enumerate(requests.items()):
            t.phase = phase
            assert _run("search", "ap", *box, "--k", "3", "--eps", "0.2", "--delta", "1",
                        "--c", repr(1 / 3), "--json", "--trace") == 0, name
            counts[name] = (t.counts[phase]["search.steps"],
                            t.counts[phase]["search.systems_scanned"])
    finally:
        t.uninstall()
    assert counts == {"step 0": (1, 2), "descents": (3, 14)}
