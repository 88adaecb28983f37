"""Pinned output bytes of the CLI.

Each artifact's sha256 digest was recorded from the code before a change
that claims to keep behaviour: the first group before the kernel package
became a single module, the second before the 1-D search became the d = 1
case of the grid search, the third (collinear search and verification,
pattern verification, plotting and the 1-D schedule) before point sets
became array-backed.  Any such change must reproduce these bytes
exactly (generated point files, search JSON with traces, and SVG figures).

The four outputs that carry a homothety certificate (search-grid.json,
search-pattern.json, verify-pattern-accept.json and
verify-pattern-reject.json) were re-recorded when the certificate became
one convex search over 1/scale: that change is meant to move the low bits
of the deviation and the witness, and nothing else in them.

The two collinear searches over generated clouds (search-collinear-greedy.json,
the budget-exhausted fallback, and search-collinear-absent.json, a proven
absence) were recorded before the coloring became arrays and the bucket
graphs bitsets.

Two generated sets (lattice-3d.txt, from a negative seed, and
random-2d-dense.txt, whose dart throwing refills its block of candidates)
were recorded before the splitmix64 stream was drawn in blocks.

The three collinear searches (search-collinear.json, search-collinear-greedy.json
and search-collinear-absent.json) were re-recorded when the finder lost its
frame rotation: each is the previous bytes with only the ``"rotations": 0``
key removed.

search-pattern.json was re-recorded when the pattern search came to look
for the pattern's node cells alone instead of a whole K-grid: the success
step of its trace lists the 3 node cells' anchors and chosen points instead
of all 49 cells of the 7-grid.  Its subset [0, 4200, 60], witness,
certificate and every other byte are unchanged; the old trace's entries at
the node cells are exactly the new ones.

``TEXT_GOLDEN`` pins the replies without --json (exit code, stdout and
stderr) of every leaf command.  They were recorded before the commands
returned their replies to ``main``, which alone writes them and picks the
exit code.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from apxpat.cli import main

EPS = "0.3333333333333333"

GOLDEN = {
    "random-1d.txt":
        "991890ff4c92f7c459e5cec486ef024628d2f9147084767171eabaad89f77fb6",
    "random-3d.txt":
        "d0f21e680d26170379613ba8d8bd9463206e6a3b44763832f4b353647e8dfa79",
    "lattice-2d.txt":
        "5d95c395c034d5951771db4f9cda7a4d2aee84e51c98bb10239784563bd7cab6",
    "search-ap.json":
        "3b8dad9bac559b6bd246e5c35d77ea73397bb584d3bff1a26b06d092503fde9a",
    "search-ap.svg":
        "90aa448eb60e7078c1b9c335479522bbb9a865a9702fcca10534c3e5f79624f2",
    "search-grid.json":
        "b5d4d0a7a4065288065428393e614262f14731195ba403fc347eb4bb984096cd",
    "search-grid.svg":
        "0b2b00be8addc30b32e0ce91a3c0eeb97f56298695d28439c6d48fcff0d1cdeb",
    "adversarial-1d.txt":
        "54b82f19bafc680f3fda1328e95b3689b58bc1f40031788961d9896c8fa3414c",
    "lattice-2d-wide.txt":
        "1f20e59a289d7b9bb2ca9ac4ac743aac453d3ac75052b4ef48bb2035919673db",
    "search-ap-absent.json":
        "e8f1b5a449f60632721bc15c6ac267ad8d2bf3e128b9e10926ef20712ccde99a",
    "search-grid-3d.json":
        "c8ae6ed8280afcab144ccd27d1d8d10049f2a8181e1ca67b47afbd0dc760f3e5",
    "search-pattern.json":
        "f893338443fc8f32aa7e41da26aed47ae01a4cf4aa4341d4821df27b5c25b7a4",
    "random-2d.txt":
        "b4c57cbfdfbf39de80e0f5f0e82bdd2b854a61eaae8ef31a6ad957e2588159fd",
    "search-collinear.json":
        "5509a192a4ff58c93a799e5d5de094605971acd306f19357ed6d75d22ab15229",
    "search-collinear.svg":
        "05e00580c185c3b294f6e2fb0baeca80cb2cc2d10e665fd94fcb7000a2a61287",
    "verify-collinear.json":
        "e41852eefd92fd709c5cdc4374fad38814f2db8d06a6eae3382d4aa9e213cab8",
    "verify-pattern-accept.json":
        "6f83f80abbb62b7b090afe183670c6e6c8beb8daca1d33f3c164b88f482e4121",
    "verify-pattern-reject.json":
        "c79ba976c9540b1d900e3636f7d91a8cb94cab356e33f8d45b75c3e8330da562",
    "plot.svg":
        "be8be14877b21a0fe1a21a049fb308469ab16f95a17cb537d6a54248909e6f68",
    "bounds-1d.json":
        "71d8b4e2a46d3864ec3552db347684fc6b777fb703cd00c74df1d2f5f170ab44",
    "search-collinear-greedy.json":
        "49985a237a5c0ff31e775fd43eed7081f83bc9805cff6dddccfffe1911699d96",
    "search-collinear-absent.json":
        "4ad8d99d97786d9dbceab172921b8b059dbbc919f5a9cebe4bbe2b74c29beee6",
    "lattice-3d.txt":
        "d29b2670f8cb2cb886f644d5bf1ea06c4730dd81543f6d74c2efe05c85d0d48b",
    "random-2d-dense.txt":
        "8e944c6aa25837a6aca507f3ea157146d2adfea5f07a5ab952e99bb9fb8c4f02",
}


def _run_cli(*argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


def artifacts(tmp_path) -> dict[str, bytes]:
    """Run the pinned CLI pipeline in tmp_path; map artifact name to bytes."""
    out = {}

    def generate(name, *flags):
        path = tmp_path / name
        code, _ = _run_cli("generate", *flags, "--out", str(path), "--json")
        assert code == 0
        out[name] = path.read_bytes()
        return path

    d1 = generate("random-1d.txt", "--kind", "random", "--dim", "1", "--length", "400",
                  "--delta", "1", "--count", "120", "--seed", "11")
    # 100 points at d=3 is below the 5^3 neighbour offsets, so the dart
    # thrower compares against the accepted points directly.
    d3 = generate("random-3d.txt", "--kind", "random", "--dim", "3", "--length", "12",
             "--delta", "1", "--count", "100", "--seed", "5")
    d2 = generate("lattice-2d.txt", "--kind", "lattice", "--dim", "2", "--length", "30",
                  "--jitter", "0.4", "--seed", "4")
    adv = generate("adversarial-1d.txt", "--kind", "adversarial", "--count", "12",
                   "--variant", "eighth")
    # Cells of the 63-per-axis pattern grid are wider than 1 + 2*jitter, so
    # each holds a lattice point and the search succeeds at step 0.
    wide = generate("lattice-2d-wide.txt", "--kind", "lattice", "--dim", "2",
                    "--length", "70", "--jitter", "0.1", "--seed", "4")
    # A 3-D lattice from a negative seed, and a dense 2-D dart throw whose
    # 2,294 attempts run past the first block of candidates.
    generate("lattice-3d.txt", "--kind", "lattice", "--dim", "3", "--length", "6",
             "--jitter", "0.3", "--seed", "-7")
    generate("random-2d-dense.txt", "--kind", "random", "--dim", "2", "--length", "40",
             "--delta", "1", "--count", "700", "--seed", "3")

    for mode, src, delta, c in (("ap", d1, "1", "0.3"), ("grid", d2, "0.2", "1.0")):
        fig = tmp_path / f"search-{mode}.svg"
        code, stdout = _run_cli("search", mode, "--input", str(src), "--k", "3",
                                "--eps", EPS, "--delta", delta, "--c", c,
                                "--json", "--trace", "--svg", str(fig))
        assert code == 0
        out[f"search-{mode}.json"] = stdout
        out[fig.name] = fig.read_bytes()

    def search(name, code_expected, *argv):
        code, stdout = _run_cli("search", *argv, "--json", "--trace")
        assert code == code_expected
        out[name] = stdout

    # No 3-term AP in {8^-i}: the trace only descends until fewer than k
    # points remain.
    search("search-ap-absent.json", 1, "ap", "--input", str(adv), "--k", "3",
           "--eps", "0.25", "--delta", "1e-10", "--c", "0.5")
    search("search-grid-3d.json", 1, "grid", "--input", str(d3),
           "--k", "3", "--eps", "0.1", "--delta", "1", "--c", "0.05")
    tri = tmp_path / "triangle.txt"
    tri.write_text("2\n0 0\n1 0\n0 1\n")
    search("search-pattern.json", 0, "pattern", "--input", str(wide), "--pattern", str(tri),
           "--eps", EPS, "--delta", "0.5", "--c", "1.0")

    # A planted tube: eight points near the line y = x/4 + 1, with
    # alternating perpendicular offsets, among 40 separated points.
    cloud = generate("random-2d.txt", "--kind", "random", "--dim", "2", "--length", "10",
                     "--delta", "0.5", "--count", "40", "--seed", "7")
    tube_rows = [f"{0.5 + 1.2 * i!r} {0.3 + 1.2 * i / 4 + 1 + (-1) ** i * 1e-3!r}"
                 for i in range(8)]
    tube = tmp_path / "tube.txt"
    tube.write_text(cloud.read_text() + "\n".join(tube_rows) + "\n")
    fig = tmp_path / "search-collinear.svg"
    code, stdout = _run_cli("search", "collinear", "--input", str(tube), "--k", "8",
                            "--eps", "0.1", "--json", "--svg", str(fig))
    assert code == 0
    out["search-collinear.json"] = stdout
    out[fig.name] = fig.read_bytes()
    line = tmp_path / "line.txt"
    line.write_text("2\n" + "\n".join(tube_rows) + "\n")
    code, out["verify-collinear.json"] = _run_cli("verify", "collinear", "--input", str(line),
                                                   "--eps", "0.1", "--json")
    assert code == 0

    for name, rows, code_expected in (("verify-pattern-accept.json", "10 10\n12 10.01\n10 12", 0),
                                      ("verify-pattern-reject.json", "0 0\n5 0\n0 1", 1)):
        cand = tmp_path / f"{name}.txt"
        cand.write_text(f"2\n{rows}\n")
        code, out[name] = _run_cli("verify", "pattern", "--input", str(cand),
                                   "--pattern", str(tri), "--eps", EPS, "--json")
        assert code == code_expected

    anchors = tmp_path / "anchors.txt"
    anchors.write_text("2\n0.5 0.5\n1.5 1.5\n29.25 3.0\n")
    fig = tmp_path / "plot.svg"
    code, _ = _run_cli("plot", "--input", str(d2), "--out", str(fig),
                       "--highlight", "0,31,62", "--anchors", str(anchors))
    assert code == 0
    out[fig.name] = fig.read_bytes()

    code, out["bounds-1d.json"] = _run_cli("bounds", "--dim", "1", "--k", "3", "--c", "0.3",
                                           "--delta", "1", "--eps", EPS, "--json")
    assert code == 0

    def cloud(count, seed):
        path = tmp_path / f"cloud-{count}-{seed}.txt"
        code, _ = _run_cli("generate", "--kind", "random", "--dim", "2", "--length", "1",
                           "--delta", "0.01", "--count", str(count), "--seed", str(seed),
                           "--out", str(path), "--json")
        assert code == 0
        return str(path)

    # A 3-node budget cuts the exact clique search short; the greedy pass
    # over the whole bucket graph then finds the subset.
    code, out["search-collinear-greedy.json"] = _run_cli(
        "search", "collinear", "--input", cloud(60, 4), "--k", "6", "--eps", "0.3",
        "--budget", "3", "--json")
    assert code == 0
    # An exhaustive search that finds no monochromatic 5-clique; the oracle
    # agrees that no 5-point 0.1-collinear subset exists.
    small = cloud(18, 0)
    code, out["search-collinear-absent.json"] = _run_cli(
        "search", "collinear", "--input", small, "--k", "5", "--eps", "0.1", "--json")
    assert code == 1
    assert _run_cli("oracle", "collinear", "--input", small, "--k", "5", "--eps", "0.1",
                    "--json") == (1, b'{"schema": 1, "exists": false}\n')
    return out


def test_cli_outputs_match_goldens(tmp_path):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in artifacts(tmp_path).items()}
    assert digests == GOLDEN


# Text-mode replies: exit code, stdout and stderr of every leaf command run
# without --json, recorded before the commands returned their replies to
# ``main`` for writing.  Paths are relative to the working directory, so
# the ``out:`` lines do not depend on where the test runs.
TEXT_GOLDEN = {
    "bounds":
        "19c2b00725057644832425c7c2a6e91a98bde7ad65ffcb86b64cd542758c8681",
    "generate-out":
        "f86ff0f16a1d1e8f46cd1da1a54857808bbfa68afe4dec2f4cfdb0fdfc8490c8",
    "generate-stream":
        "19b97f97db40c6acff4a6aadfa87a0919831cd40f86d4a2d8cfd027e17dd5a75",
    "search-ap":
        "cdca3ee2cf9c659a0dc1cc07355bd76cf426facebcb4cbd00bdc22573aad3340",
    "search-ap-warn":
        "08661cada3bd9470b6ba83fbe7bd7e27a1e2505895cc64eb813097770e6990c2",
    "search-grid":
        "487e256c9894a6cb45cd37d5d557eb9c421ca2836b3b3143c271d13effb7fe7f",
    "search-pattern":
        "07496153268e081cb3a47b914bb0ca1594829dbe8e2de03c69457a0268de58ae",
    "search-collinear":
        "5efaefbb9b4f343d72a3565b02e5516c20235e511244fb9efc9f38e240ce9b02",
    "verify-ap":
        "7dc9869b136e84e496674ad954b4938cf797400c446b8b20dba2fd485c48c168",
    "verify-pattern":
        "d14693f1b1390f77fa1efd5fa1512751f370fc32382cb6fcb731971b668f4b97",
    "verify-collinear":
        "fc5ef85e7e44c5581903ceebc339f50c3c22d0b44ca9be3cac69951687eb0a7f",
    "oracle-ap":
        "79d37eb3be6447eb2d17e6038ce8d04b317e52ea3d3d255668a90a5b8b5bdb74",
    "oracle-pattern":
        "760128eba06823f1cea2ce6ea24ff1c97232ae466b01a4e81ed4dce148e6751e",
    "oracle-collinear":
        "34dcd9ea1e26640e717f9af4031e360305b9a366eea11a8ace7bf971f65561bf",
    "plot":
        "b55cfe41699876c4ed952c35323a00088b024d8ab7dc12ab2f5d730e639d208f",
}


def _run_cli_text(*argv: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def text_artifacts() -> dict[str, bytes]:
    """Run every leaf command without --json in the working directory."""
    out = {}

    def write(name, rows):
        with open(name, "w") as fh:
            fh.write(rows)
        return name

    out["bounds"] = _run_cli_text("bounds", "--dim", "2", "--k", "3", "--c", "0.5",
                                  "--delta", "0.5", "--eps", "0.25")
    out["generate-out"] = _run_cli_text("generate", "--kind", "random", "--dim", "1",
                                        "--length", "400", "--delta", "1", "--count", "120",
                                        "--seed", "11", "--out", "d1.txt")
    out["generate-stream"] = _run_cli_text("generate", "--kind", "random", "--dim", "2",
                                           "--length", "10", "--delta", "1", "--count", "20",
                                           "--seed", "2")
    _run_cli_text("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
                  "--jitter", "0.4", "--seed", "4", "--out", "d2.txt")
    _run_cli_text("generate", "--kind", "lattice", "--dim", "2", "--length", "70",
                  "--jitter", "0.1", "--seed", "4", "--out", "wide.txt")
    _run_cli_text("generate", "--kind", "adversarial", "--count", "12", "--out", "adv.txt")
    tri = write("tri.txt", "2\n0 0\n1 0\n0 1\n")

    out["search-ap"] = _run_cli_text("search", "ap", "--input", "d1.txt", "--k", "3",
                                     "--eps", EPS, "--delta", "1", "--c", "0.3")
    # No 3-term AP in {8^-i}: the search stops early with a warning on stderr.
    out["search-ap-warn"] = _run_cli_text("search", "ap", "--input", "adv.txt", "--k", "3",
                                          "--eps", "0.25", "--delta", "1e-10", "--c", "0.5")
    out["search-grid"] = _run_cli_text("search", "grid", "--input", "d2.txt", "--k", "3",
                                       "--eps", EPS, "--delta", "0.2", "--c", "1.0", "--trace")
    out["search-pattern"] = _run_cli_text("search", "pattern", "--input", "wide.txt",
                                          "--pattern", tri, "--eps", EPS, "--delta", "0.5",
                                          "--c", "1.0")
    tube = write("tube.txt", "2\n" + "".join(
        f"{0.5 + 1.2 * i!r} {1.3 + 0.3 * i + (-1) ** i * 1e-3!r}\n" for i in range(8))
        + "0 5\n3 -2\n7 9\n")
    out["search-collinear"] = _run_cli_text("search", "collinear", "--input", tube,
                                            "--k", "6", "--eps", "0.1")

    ap = write("ap.txt", "1\n0\n1\n2.1\n3\n")
    out["verify-ap"] = _run_cli_text("verify", "ap", "--input", ap, "--eps", "0.25")
    cand = write("cand.txt", "2\n10 10\n12 10.01\n10 12\n")
    out["verify-pattern"] = _run_cli_text("verify", "pattern", "--input", cand,
                                          "--pattern", tri, "--eps", EPS,
                                          "--assignment", "0,1,2")
    out["verify-collinear"] = _run_cli_text("verify", "collinear", "--input", tube,
                                            "--eps", "0.1")

    small = write("small.txt", "1\n0\n1\n2\n3\n5\n8\n13\n")
    out["oracle-ap"] = _run_cli_text("oracle", "ap", "--input", small, "--k", "3",
                                     "--eps", "0.25", "--list")
    six = write("six.txt", "2\n0 0\n1 0\n0 1\n2 2\n4 2.1\n2 4\n")
    out["oracle-pattern"] = _run_cli_text("oracle", "pattern", "--input", six,
                                          "--pattern", tri, "--eps", "0.2")
    out["oracle-collinear"] = _run_cli_text("oracle", "collinear", "--input", tube,
                                            "--k", "5", "--eps", "0.1")
    out["plot"] = _run_cli_text("plot", "--input", "d2.txt", "--out", "fig.svg",
                                "--highlight", "0,31,62")
    return out


def test_text_replies_match_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in text_artifacts().items()}
    assert digests == TEXT_GOLDEN
