import dataclasses
import hashlib
import io
import json
import math
import pathlib
import random
import re
import shlex
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from apxpat import cli
from apxpat.cli import build_parser, main
from apxpat.errors import ParseError
from apxpat.generators import gen_random_separated
from apxpat.geometry import Pattern, Point, PointSet, min_pairwise_distance
from apxpat.oracle import enumerate_homothetic
from apxpat.pointio import emit_svg, parse_pointset, write_pointset


class TestCodec:
    def test_parse_simple(self):
        s = parse_pointset(b"1\n0\n1\n3\n")
        assert s.dim == 1
        assert s.values() == (0.0, 1.0, 3.0)

    def test_comments_and_blanks(self):
        s = parse_pointset(b"# header\n\n2\n0 0\n# mid\n1.5 -2\n")
        assert s.dim == 2
        assert [p.coords for p in s] == [(0.0, 0.0), (1.5, -2.0)]

    def test_arity_error_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_pointset(b"2\n0 0\n1\n")
        assert err.value.line == 3

    def test_bad_dimension_line(self):
        with pytest.raises(ParseError):
            parse_pointset(b"x\n1\n")
        with pytest.raises(ParseError):
            parse_pointset(b"")
        with pytest.raises(ParseError):
            parse_pointset(b"1\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            parse_pointset(b"1\nnan\n")
        with pytest.raises(ParseError):
            parse_pointset(b"1\ninf\n")

    def test_bad_token_line_numbers(self):
        text = b"# header\n\n2\n0 1\n# mid\n\n  \n2 {tok}\n3 4\n"
        with pytest.raises(ParseError) as err:
            parse_pointset(text.replace(b"{tok}", b"x1"))
        assert err.value.line == 8
        assert "could not convert string to float: 'x1'" in str(err.value)
        for tok, shown in ((b"nan", "nan"), (b"inf", "inf"), (b"-Infinity", "-inf")):
            with pytest.raises(ParseError) as err:
                parse_pointset(text.replace(b"{tok}", tok))
            assert err.value.line == 8
            assert f"non-finite coordinate {shown}" in str(err.value)

    def test_first_bad_row_wins(self):
        # A malformed token is reported before a non-finite one in the
        # same row, and an earlier bad row before a later arity error.
        with pytest.raises(ParseError) as err:
            parse_pointset(b"2\n0 0\nnan x\n")
        assert err.value.line == 3 and "could not convert" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_pointset(b"2\n0 inf\n1 2 3\n")
        assert err.value.line == 2 and "non-finite" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_pointset(b"2\n0 0\n1 2 3\n1 x\n")
        assert err.value.line == 3 and "expected 2 coordinates" in str(err.value)

    def test_tokens_parse_as_float_does(self):
        toks = ["1_0", "+.5", "5.", "-0.0", "1e-400", "4.9e-324", "1E5", "0001", "-.25e+2"]
        s = parse_pointset(("1\n" + "\n".join(toks) + "\n").encode())
        assert [repr(v) for v in s.values()] == [repr(float(t)) for t in toks]

    def test_round_trip_exact(self):
        rng = random.Random(77)
        for _ in range(100):
            d = rng.choice([1, 2, 3])
            n = rng.randint(1, 20)
            s = PointSet(
                d,
                [
                    tuple(rng.uniform(-1e3, 1e3) * rng.choice([1, 1e-7, 1e7]) for _ in range(d))
                    for _ in range(n)
                ],
            )
            again = parse_pointset(write_pointset(s))
            assert again == s

    def test_write_deterministic(self):
        s = gen_random_separated(2, 20.0, 1.0, 30, 5)
        assert write_pointset(s) == write_pointset(s)


class TestSvg:
    def test_marker_counts(self):
        s = PointSet(2, [(0, 0), (1, 0), (0, 1), (2, 2)])
        svg = emit_svg(s).decode()
        assert svg.count("<circle") == 4
        svg = emit_svg(s, highlight=[1, 2], anchors=[Point((0.5, 0.5))]).decode()
        # 4 point markers + 1 open anchor marker
        assert svg.count("<circle") == 5
        assert svg.count('fill="none"') == 1

    def test_1d_axis_and_anchor_bars(self):
        s = PointSet(1, [(0,), (1,), (3,)])
        svg = emit_svg(s, highlight=[0], anchors=[Point((0,)), Point((3,))]).decode()
        assert svg.count("<line") == 3  # axis + 2 anchor bars
        assert svg.count("<circle") == 3

    def test_arrays_draw_what_lists_draw(self):
        # numpy arrays of indices and anchors draw the figure their lists
        # draw; a truth test of an array raises numpy's bare ValueError.
        s = PointSet(2, [(0, 0), (1, 0), (0, 1), (2, 2)])
        assert emit_svg(s, np.array([0, 1])) == emit_svg(s, [0, 1])
        assert (emit_svg(s, [0], np.array([[0.5, 0.5]]))
                == emit_svg(s, [0], [Point((0.5, 0.5))]))
        assert emit_svg(s, np.array([], dtype=int), np.empty((0, 2))) == emit_svg(s)

    def test_deterministic_bytes(self):
        s = PointSet(2, [(0.123456789, 1), (2, 3)])
        assert emit_svg(s, [0]) == emit_svg(s, [0])

    def test_dim3_rejected(self):
        with pytest.raises(ValueError):
            emit_svg(PointSet(3, [(0, 0, 0)]))

    @pytest.mark.parametrize("dim, anchor", [(2, (0.5,)), (1, (0.5, 0.5))])
    def test_anchor_of_another_dimension_rejected(self, dim, anchor, tmp_path, capsys):
        s = PointSet(dim, [(0,) * dim, (1,) * dim])
        with pytest.raises(ValueError, match="dimension"):
            emit_svg(s, anchors=[Point(anchor)])
        (tmp_path / "in.txt").write_bytes(write_pointset(s))
        (tmp_path / "anchors.txt").write_bytes(write_pointset(PointSet(len(anchor), [anchor])))
        code, out = run_cli("plot", "--input", str(tmp_path / "in.txt"), "--anchors",
                            str(tmp_path / "anchors.txt"), "--out", str(tmp_path / "out.svg"))
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: anchors must have")

    @pytest.mark.parametrize("index", [3, 5, -1])
    def test_highlight_outside_the_set_rejected(self, index, tmp_path, capsys):
        # The figure would silently lack the marker; plot exits 2 and writes
        # no figure.
        s = PointSet(2, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError, match=f"highlight index {index} is outside 0..2"):
            emit_svg(s, highlight=[1, index, 7])
        (tmp_path / "in.txt").write_bytes(write_pointset(s))
        fig = tmp_path / "out.svg"
        code, out = run_cli("plot", "--input", str(tmp_path / "in.txt"), "--out", str(fig),
                            "--highlight", f"0,{index}")
        assert code == 2 and out == "" and not fig.exists()
        assert capsys.readouterr().err == f"error: highlight index {index} is outside 0..2\n"


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestCli:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--dim", "2", "--k", "3", "--c", "1", "--delta", "0.5", "--json"),
        ("search", "ap", "--input", "{d1}", "--k", "3", "--delta", "0.5", "--c", "1"),
        ("search", "grid", "--input", "{d2}", "--k", "2", "--delta", "0.5", "--c", "1"),
        ("search", "pattern", "--input", "{d2}", "--pattern", "{tri}", "--delta", "0.5",
         "--c", "1", "--json"),
    ])
    def test_subnormal_eps_exits_2(self, argv, tmp_path, capsys):
        # It printed an OverflowError traceback and exited 1, the "not
        # found" code.
        files = {"d1": "1\n0\n1\n2\n", "d2": "2\n0 0\n1 0\n0 1\n1 1\n", "tri": "2\n0 0\n1 0\n0 1\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        argv = [a.format(**{n: str(tmp_path / f"{n}.txt") for n in files}) for a in argv]
        code, out = run_cli(*argv, "--eps", "1e-320")
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: eps 1e-320 ") and err.count("\n") == 1

    def test_bounds_json(self):
        code, out = run_cli("bounds", "--dim", "1", "--k", "3", "--c", "0.5",
                            "--delta", "1", "--eps", "0.3333333333333333", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["schedule"]["z0"] == 13122.0

    def test_generate_search_verify_pipeline(self, tmp_path):
        pts = tmp_path / "pts.txt"
        code, _ = run_cli(
            "generate", "--kind", "random", "--dim", "1", "--length", "200",
            "--delta", "1", "--count", "60", "--seed", "3", "--out", str(pts), "--json",
        )
        assert code == 0
        code, out = run_cli(
            "search", "ap", "--input", str(pts), "--k", "3", "--eps", "0.3333333333333333",
            "--delta", "1", "--c", "0.3", "--json", "--trace",
        )
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert code == (0 if doc["found"] else 1)
        if doc["found"]:
            assert doc["verify"]["accepted"]
            assert doc["trace"]

    def test_search_grid_and_svg(self, tmp_path):
        pts = tmp_path / "grid.txt"
        run_cli("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
                "--jitter", "0.4", "--seed", "1", "--out", str(pts))
        fig = tmp_path / "fig.svg"
        code, out = run_cli(
            "search", "grid", "--input", str(pts), "--k", "3",
            "--eps", "0.3333333333333333", "--delta", "0.2", "--c", "1.0",
            "--json", "--svg", str(fig),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["verify"]["accepted"]
        assert fig.read_bytes().startswith(b"<?xml")

    @pytest.mark.parametrize("mode", ["grid", "collinear"])
    def test_search_svg_of_3d_refused_before_the_search(self, mode, tmp_path, monkeypatch,
                                                        capsys):
        def never(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(cli, "search_grid", never)
        monkeypatch.setattr(cli, "find_collinear", never)
        pts = tmp_path / "cube.txt"
        pts.write_bytes(write_pointset(PointSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 1)])))
        fig = tmp_path / "fig.svg"
        args = ["search", mode, "--input", str(pts), "--k", "3", "--eps", "0.3",
                "--svg", str(fig)]
        if mode == "grid":
            args += ["--delta", "0.5", "--c", "1.0"]
        code, out = run_cli(*args)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: SVG emission supports dim 1 and 2 only\n"
        assert not fig.exists()

    def test_search_pattern(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pat = tmp_path / "pat.txt"
        run_cli("generate", "--kind", "lattice", "--dim", "2", "--length", "130",
                "--jitter", "0.3", "--seed", "2", "--out", str(pts))
        pat.write_bytes(b"2\n0 0\n1 0\n0 1\n")
        code, out = run_cli(
            "search", "pattern", "--input", str(pts), "--pattern", str(pat),
            "--eps", "0.3333333333333333", "--delta", "0.4", "--c", "1.0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["reduction"]["grid_k"] == 7

    def test_verify_ap_exit_codes(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_bytes(b"1\n0\n1\n2\n")
        code, out = run_cli("verify", "ap", "--input", str(good), "--eps", "0", "--json")
        assert code == 0
        assert json.loads(out)["accepted"]
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1\n0.015625\n0.125\n1\n")
        code, out = run_cli("verify", "ap", "--input", str(bad), "--eps", "0.25", "--json")
        assert code == 1
        assert not json.loads(out)["accepted"]

    def test_verify_pattern_and_collinear(self, tmp_path):
        q = tmp_path / "q.txt"
        q.write_bytes(b"2\n0 0\n1 0\n0 1\n1 1\n")
        pat = tmp_path / "p.txt"
        pat.write_bytes(b"2\n0 0\n1 0\n0 1\n1 1\n")
        code, out = run_cli("verify", "pattern", "--input", str(q), "--pattern", str(pat),
                            "--eps", "0.1", "--json")
        assert code == 0 and json.loads(out)["accepted"]
        line = tmp_path / "line.txt"
        line.write_bytes(b"2\n0 0\n1 0.001\n2 0\n3 0.002\n")
        code, out = run_cli("verify", "collinear", "--input", str(line), "--eps", "0.05", "--json")
        assert code == 0 and json.loads(out)["accepted"]

    def test_oracle_commands(self, tmp_path):
        pts = tmp_path / "adv.txt"
        run_cli("generate", "--kind", "adversarial", "--variant", "eighth",
                "--count", "8", "--out", str(pts))
        code, out = run_cli("oracle", "ap", "--input", str(pts), "--k", "3",
                            "--eps", "0.25", "--json", "--list")
        assert code == 1  # nothing found
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["hits"] == []

    @pytest.mark.parametrize("mode, eps", [("ap", "0.5"), ("ap", "nan"), ("collinear", "5")])
    @pytest.mark.parametrize("n", [2, 4])
    def test_oracle_bad_eps_exit_2_whatever_the_size(self, mode, eps, n, tmp_path, capsys):
        # A bad eps is refused before the set's size is looked at.
        pts = tmp_path / "pts.txt"
        rows = [f"{i}\n" if mode == "ap" else f"{i} {i * i}\n" for i in range(n)]
        pts.write_text(("1\n" if mode == "ap" else "2\n") + "".join(rows))
        code, out = run_cli("oracle", mode, "--input", str(pts), "--k", "3", "--eps", eps)
        interval = "[0, 1/3]" if mode == "ap" else "(0, 1]"
        assert (code, out, capsys.readouterr().err) == (2, "", f"error: eps must lie in {interval}\n")

    def test_oracle_pattern(self, tmp_path):
        pts = tmp_path / "pts.txt"
        rows = [(0, 0), (1, 0), (0, 1), (5, 5), (7, 5.1), (5, 7), (3, 9), (9, 2)]
        pts.write_text("2\n" + "".join(f"{x} {y}\n" for x, y in rows))
        pat = tmp_path / "tri.txt"
        pat.write_text("2\n0 0\n1 0\n0 1\n")
        want = enumerate_homothetic(PointSet(2, rows), Pattern(2, [(0, 0), (1, 0), (0, 1)]), 0.1)
        assert len(want) >= 2
        argv = ("oracle", "pattern", "--input", str(pts), "--pattern", str(pat),
                "--eps", "0.1", "--json")
        code, out = run_cli(*argv)
        assert code == 0 and json.loads(out) == {"schema": 1, "count": len(want)}
        code, out = run_cli(*argv, "--list")
        assert code == 0
        assert json.loads(out)["hits"] == [{"subset": list(sub), "assignment": list(sig)}
                                           for sub, sig in want]

    def test_verify_pattern_assignment(self, tmp_path):
        # The candidate lists the triangle's corners in the order 1, 2, 0.
        cand = tmp_path / "cand.txt"
        cand.write_text("2\n3 1\n1 3\n1 1\n")
        pat = tmp_path / "tri.txt"
        pat.write_text("2\n0 0\n1 0\n0 1\n")
        argv = ("verify", "pattern", "--input", str(cand), "--pattern", str(pat),
                "--eps", "0.3", "--json")
        code, out = run_cli(*argv, "--assignment", "1,2,0")
        doc = json.loads(out)
        assert code == 0 and doc["accepted"] and doc["witness_scale"] == pytest.approx(2.0)
        code, out = run_cli(*argv)
        assert code == 1 and not json.loads(out)["accepted"]

    def test_search_collinear_cli(self, tmp_path):
        pts = tmp_path / "line.txt"
        rows = ["2"] + [f"{0.05 * i} {0.015 * i + 1.0}" for i in range(15)]
        pts.write_text("\n".join(rows) + "\n")
        code, out = run_cli("search", "collinear", "--input", str(pts), "--k", "6",
                            "--eps", "0.1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["certificate"]["accepted"]

    def test_plot(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_bytes(b"2\n0 0\n1 1\n2 0\n")
        fig = tmp_path / "out.svg"
        code, _ = run_cli("plot", "--input", str(pts), "--out", str(fig),
                          "--highlight", "0,2", "--json")
        assert code == 0
        assert b"<svg" in fig.read_bytes()

    def test_usage_error_exit_2(self):
        code, _ = run_cli("search", "ap", "--input", "/nonexistent-file",
                          "--k", "3", "--eps", "0.3", "--delta", "1", "--c", "0.5")
        assert code == 2
        code, _ = run_cli("bogus-verb")
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ("--kind", "lattice", "--length", "inf"),
        ("--kind", "random", "--length", "inf"),
        ("--kind", "random", "--dim", "2", "--length", "1e200", "--delta", "1e-200"),
    ])
    def test_generate_out_of_range_length_exit_2(self, flags, capsys):
        code, out = run_cli("generate", *flags)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags", [
        ("--kind", "lattice", "--dim", "3", "--length", "1e5"),
        ("--kind", "lattice", "--dim", "30", "--length", "3"),
        ("--kind", "adversarial", "--count", "2000", "--variant", "eighth"),
        ("--kind", "adversarial", "--count", "700", "--variant", "xi", "--eps", "0.1"),
        ("--kind", "random", "--dim", "2", "--length", "3e-179", "--delta", "1e-179",
         "--count", "100"),
        ("--kind", "random", "--dim", "3", "--length", "3e120", "--delta", "1e120",
         "--count", "1000"),
    ])
    def test_generate_infeasible_exit_2(self, flags, capsys):
        code, out = run_cli("generate", *flags)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_generate_full_box_exit_2_fast(self, capsys):
        start = time.perf_counter()
        code, out = run_cli("generate", "--kind", "random", "--dim", "2", "--length", "3",
                            "--delta", "1", "--count", "14")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert re.match(r"error: accepted only \d+/14 points after \d+ attempts\n$",
                        capsys.readouterr().err)

    @pytest.mark.parametrize("flags, depth", [
        (("--dim", "30", "--k", "3", "--c", "1", "--delta", "1e-20"), 291759099490551680),
        (("--dim", "2", "--k", "3", "--c", "1e-300", "--delta", "1e-300"), 17604),
        (("--dim", "2", "--k", "3", "--c", "1e300", "--delta", "1e300"), 1),
        (("--dim", "2", "--k", "3", "--c", "1e-310", "--delta", "1.5e154"), 42),
        (("--k", "100000000000000000000", "--c", "1", "--delta", "1"), None),
    ])
    def test_bounds_past_the_float_range(self, flags, depth, capsys):
        code, out = run_cli("bounds", *flags, "--eps", "0.3", "--json")
        if depth is None:
            assert code == 2 and out == ""
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert code == 0 and json.loads(out)["schedule"]["j"] == depth

    def test_search_grid_with_underflowing_density(self, tmp_path):
        pts = tmp_path / "grid.txt"
        run_cli("generate", "--kind", "lattice", "--dim", "2", "--length", "12",
                "--jitter", "0.2", "--out", str(pts))
        code, out = run_cli("search", "grid", "--input", str(pts), "--k", "3", "--eps", "0.3",
                            "--delta", "1e-200", "--c", "1e-200", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["found"] and doc["below_threshold"]
        assert doc["schedule"]["j"] == 11739

    def test_verify_pattern_coincident_candidate_exit_2(self, tmp_path, capsys):
        # An exact copy scaled by 1e-300 is accepted; points that coincide
        # numerically, and a witness scale of 1e450, exit 2.
        pat = tmp_path / "tri.txt"
        pat.write_text("2\n0 0\n1 0\n0 1\n")
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("2\n0 0\n1e-150 0\n0 1e-150\n")
        for rows, pattern, expected in (("0 0\n1e-300 0\n0 1e-300", pat, 0),
                                        ("0.5 0\n0.5 1e-170\n0.5 2e-170", pat, 2),
                                        ("0 0\n1e300 0\n0 1e300", tiny, 2)):
            cand = tmp_path / "cand.txt"
            cand.write_text(f"2\n{rows}\n")
            code, out = run_cli("verify", "pattern", "--input", str(cand),
                                "--pattern", str(pattern), "--eps", "0.3")
            err = capsys.readouterr().err
            assert code == expected
            if expected == 2:
                assert out == "" and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("values, expected", [
        ("-1e308 0 1e308", 0), ("0 1e-310 2e-310", 0), ("-1.7e308 -1.6e308 1.7e308", 2),
    ])
    def test_verify_ap_past_the_float_range(self, tmp_path, capsys, values, expected):
        pts = tmp_path / "ap.txt"
        pts.write_text("1\n" + "\n".join(values.split()) + "\n")
        code, out = run_cli("verify", "ap", "--input", str(pts), "--eps", "0.3", "--json")
        err = capsys.readouterr().err
        assert code == expected
        if expected == 0:
            assert json.loads(out)["max_relative_deviation"] == 0.0
        else:
            assert out == "" and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("pattern", ["0 0\n1 0\n0 1", "0 0\n1e160 0\n0 1e160"])
    def test_verify_pattern_ignores_the_pattern_scale(self, tmp_path, pattern):
        # The stretched triangle is rejected against the right triangle at
        # any scale of the pattern, with the same deviation.
        cand, pat = tmp_path / "cand.txt", tmp_path / "pat.txt"
        cand.write_text("2\n0 0\n5 0\n0 1\n")
        pat.write_text(f"2\n{pattern}\n")
        code, out = run_cli("verify", "pattern", "--input", str(cand), "--pattern", str(pat),
                            "--eps", "0.1", "--json")
        assert code == 1
        assert abs(json.loads(out)["max_relative_deviation"] - 0.3922322702763681) < 1e-12

    @pytest.mark.parametrize("dim, length, delta", [
        ("2", "10", "1"), ("2", "1e-179", "1e-180"), ("1", "6e-179", "1e-180"),
        ("2", "1e171", "1e170"), ("1", "6e171", "1e170"),
    ])
    def test_generate_random_keeps_delta_at_any_scale(self, tmp_path, dim, length, delta):
        out = tmp_path / "g.txt"
        code, _ = run_cli("generate", "--kind", "random", "--dim", dim, "--length", length,
                          "--delta", delta, "--count", "40", "--seed", "1", "--out", str(out))
        assert code == 0
        s = parse_pointset(out.read_text())
        # Measured in units of delta, where no square leaves the float range.
        u = s.coords / float(delta)
        d2 = ((u[:, None, :] - u[None, :, :]) ** 2).sum(axis=2) + np.diag([np.inf] * 40)
        assert len(s) == 40 and d2.min() >= 1.0
        assert min_pairwise_distance(s) >= float(delta)

    @pytest.mark.parametrize("rows", [
        [(2 * x, 2 * y) for x in range(3) for y in range(3)] + [(0.23, 0)],
        [(4, 4), (0, 0), (0.23, 0)],
    ])
    def test_search_grid_audit_at_tiny_delta_exit_2(self, tmp_path, capsys, rows):
        # A pair 0.23*delta apart, in a 3x3 lattice of spacing 2*delta (the
        # grid hash) or with one more point (every pair compared).
        pts = tmp_path / "close.txt"
        pts.write_text("2\n" + "".join(f"{x}e-180 {y}e-180\n" for x, y in rows))
        code, out = run_cli("search", "grid", "--input", str(pts), "--k", "2",
                            "--eps", "0.3333333333333333", "--delta", "1e-180", "--c", "1")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: input contains a pair closer than delta=1e-180\n"

    @pytest.mark.parametrize("eps", ["1e-300", "5e-324"])
    def test_search_collinear_eps_too_small_to_bucket_exit_2(self, tmp_path, capsys, eps):
        pts = tmp_path / "c3.txt"
        pts.write_text("2\n0 0\n1 0\n2 0\n")
        code, out = run_cli("search", "collinear", "--input", str(pts), "--k", "3",
                            "--eps", eps)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_search_ap_box_past_the_float_range_exit_2(self, tmp_path, capsys):
        # Under the suite's warnings-as-errors setting a numpy RuntimeWarning
        # would raise here instead of the one error line.
        pts = tmp_path / "wide.txt"
        pts.write_text("1\n-1.7e308\n0\n1.7e308\n")
        code, out = run_cli("search", "ap", "--input", str(pts), "--k", "3",
                            "--eps", "0.3333333333333333", "--delta", "1", "--c", "0.4")
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: the search interval length inf is not a finite float\n"

    def test_trace_keeps_the_sign_numpy_gives_a_zero_minimum(self, tmp_path):
        # x is 0 or -0 on every row, -0 on the last: numpy's row-by-row
        # min(axis=0) gives -0.0, where a contiguous min of the column
        # gives 0.0.  The per-column reductions must keep numpy's sign.
        pts = tmp_path / "zeros.txt"
        pts.write_text("2\n" + "".join(f"{'-0' if j % 4 == 0 else '0'} {j}\n"
                                       for j in range(81)))
        code, out = run_cli("search", "grid", "--input", str(pts), "--k", "3",
                            "--eps", "0.3333333333333333", "--delta", "0.5", "--c", "1",
                            "--json", "--trace")
        assert code == 1 and '"box_low": [-0.0, 0.0]' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "09be966ba89c97cc46ad266611cf8c6daa1bc14a5b9cea3c3e94a41962ab3269")

    def test_consecutive_calls_are_independent(self, tmp_path):
        # The parser is built once per process; no call may see another's flags.
        pts = tmp_path / "grid.txt"
        run_cli("generate", "--kind", "lattice", "--dim", "2", "--length", "30",
                "--jitter", "0.4", "--seed", "1", "--out", str(pts))
        argv = ("search", "grid", "--input", str(pts), "--k", "3",
                "--eps", "0.3333333333333333", "--delta", "0.2", "--c", "1.0", "--json")
        code, out = run_cli(*argv, "--trace")
        assert code == 0 and "trace" in json.loads(out)
        assert run_cli("search", "grid", "--input", str(pts))[0] == 2
        code, out = run_cli(*argv)
        assert code == 0 and "trace" not in json.loads(out)

    def test_json_single_object(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_bytes(b"1\n0\n1\n2\n")
        code, out = run_cli("verify", "ap", "--input", str(pts), "--eps", "0.1", "--json")
        json.loads(out)  # exactly one valid JSON document
        assert out.count("\n") == 1

    def test_generate_json_without_out_is_single_object(self):
        code, out = run_cli("generate", "--kind", "adversarial", "--variant",
                            "eighth", "--count", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4 and doc["out"] is None
        assert out.count("\n") == 1

    def test_generate_stdout_stream(self):
        code, out = run_cli("generate", "--kind", "adversarial", "--variant",
                            "eighth", "--count", "3")
        assert code == 0
        s = parse_pointset(out)
        assert s.values() == (1.0, 0.125, 0.015625)

    @pytest.mark.parametrize("dim", ["3", "2", "0", "-1"])
    def test_generate_adversarial_refuses_a_dimension_other_than_1(self, dim, tmp_path, capsys):
        # The sequence is 1-D: any other --dim exits 2 with one error line,
        # and no file is written.
        out_file = tmp_path / "adv.txt"
        code, out = run_cli("generate", "--kind", "adversarial", "--dim", dim, "--count", "4",
                            "--out", str(out_file))
        err = capsys.readouterr().err
        assert (code, out) == (2, "") and not out_file.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out = run_cli("generate", "--kind", "adversarial", "--dim", "1", "--count", "3")
        assert code == 0 and parse_pointset(out).values() == (1.0, 0.125, 0.015625)

    @pytest.mark.parametrize("flags", [
        ("--dim", "3", "--k", "2", "--c", "1e-6", "--delta", "0.01", "--eps", "0.05"),
        ("--dim", "30", "--k", "3", "--c", "1", "--delta", "1e-20", "--eps", "0.3"),
    ])
    def test_infinite_z0_is_strict_json_null(self, flags):
        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        code, out = run_cli("bounds", *flags, "--json")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["schedule"]["z0"] is None

    def test_non_finite_reply_exits_2(self, monkeypatch, capsys):
        # Any other non-finite float makes the reply invalid JSON: an error,
        # with nothing on stdout.
        real = cli.schedule_nd
        monkeypatch.setattr(cli, "schedule_nd",
                            lambda *a: dataclasses.replace(real(*a), r=math.nan))
        code, out = run_cli("bounds", "--k", "3", "--c", "0.4", "--delta", "1",
                            "--eps", "0.3", "--json")
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_oracle_collinear_has_no_list_flag(self, tmp_path):
        pts = tmp_path / "pts.txt"
        pts.write_text("2\n0 0\n1 0\n2 0\n")
        argv = ("oracle", "collinear", "--input", str(pts), "--k", "3", "--eps", "0.1")
        assert run_cli(*argv) == (0, "exists: True\n")
        assert run_cli(*argv, "--list") == (2, "")


def test_readme_commands_parse():
    # Every apxpat command in README's sh blocks, with continuation lines
    # joined, is accepted by the parser.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("apxpat ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv)
