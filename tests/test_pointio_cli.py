import io
import json
import random
from contextlib import redirect_stdout

import pytest

from apxpat.cli import main
from apxpat.errors import ParseError
from apxpat.generators import gen_random_separated
from apxpat.geometry import Point, PointSet
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

    def test_deterministic_bytes(self):
        s = PointSet(2, [(0.123456789, 1), (2, 3)])
        assert emit_svg(s, [0]) == emit_svg(s, [0])

    def test_dim3_rejected(self):
        with pytest.raises(ValueError):
            emit_svg(PointSet(3, [(0, 0, 0)]))


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestCli:
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
