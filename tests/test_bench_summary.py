"""tools/bench_summary.py on hand-made record files."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

HOST = {"backend": "pure-python", "python": "3.11", "seed": 0}


def _record(path, seed, tmean, trace=0):
    metrics = {"cycle_ref.tmean": tmean, "peak_rss_mb": 40.0}
    if trace:
        metrics = {"kernels.dart_throw.self_s": tmean}
    path.write_text(json.dumps({
        "workload": "ap-threshold", "seed": seed, "seconds": 26, "trace": trace,
        "host": dict(HOST, seed=seed), "metrics": metrics, "correct": True,
        "attempted": 10, "failed": 0}))
    return str(path)


def test_summary_quartiles_and_pairs(tmp_path):
    parent = [_record(tmp_path / f"p{s}.json", s, t) for s, t in ((1, 2.0), (2, 2.2), (3, 2.1))]
    change = [_record(tmp_path / f"c{s}.json", s, t) for s, t in ((1, 1.5), (2, 2.3), (3, 1.6))]
    traced = _record(tmp_path / "t.json", 3, 0.01, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--out", str(out), "--side", "parent", "abc", *parent, traced,
                               "--side", "change", "def", *change]) == 0
    doc = json.loads(out.read_text())
    base = doc["sides"][0]
    assert (base["commit"], base["backends"]) == ("abc", ["pure-python"])
    assert base["hosts"] == [{"backend": "pure-python", "python": "3.11"}]
    tmean = base["end_to_end"]["ap-threshold"]["metrics"]["cycle_ref.tmean"]
    assert (tmean["q1"], tmean["median"], tmean["q3"]) == pytest.approx((2.05, 2.1, 2.15))
    assert base["end_to_end"]["ap-threshold"]["seeds"] == [1, 2, 3]
    assert base["traced"]["ap-threshold"]["metrics"]["kernels.dart_throw.self_s"]["median"] == 0.01
    row = doc["comparison"]["workloads"]["ap-threshold"]["cycle_ref.tmean"]
    assert (row["pairs"], row["wins"], row["losses"], row["better"]) == (3, 2, 1, "lower")
    assert abs(row["median_change"] - (1.6 / 2.1 - 1)) < 1e-12
    assert doc["comparison"]["workloads"]["ap-threshold"]["peak_rss_mb"]["wins"] == 0


def test_sides_with_different_seeds_are_an_error(tmp_path, capsys):
    parent = [_record(tmp_path / f"p{s}.json", s, 2.0) for s in (1, 2, 3)]
    change = [_record(tmp_path / f"c{s}.json", s, 1.5) for s in (1, 2, 4)]
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_summary.main(["--out", str(out), "--side", "parent", "abc", *parent,
                            "--side", "change", "def", *change])
    assert exc.value.code == 2
    assert "different seeds" in capsys.readouterr().err
    assert not out.exists()
