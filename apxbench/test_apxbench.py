"""Self-test of the benchmark: the checker catches corrupted answers, and a
short run of every workload reports every metric with no failed request.

    PYTHONPATH=src python -m pytest -q apxbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import apxpat.generators  # noqa: E402
import apxpat.pointio  # noqa: E402
import check  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from workloads import EPS3, Call, Request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _grid_call(tmp_path) -> Call:
    s = apxpat.generators.gen_jittered_lattice(2, 30, 0.4, 5)
    path = tmp_path / "lattice.txt"
    path.write_bytes(apxpat.pointio.write_pointset(s))
    svg = str(tmp_path / "out.svg")
    argv = ("search", "grid", "--input", str(path), "--k", "3", "--eps", EPS3,
            "--delta", "0.2", "--c", "1", "--json", "--svg", svg)
    return Call(argv, "grid-found", tuple(p.coords for p in s.points), 3, 1 / 3, svg)


def test_checker_rejects_corrupted_search_answers(tmp_path):
    call = _grid_call(tmp_path)
    rc, stdout = worker._run_call(call.argv)
    svg = Path(call.svg).read_bytes()
    assert check.check_call(call, rc, stdout, svg, {}) is None

    def corrupt(edit):
        out = json.loads(stdout)
        edit(out)
        return check.check_call(call, rc, json.dumps(out), svg, {})

    def shift(o):
        v = o["verify"]
        v["witness_anchor"][0] += v["witness_scale"]

    assert corrupt(lambda o: o["verify"].__setitem__("witness_scale", 2 * o["verify"]["witness_scale"]))
    assert corrupt(shift)
    assert corrupt(lambda o: o["subset"].reverse())
    assert corrupt(lambda o: o["subset"].__setitem__(0, o["subset"][1]))
    assert corrupt(lambda o: o.__setitem__("found", False))
    assert check.check_call(call, 1, stdout, svg, {})
    assert check.check_call(call, rc, stdout, svg[:-20], {})


def test_checker_angles_and_verdicts():
    line = [(0.0, 0.0), (1.0, 0.001), (2.0, 0.0), (3.0, 0.002)]
    bent = line[:3] + [(3.0, 1.0)]
    assert check.collinear_ok(line, range(4), 0.1)
    assert not check.collinear_ok(bent, range(4), 0.1)
    found = json.dumps({"found": True, "subset": [0, 1, 2, 3],
                        "certificate": {"accepted": True}})
    call = Call((), "collinear-found", tuple(bent), 4, 0.1)
    assert check.check_call(call, 0, found, None, {}) == "subset is not eps-collinear"
    reject = Call((), "verify-reject", tuple(line), 2, 1 / 3)
    accepted = json.dumps({"accepted": True, "witness_anchor": [0, 0], "witness_scale": 1.0})
    assert check.check_call(reject, 0, accepted, None, {})


def test_failed_check_counts_as_failed_request(tmp_path):
    call = _grid_call(tmp_path)
    wrong = Call(call.argv, "verify-reject", call.points, 3, 1 / 3, call.svg)
    assert worker.run_request(Request("grid", (call,)), None, False, 0)["ok"]
    record = worker.run_request(Request("grid", (wrong,)), None, False, 1)
    assert not record["ok"] and record["why"]
    assert len(record["stdout_sha256"][0]) == 64 and len(record["svg_sha256"][0]) == 64


def test_reference_work_is_fixed_and_checked():
    ref = reference.Reference()
    assert ref.expected == reference.Reference().work()
    assert ref.expected[0] > 0 and ref.time() > 0
    ref.text = ref.text.replace("\n", "\n1.5 1.5\n", 1)
    with pytest.raises(RuntimeError):
        ref.time()


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert "failed_frac" in proc.stdout
        if trace:
            assert abs(result["metrics"]["trace.self_sum_frac"]["value"] - 1.0) < 1e-6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    for name, backend in (("a.json", "pure-python"), ("b.json", "compiled")):
        (tmp_path / name).write_text(json.dumps(
            {"workload": "certify", "seed": 1, "trace": 0, "host": {"backend": backend},
             "metrics": {"latency_s.p50": 0.1}, "requests": []}))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json"),
                           str(tmp_path / "b.json")], capture_output=True, text=True)
    assert proc.returncode == 2 and "backend" in proc.stderr
