"""apxpat benchmark: four CLI workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 apxbench/run.py --workload grid-lattice --seed 1 --seconds 26 --trace 0
    python3 apxbench/run.py --workload all --seed 1 --seconds 26 --trace 0

Each workload runs in fresh worker processes (``worker.py``).  With
``--trace 0`` it reports the end-to-end metrics; set-up time is the
median of five fresh workers' set-ups, spread over the run.  Latency is
gated in units of a fixed reference work timed between the requests
(``reference.py``).  With ``--trace 1`` it reports
the per-layer split instead.  Every metric is printed by name and
unit; the last line of stdout is one JSON object.  A full record (host,
backend, every request's latency and output digests, spans) is written
under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid-lattice", "ap-threshold", "certify", "collinear-tube")
DEADLINE_S = 170.0  # the whole command must end within 180 s

# Gated end-to-end metrics (BENCHMARK.json), then figures that are printed
# and recorded but too exposed to the host's slow spells to gate on.
END_TO_END = {
    "cycle_ref.tmean": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
INFORMATIONAL = {
    "cycle_s.p50": "s",
    "ref_s.p50": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "throughput_rps": "1/s",
    "import_s.min": "s",
    "import_s.p50": "s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END or name in INFORMATIONAL:
        return END_TO_END.get(name) or INFORMATIONAL[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    pass


def _python(args: list[str], deadline: float):
    """Run a fresh interpreter with ``src`` on its path; return its last
    stdout line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = [str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
              "--trace", str(trace)]
    workdir = Path(".bench_work") / f"{name}-{os.getpid()}"
    main = _python(common + ["--seconds", str(seconds), "--workdir", str(workdir)], deadline)
    reqs = main["requests"]
    failed = [r for r in reqs if not r["ok"]]
    if trace:
        metrics = main["layers"]
        self_sum = metrics["trace.self_sum_frac"]
        consistent = abs(self_sum - 1.0) < 1e-6
    else:
        metrics = dict(main["end_to_end"])
        consistent = True
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": main["host"], "metrics": metrics,
        "informational": main.get("informational", {}),
        "setup_samples": main.get("setup_samples"), "import_samples": main.get("import_samples"),
        "ref_samples": main.get("ref_samples"),
        "attempted": len(reqs), "failed": len(failed), "wall_s": main["wall_s"],
        "requests": reqs, "spans": main.get("spans"),
        "correct": not failed and consistent,
    }
    out_dir = Path(".bench_results")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record))
    record["path"] = str(path)
    return record


def report(rec: dict) -> None:
    host = rec["host"]
    n, failed = rec["attempted"], rec["failed"]
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"requests={n} in {rec['wall_s']:.2f} s (closed loop, 1 client)")
    print(f"   host: {host['cpu_model']}, nproc={host['nproc']}, caches={host['caches']}, "
          f"python {host['python']}, numpy {host['numpy']}, backend={host['backend']}, "
          f"threads={ {k: v for k, v in host['thread_env'].items() if v is not None} }")
    for name, value in rec["metrics"].items():
        print(f"   {name:48s} {value:.6g} {unit_of(name)}")
    for name, value in rec["informational"].items():
        note = f"  (n={n})" if name.startswith("latency_s.") else ""
        print(f"   {name:48s} {value:.6g} {unit_of(name)}{note}  [not gated]")
    print(f"   {'failed_frac':48s} {failed / n:.6g} ratio  ({failed}/{n})  [not gated]")
    for r in rec["requests"]:
        if not r["ok"]:
            print(f"   FAILED request {r['i']} ({r['kind']}): {r['why']}")
    print(f"   record: {rec['path']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="apxpat end-to-end and per-layer benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    src = Path("src/apxpat")
    if not (src / "__init__.py").is_file():
        print("error: run from the root of an apxpat source checkout (no src/apxpat)",
              file=sys.stderr)
        return 2
    # Users run from installed bytecode; compile it once so no timed
    # import pays for compilation.
    compileall.compile_dir(str(src), quiet=2)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace, deadline))
            report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
