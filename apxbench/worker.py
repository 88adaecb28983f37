"""One benchmark worker: set up a workload, then drive it in a closed loop.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
Set-up runs from the first statement, through ``import apxpat.cli``,
to the point where the first request could be sent.  With
``--setup-only`` the worker stops there and prints its set-up and import
times.  Otherwise one client calls ``apxpat.cli.main(argv)`` in-process,
one request after the other, and the worker prints one JSON object with
every request's latency, check result and output digests.
"""

import time

T0 = time.perf_counter()  # set-up starts here, before the library import
import apxpat.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from check import check_call  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# p90 needs at least 10 samples beyond it.  A run that has not reached
# this many requests when its time is up goes on, to at most
# MAX_STRETCH times its time.
MIN_SAMPLES = 100
MAX_STRETCH = 1.25
SETUP_PROBES = 4  # fresh set-up-only workers per untraced run

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def host_info(seed: int) -> dict:
    """Host and backend, recorded as found; nothing here is set."""
    return {
        "backend": apxpat.cli.BACKEND,
        "apxpat": apxpat.cli.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def _run_call(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = apxpat.cli.main(list(argv))
    return rc, out.getvalue()


def _sha(data) -> str | None:
    if data is None:
        return None
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_request(req, tracer, traced: bool, index: int) -> dict:
    """Time one request, then check it.  A request that raises fails."""
    outs = []
    if traced:
        tracer.phase = index
        tracer.install()
    start = time.perf_counter()
    try:
        for call in req.calls:
            outs.append(_run_call(call.argv))
        error = None
    except Exception:  # noqa: BLE001 - a raising request is a counted failure
        error = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    latency = time.perf_counter() - start
    if traced:
        tracer.uninstall()

    record = {"i": index, "kind": req.kind, "latency_s": latency, "traced": traced,
              "stdout_sha256": [], "svg_sha256": [], "why": error}
    ctx: dict = {}
    for call, (rc, stdout) in zip(req.calls, outs):
        svg = Path(call.svg).read_bytes() if call.svg and os.path.exists(call.svg) else None
        record["stdout_sha256"].append(_sha(stdout))
        record["svg_sha256"].append(_sha(svg))
        if record["why"] is None:
            try:
                record["why"] = check_call(call, rc, stdout, svg, ctx)
            except (KeyError, TypeError, ValueError) as exc:
                record["why"] = f"malformed output: {exc!r}"
        if call.svg and os.path.exists(call.svg):
            os.remove(call.svg)
    record["ok"] = record["why"] is None
    return record


def setup_probe(args) -> dict:
    """Set-up and import time of a fresh set-up-only worker."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(Path(args.workdir) / "probe"), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def drive(workload, seconds: float, tracer, probe=None, probes: int = 0, ref=None):
    """Closed loop, one client.  Runs whole blocks of two request periods,
    so traced and untraced halves see the same request mix.

    Between blocks it calls ``probe`` ``probes`` times, spread evenly over
    the run, so the set-up samples meet the same spells of host load as
    the requests.  With ``ref`` it times the reference work before every
    request and once after the last.  Neither is counted in the loop's
    wall time, but both count towards ``seconds``.  Returns the request
    records, the probe results, the reference times and the loop's wall
    time."""
    block = 2 * workload.period
    cpus = sorted(os.sched_getaffinity(0))
    records: list[dict] = []
    samples: list[dict] = []
    refs: list[float] = []
    paused = 0.0

    def time_ref() -> None:
        nonlocal paused
        if ref is not None:
            t = time.perf_counter()
            refs.append(ref.time())
            paused += time.perf_counter() - t

    start = time.perf_counter()
    i = 0
    while True:
        if i % block == 0:
            # Move to the next allowed CPU every block, so that a run meets
            # every CPU's slow and fast spells rather than one CPU's.
            os.sched_setaffinity(0, {cpus[(i // block) % len(cpus)]})
            elapsed = time.perf_counter() - start
            if len(samples) < probes and elapsed >= len(samples) * seconds / probes:
                t = time.perf_counter()
                samples.append(probe())
                paused += time.perf_counter() - t
            if i and elapsed >= seconds and (i >= MIN_SAMPLES or elapsed >= MAX_STRETCH * seconds):
                break
        traced = tracer is not None and (i // workload.period) % 2 == 0
        time_ref()
        records.append(run_request(workload.request(i), tracer, traced, i))
        i += 1
    time_ref()
    wall = time.perf_counter() - start - paused
    os.sched_setaffinity(0, cpus)
    return records, samples, refs, wall


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: an observed sample, never interpolated."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean after dropping the lowest and the highest ``cut`` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict:
    """Per-request layer figures over the traced requests, and per-set-up
    figures for the traced set-up."""
    traced = [r["i"] for r in records if r["traced"]]
    n = len(traced)
    selfs = tracer.self_times()
    req_self: dict = {}
    counts: dict = {}
    for i in traced:
        for name, value in selfs.get(i, {}).items():
            req_self[name] = req_self.get(name, 0.0) + value
        for name, value in tracer.counts.get(i, {}).items():
            counts[name] = counts.get(name, 0.0) + value
    root = sum(tracer.root_time(i) for i in traced)
    m = {}
    for name, *_ in LAYERS:
        m[f"{name}.self_s"] = req_self.get(name, 0.0) / n
    m["cli.main.total_s"] = root / n
    m["trace.self_sum_frac"] = _ratio(sum(req_self.values()), root)
    per_req = ("pointio.parse_pointset.bytes", "kernels.has_close_pair.points",
               "kernels.bin_cells.calls", "search.steps", "search.points_binned",
               "search.systems_scanned", "verifier.verify_homothetic.calls",
               "collinear.pairs_colored")
    for name in per_req:
        m[name] = counts.get(name, 0.0) / n
    m["kernels.dart_throw.accept_ratio"] = _ratio(
        counts.get("kernels.dart_throw.accepted", 0.0), counts.get("kernels.dart_throw.attempts", 0.0))
    m["verifier.verify_homothetic.accept_ratio"] = _ratio(
        counts.get("verifier.verify_homothetic.accepted", 0.0),
        counts.get("verifier.verify_homothetic.calls", 0.0))
    m["collinear.find_collinear.found_ratio"] = _ratio(
        counts.get("collinear.find_collinear.found", 0.0),
        counts.get("collinear.find_collinear.calls", 0.0))

    lat_on = [r["latency_s"] for r in records if r["traced"]]
    lat_off = [r["latency_s"] for r in records if not r["traced"]]
    m["trace.overhead_frac"] = percentile(lat_on, 50) / percentile(lat_off, 50) - 1.0

    setup_self = selfs.get("setup", {})
    setup_counts = tracer.counts.get("setup", {})
    for name in ("generators.gen_jittered_lattice", "generators.gen_random_separated",
                 "kernels.dart_throw", "pointio.write_pointset", "geometry.PointSet"):
        m[f"setup.{name}.self_s"] = setup_self.get(name, 0.0)
    m["setup.kernels.dart_throw.accept_ratio"] = _ratio(
        setup_counts.get("kernels.dart_throw.accepted", 0.0),
        setup_counts.get("kernels.dart_throw.attempts", 0.0))
    return m


def end_to_end_metrics(records, refs, result, wall, period) -> dict:
    """Gated figures, and figures printed for information only.

    ``refs`` holds the reference work's time before every request and
    after the last, so each request is bracketed by two samples taken on
    the same CPU within a fraction of a second.  A request's cost in
    reference units is its latency over the mean of the two.
    ``cycle_ref.tmean`` adds up the trimmed mean cost of each request
    kind, weighted by how often the kind occurs in one period: one period
    of the workload's mix, in reference units.  The trimmed mean drops
    the fastest and slowest tenth of a kind's requests; it averages over
    instances, whose cost varies, better than a median would.

    The host's slow spells (1.5x and more on the machine the bounds were
    set on, for seconds or whole minutes) slow the reference and the
    requests alike.  The figures in seconds move with how much of a run
    those spells cover; they are printed but not gated, except set-up
    time."""
    lat = [r["latency_s"] for r in records]
    periods = len(lat) / period
    by_kind: dict = {}
    for i, r in enumerate(records):
        by_kind.setdefault(r["kind"], []).append(r["latency_s"] * 2 / (refs[i] + refs[i + 1]))
    cycle_ref = sum(len(v) / periods * trimmed_mean(v) for v in by_kind.values())
    cycle_s = [sum(lat[k:k + period]) for k in range(0, len(lat), period)]
    imports = result["import_samples"]
    return {
        "end_to_end": {
            "cycle_ref.tmean": cycle_ref,
            "setup_s": statistics.median(result["setup_samples"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "informational": {
            "cycle_s.p50": statistics.median(cycle_s),
            "ref_s.p50": statistics.median(refs),
            "latency_s.p50": percentile(lat, 50),
            "latency_s.p90": percentile(lat, 90),
            "throughput_rps": sum(r["ok"] for r in records) / wall,
            "import_s.min": min(imports),
            "import_s.p50": statistics.median(imports),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            workload = WORKLOADS[args.workload](workdir, args.seed)
            workload.paired = bool(tracer)
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "import_s": T_IMPORTED - T0}
        if not args.setup_only:
            ref = None if tracer else Reference()
            # The benchmark's own objects (inputs kept for checking) would
            # make every full collection during a request slower than in
            # a one-shot CLI process; keep them out of the collector.
            gc.collect()
            gc.freeze()
            if tracer:
                records, _, _, wall = drive(workload, args.seconds, tracer)
            else:
                records, samples, refs, wall = drive(workload, args.seconds, None,
                                                     lambda: setup_probe(args),
                                                     SETUP_PROBES, ref)
                result["setup_samples"] = [setup_s] + [p["setup_s"] for p in samples]
                result["import_samples"] = [result["import_s"]] + [p["import_s"] for p in samples]
                result["ref_samples"] = refs
            result.update(host=host_info(args.seed), wall_s=wall, requests=records)
            if tracer:
                result["layers"] = layer_metrics(tracer, records)
                result["spans"] = tracer.spans
            else:
                result.update(end_to_end_metrics(records, refs, result, wall,
                                                 workload.period))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
