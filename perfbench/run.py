"""Benchmark for polyshoot: time to solution, per request and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload m3_critical --seed 20261017 --seconds 30 --trace 0

The seed is the only source of inputs; the program sees just the values
drawn from it.  With ``--trace 0`` the workload runs in passes until
``--seconds`` are used (at least one pass) and the end-to-end timings are
medians over passes, in reference seconds (``calibration.py``).  With
``--trace 1`` it runs one untraced pass and two traced passes, reports the
per-layer metrics of the first traced pass, and fails the run if the traced
outputs differ from the untraced ones or the two traced passes disagree on
any work counter.

Every request is checked against its acceptance tolerance; a failed check
or an exception is counted in ``failed``, reported on stderr, and the run
goes on.  The last line of stdout is the JSON result; the full record,
with provenance, is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from calibration import Calibrator

DEFAULT_SEED = 20261017
SETUP_SPAWNS = 5
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure_setup():
    """Median wall time of a fresh interpreter importing polyshoot up to its first call.

    Not calibrated: the probe's speed follows an import's only loosely
    (correlation 0.4 over twenty runs), and rescaling widened the spread.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "from polyshoot.cli import build_parser; build_parser()"
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pass:
    """Latency, CPU, checks and outputs of one pass over a workload's requests."""

    def __init__(self):
        self.latencies, self.cpu, self.outputs = [], 0.0, []
        self.attempted = self.failed = 0
        self.worst_ratio = 0.0
        self.factor = 1.0       # to reference seconds, when calibrated

    @property
    def wall(self):
        return sum(self.latencies)


def run_pass(workload, inputs, workdir, tracer=None, cal=None):
    os.makedirs(workdir)
    res = Pass()
    try:
        for rid, req in enumerate(workload.requests(inputs, workdir)):
            res.attempted += 1
            c0, t0 = cpu_now(), time.perf_counter()
            error = None
            try:
                result = tracer.request(rid, req.label, req.run) if tracer else req.run()
            except Exception:
                error = traceback.format_exc()
            res.latencies.append(time.perf_counter() - t0)
            res.cpu += cpu_now() - c0
            if cal:
                cal.after(res.latencies[-1])
            if error is None:
                try:
                    checks, output = req.verify(result)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                res.failed += 1
                res.outputs.append(None)
                print(f"request {rid} ({req.label}) failed:\n{error}", file=sys.stderr)
                continue
            res.outputs.append(output)
            missed = [c.name for c in checks if not c.ok]
            ratios = [c.ratio for c in checks if not math.isnan(c.ratio)]
            res.worst_ratio = max([res.worst_ratio, *ratios])
            if missed:
                res.failed += 1
                print(f"request {rid} ({req.label}) missed checks {missed}", file=sys.stderr)
        if cal:
            res.factor = cal.factor()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return res


def tail(latencies):
    """Highest percentile with >= 10 samples beyond it, as (value, label).

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead.
    """
    xs, n = sorted(latencies), len(latencies)
    if n < 20:
        return xs[-1], f"max of n={n}"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "polyshoot", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(args, passes):
    import numpy
    import scipy

    return {
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas_threads": blas_threads(), "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "passes": passes,
    }


def warm_up(workloads):
    """First-call costs (tableaus, lazy imports) that a long-lived user pays once."""
    w = workloads
    for spec in (w.SPEC2, w.SPEC3):
        jet = w.core.Jet((1.0, 1.0) if spec.m == 2 else (1.0, 0.0, 1.0))
        w.integrator.integrate(spec, jet, w.integrator.IntegratorConfig(r_max=2.0))


def untraced(args, workload, inputs, workdir):
    passes, start = [], time.perf_counter()
    while True:
        pass_dir = os.path.join(workdir, f"pass{len(passes)}")
        passes.append(run_pass(workload, inputs, pass_dir, cal=Calibrator()))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > args.seconds:
            return passes


def end_to_end(args, workload, inputs, workdir):
    setup_s = measure_setup()
    passes = untraced(args, workload, inputs, workdir)
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "wall_ref_s": statistics.median(p.wall * p.factor for p in passes),
        "cpu_ref_s": statistics.median(p.cpu * p.factor for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_s, tail_label = tail(latencies)
    # Reported, not gated: raw timings follow the host's speed, and a pass
    # holds requests of two or three cost classes, so the pooled median and
    # tail latencies sit on class boundaries that move with the seed.
    notes = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3, "op_tail": tail_label,
        "pass_walls_s": [p.wall for p in passes],
        "pass_factors": [p.factor for p in passes],
    }
    return passes, metrics, notes, []


def per_layer(args, workload, inputs, workdir, tracing):
    base = run_pass(workload, inputs, os.path.join(workdir, "untraced"), cal=Calibrator())
    traced, tracers = [], []
    for i in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workdir_i = os.path.join(workdir, f"traced{i}")
            traced.append(run_pass(workload, inputs, workdir_i, tracer, Calibrator()))
        finally:
            tracer.remove()
        tracers.append(tracer)
    problems = []
    for i, p in enumerate(traced):
        if p.outputs != base.outputs:
            problems.append(f"traced pass {i} outputs differ from the untraced pass")
    a, b = (t.deterministic_counts() for t in tracers)
    diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if diff:
        problems.append(f"counters differ between two traced passes: {diff}")
    tracers[0].write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    metrics = tracers[0].layer_metrics()
    metrics["trace.overhead"] = (statistics.median(p.wall * p.factor for p in traced)
                                 / (base.wall * base.factor) - 1.0)
    passes = [base, *traced]
    metrics["check.worst_err_over_tol"] = max(p.worst_ratio for p in passes)
    notes = {"deterministic_counts": a, "self_s": tracers[0].self_times()}
    return passes, metrics, notes, problems


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyshoot", "__init__.py")):
        print(f"no polyshoot sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import numpy

    inputs = workload.make_inputs(numpy.random.default_rng(args.seed))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        warm_up(workloads)
        if args.trace:
            result = per_layer(args, workload, inputs, workdir, tracing)
        else:
            result = end_to_end(args, workload, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes, metrics, notes, problems = result
    for msg in problems:
        print(f"benchmark failure: {msg}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # BENCHMARK.json names the reported metrics and their units.
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "provenance": provenance(args, len(passes)), "inputs": inputs, "notes": notes,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "problems": problems, "metrics": metrics,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("# " + json.dumps(record["provenance"]))
    if not args.trace:
        raw = ", ".join(f"{k} {notes[k]:.6g}"
                        for k in ("wall_s", "cpu_s", "op_p50_ms"))
        print(f"# raw {raw}; op_tail_ms {notes['op_tail_ms']:.6g} ({notes['op_tail']}); "
              f"not gated")
    print(f"# fail_ratio {failed}/{attempted}; full record in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
