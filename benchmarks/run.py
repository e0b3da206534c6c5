"""Benchmark of ordext: three workloads, each in its own fresh process.

    python3 benchmarks/run.py --workload study --seed 1 --seconds 30 --trace 0

Workloads are ``study``, ``long-series`` and ``sample-diagnose`` (see
workloads.py and README.md).  One caller runs passes back to back, each
pass starting after the previous one returned, until ``--seconds`` have
passed; every operation's output is checked.  With ``--trace 0`` the last
line of standard output is one JSON object carrying the end-to-end
metrics listed in BENCHMARK.json; with ``--trace 1`` the workload runs one
pass untraced and the same pass traced, and the object carries the
per-layer metrics.  The line before it is a report with every metric that
applies to the workload, the per-fit parameters and the provenance.

BLAS and OpenMP use one thread: the fit takes a different path at two
threads (see README.md), which the traced run measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("study", "long-series", "sample-diagnose")
DRIFT_THREADS = 2
DRIFT_FIELDS = ("s", "sigma_x", "sigma_y", "xi", "c_hat")

# gated end-to-end metrics: the ones every workload reports (BENCHMARK.json)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# traced spans and the name of their call count
SPANS = (
    ("estimation.fit", "calls"), ("estimation.init", "calls"),
    ("estimation.trend", "calls"), ("estimation.scalar", "calls"),
    ("estimation.boundary", "calls"), ("estimation.lik", "evals"),
    ("estimation.pickands", "calls"), ("estimation.c_hat", "calls"),
    ("measure.v_closed", "calls"), ("measure.v_partials", "calls"),
    ("measure.c_from_margins", "calls"), ("measure.v_numeric", "calls"),
    ("simulate.sample_pairs", "calls"), ("simulate.run_study", "calls"),
    ("dependence", "evals"), ("margins.exp_scale", "calls"),
    ("diagnostics.pp_qq", "calls"), ("diagnostics.write", "calls"),
    ("diagnostics.svg", "calls"), ("cli.study", "calls"),
)
COUNTERS = {
    "estimation.fit.outer_iters": "count", "estimation.fit.capped": "count",
    "estimation.scalar.lbfgsb_nfev": "count",
    "estimation.scalar.neldermead_nfev": "count",
    "estimation.trend.objective_evals": "count",
    "diagnostics.write.bytes": "bytes", "cli.out.bytes": "bytes",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, calls in SPANS:
        units[f"{name}.{calls}"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["estimation.lik.feasible_frac"] = "fraction"
    units["estimation.fit.thread_param_drift"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem sizes; tiny is for the harness smoke test")
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP threads pinned in this process")
    # internal: child processes for the set-up time and the thread drift
    p.add_argument("--probe", choices=("setup", "drift"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads(n):
    """Fix the BLAS/OpenMP pool size; only libraries loaded later obey it."""
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def openblas_threads():
    """Thread counts the loaded OpenBLAS builds report, read through ctypes."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg, symbol in ((numpy, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               f"{pkg.__name__}.libs", "*openblas*")
        for lib in glob.glob(pattern):
            try:
                found[pkg.__name__] = int(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                pass
    return found


def git_sha():
    """HEAD commit read from .git in the checkout, or None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordext").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    import platform

    import numpy
    import scipy

    return {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": {"pinned": args.threads,
                    "env": {v: os.environ.get(v) for v in THREAD_VARS},
                    "openblas": openblas_threads()},
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
    }


def _child(args, probe, threads):
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size,
            "--threads", str(threads), "--probe", probe]


def measure_setup(args, repeats):
    """Median time from spawning a fresh process to its inputs being ready."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen(_child(args, "setup", args.threads), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def drift_probe(args):
    """Fit record of the seed's first study replicate at DRIFT_THREADS."""
    out = subprocess.run(_child(args, "drift", DRIFT_THREADS), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=170,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def _summary(passes):
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.error]
    return ops, failed


def run_untraced(args, workloads, sizes, scratch):
    setup_s = measure_setup(args, sizes.setup_repeats)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
    passes = []
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        passes.append(workload.run_pass(len(passes)))
    ops, failed = _summary(passes)
    fits = [f for p in passes for f in p.fits]
    metrics = {
        # passes differ in input, so their mean (busy time per pass, the
        # inverse of throughput) spreads less across seeds than the median
        "wall_s": _metric(statistics.fmean(p.seconds for p in passes), "s",
                          samples=len(passes)),
        "setup_s": _metric(setup_s, "s", samples=sizes.setup_repeats),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": _metric(len(failed) / len(ops), "fraction",
                               samples=len(ops)),
    }
    if fits:
        times = [f["seconds"] for f in fits]
        metrics["fit_s.p50"] = _metric(statistics.median(times), "s",
                                       samples=len(times))
        if len(times) >= 2:
            p90 = statistics.quantiles(times, n=10)[-1]
            if sum(t > p90 for t in times) >= 10:
                metrics["fit_s.p90"] = _metric(p90, "s", samples=len(times))
        metrics["recovered_frac"] = _metric(
            sum(f["recovered"] for f in fits) / len(fits), "fraction",
            samples=len(fits))
        metrics["loglik_per_obs"] = _metric(
            statistics.fmean(f["loglik"] / f["n"] for f in fits), "1/obs",
            samples=len(fits))
    sampled = [p for p in passes if p.pairs]
    if sampled:
        metrics["pairs_per_s"] = _metric(statistics.median(
            p.pairs / p.op_seconds("sample_restricted", "sample_interval")
            for p in sampled), "1/s", samples=len(sampled))
    # the result line carries each metric's value and unit and nothing else
    result = {k: _metric(metrics[k]["value"], metrics[k]["unit"])
              for k in END_TO_END}
    return passes, fits, metrics, result


def run_traced(args, workloads, sizes, scratch):
    from tracer import Tracer, instrument

    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
    plain = workload.run_pass(0)
    tracer = Tracer()
    with instrument(tracer):
        traced = workload.run_pass(0, tracer)
        one_thread = workloads.Study(args.seed, sizes, scratch).cli_study(
            args.seed, tracer)
    drift = workloads.Pass([])
    two_thread = workloads.run_op(drift.ops, "thread_drift",
                                  lambda: drift_probe(args),
                                  lambda rec: rec["error"])
    passes = [plain, traced, one_thread, drift]

    units = per_layer_units()
    metrics = {}
    for name, calls in SPANS:
        metrics[f"{name}.{calls}"] = tracer.calls[name]
        metrics[f"{name}.s"] = tracer.total[name]
        metrics[f"{name}.self_s"] = tracer.self_time[name]
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    evals = tracer.calls["estimation.lik"]
    metrics["estimation.lik.feasible_frac"] = (
        tracer.calls["measure.v_closed"] / evals if evals else 0.0)
    drift_value = None
    if one_thread.fits and two_thread is not None:
        a, b = one_thread.fits[0], two_thread
        drift_value = max(abs(a[k] - b[k]) / abs(a[k]) for k in DRIFT_FIELDS)
    metrics["estimation.fit.thread_param_drift"] = drift_value
    metrics["trace.overhead_s"] = traced.seconds - plain.seconds
    metrics = {k: _metric(v, units[k]) for k, v in metrics.items()}
    fits = [f for p in passes for f in p.fits]
    if two_thread is not None:
        fits.append({**two_thread, "threads": DRIFT_THREADS})
    return passes, fits, metrics, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ordext" / "__init__.py").is_file():
        print(f"benchmark: no ordext sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads(args.threads)
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.SIZES[args.size]
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=SCRATCH)
    try:
        if args.probe == "setup":
            workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
            print("ready", flush=True)
            return 0
        if args.probe == "drift":
            study = workloads.Study(args.seed, sizes, scratch)
            print(json.dumps(study.cli_study(args.seed).fits[0]))
            return 0
        run = run_traced if args.trace else run_untraced
        passes, fits, metrics, result_metrics = run(args, workloads, sizes,
                                                    scratch)
    finally:
        shutil.rmtree(scratch)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass                    # another benchmark process still uses it
    ops, failed = _summary(passes)
    report = {"provenance": provenance(args), "metrics": metrics,
              "pass_seconds": [p.seconds for p in passes], "fits": fits,
              "failures": [{"op": op.name, "error": op.error} for op in failed]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
