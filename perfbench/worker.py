"""One benchmark process: set up, run one workload in a closed loop, report JSON.

Started by run.py in a fresh interpreter so that import time, memory and
warm-up belong to this run alone.  The last stdout line is a JSON object
with the setup timings, the measured metrics and the resolved parameters.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import apspec  # noqa: E402

_T_IMPORT = time.perf_counter()

import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "apspec_point_budget": os.environ.get("APSPEC_MAX_POINTS", "default"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "parameters": workloads.parameters(args.workload, args.size),
    }


def run_op(op):
    """Time one operation; returns (seconds, result, error text or None)."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # the loop must keep going; the failure is counted
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, result, None


def oracle(op, result, error) -> list:
    if error is not None:
        return ["raised: " + error]
    try:
        return op.check(result)
    except Exception:  # an oracle that cannot run counts as a failed op
        return ["oracle raised: " + traceback.format_exc()]


def report_failure(index, op, errors):
    sys.stderr.write("FAIL op %d (%s): %s\n" % (index, op.kind, "; ".join(errors)[:2000]))


def run_pass(ops, latencies, fingerprints=None, tracer=None):
    """Run every op once in order; returns the number that failed."""
    failed = 0
    for index, op in enumerate(ops):
        elapsed, result, error = run_op(op)
        latencies.append(elapsed)
        if tracer is not None:
            tracer.enabled = False
        errors = oracle(op, result, error)
        if fingerprints is not None:
            fingerprints.append("error" if error else op.fingerprint(result))
        if tracer is not None:
            tracer.enabled = True
        if errors:
            failed += 1
            report_failure(index, op, errors)
    return failed


def latency_metrics(latencies, ops_per_pass: int) -> dict:
    # throughput from each input's median over the passes, so one disturbed
    # pass does not move it; every pass runs the same inputs in the same order
    per_op = np.median(np.reshape(latencies, (-1, ops_per_pass)), axis=0)
    lat_ms = np.sort(np.asarray(latencies)) * 1e3
    n = lat_ms.shape[0]
    # highest percentile with at least ten samples beyond it: the 11th largest
    k = max(n - 11, 0)
    tail = float(lat_ms[k])
    return {
        "ops_per_s": ops_per_pass / float(np.sum(per_op)),
        "latency_p50_ms": float(np.median(lat_ms)),
        "latency_tail_ms": tail,
        "tail_percentile": 100.0 * k / (n - 1) if n > 1 else 100.0,
        "tail_beyond": int(np.sum(lat_ms > tail)),
        "samples": n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="file for the recorded spans (JSON lines)")
    args = parser.parse_args(argv)

    if not os.path.abspath(apspec.__file__).startswith(SRC + os.sep):
        sys.stderr.write("apspec imported from %s, not from %s\n" % (apspec.__file__, SRC))
        return 2

    tracer = spans.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        ops = workloads.build_ops(args.workload, args.seed, args.size)
    t_generate = time.perf_counter()
    # warm-up: the first smoke-size input of each operation type
    warm = {}
    for op in workloads.build_ops(args.workload, args.seed, "smoke"):
        warm.setdefault(op.kind.split("/")[0], op)
    run_pass(list(warm.values()), [])
    t_warm = time.perf_counter()
    setup = {"setup_s": t_warm - _T0, "import_s": _T_IMPORT - _T0,
             "generate_s": t_generate - _T_IMPORT, "warmup_s": t_warm - t_generate}
    out = {"setup": setup}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["env"] = environment(args)
    out["env"]["ops_per_pass"] = len(ops)
    latencies: list = []
    if not args.trace:
        failed = passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            failed += run_pass(ops, latencies)
            passes += 1
        out["env"]["passes"] = passes
        out["attempted"], out["failed"] = len(latencies), failed
        out["metrics"] = latency_metrics(latencies, len(ops))
        out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # one untraced pass, then the same inputs traced: the results must
        # match exactly and the time difference is the tracing overhead
        plain_fp: list = []
        traced_fp: list = []
        plain_lat: list = []
        failed = run_pass(ops, plain_lat, plain_fp)
        with tracer:
            failed += run_pass(ops, latencies, traced_fp, tracer)
        mismatched = [i for i, (a, b) in enumerate(zip(plain_fp, traced_fp)) if a != b]
        for i in mismatched:
            report_failure(i, ops[i], ["traced result differs from the untraced one"])
        out["attempted"] = len(plain_lat) + len(latencies)
        out["failed"] = failed + len(mismatched)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (sum(latencies) / sum(plain_lat) - 1.0, "ratio")
        out["metrics"] = metrics
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
