"""apspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 20 --trace 0

Run from the repository root; apspec is imported from ./src, nothing is
installed.  Set-up is measured in several fresh processes and reported as
their median; the measured run is one more fresh process, a closed loop of
one caller that sends each operation when the previous one returns.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see README.md).  The exit
code is 0 only when every process finished and a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "traces")

SETUP_PROBES = 4
TIMEOUT_S = 170.0

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = cap
    env.pop("APSPEC_MAX_POINTS", None)
    env.pop("PYTHONPATH", None)
    return env


def call_worker(argv: list, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise RuntimeError("time budget exhausted before starting a worker")
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time budget")
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="verify-mixed, meanvalue-grid or majorant-slices")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="full, or smoke to shrink every input for a quick self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--size", args.size]
    try:
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_out = os.path.join(TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))
            result = call_worker(common + ["--trace", "1", "--trace-out", trace_out], deadline)
            setups = []
        else:
            setups = [call_worker(common + ["--setup-only"], deadline)["setup"]["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = call_worker(common + ["--trace", "0"], deadline)
            setups.append(result["setup"]["setup_s"])
    except (RuntimeError, ValueError, KeyError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    env = result["env"]
    attempted, failed = result["attempted"], result["failed"]
    print("environment " + json.dumps(env, sort_keys=True))
    print("fail_rate %.6g (%d of %d operations failed)" % (failed / attempted, failed, attempted))
    measured = result["metrics"]
    if args.trace:
        metrics = {}
        for name, (value, unit) in measured.items():
            metrics[name] = {"value": value, "unit": unit}
            print("%-48s %16.6g %s" % (name, value, unit))
    else:
        measured["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in UNITS.items()}
        print("setup_s samples %s" % ", ".join("%.4f" % s for s in setups))
        for name, entry in metrics.items():
            extra = ""
            if name == "latency_tail_ms":
                extra = "  (p%.1f: %d of %d samples beyond)" % (
                    measured["tail_percentile"], measured["tail_beyond"], measured["samples"])
            print("%-18s %14.6f %s%s" % (name, entry["value"], entry["unit"], extra))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
