"""Self-tests of the benchmark, on reduced-size inputs.

    python3 -m pytest -q perfbench/tests

Each test runs perfbench/run.py the way BENCHMARK.json's command does, with
--size smoke so that a run takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "B")


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    start = time.monotonic()
    result = result_of(run_bench(workload, 5, 0))
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(run_bench(workload, 7, 1))
    second = result_of(run_bench(workload, 7, 1))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert sum(counts.values()) > 0


def test_top_edge_useful_ratio_is_measured():
    metrics = result_of(run_bench("verify-mixed", 7, 1))["metrics"]
    heights = metrics["verifier.top_edge.heights"]["value"]
    integrals = metrics["verifier.top_edge.edge_integrals"]["value"]
    assert heights > 0
    assert metrics["verifier.top_edge.useful_ratio"]["value"] == heights / integrals


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(dir=BENCH) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("tmp*", "traces", "__pycache__"))
        proc = run_bench("verify-mixed", 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
