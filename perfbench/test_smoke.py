"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Checks the harness, not the library's speed: the result object has the
shape BENCHMARK.json promises, the traced run reports every per-layer
metric, exact counts repeat at one seed, and a checkout without the library
sources fails with a non-zero exit code and no result line.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from workloads import TINY, WORKLOADS, PassResult

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_result_shape(workload, tmp_path):
    out = run.run(workload, seed=3, seconds=0, trace=False, sizes=TINY,
                  out_dir=tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert [(name, entry["unit"]) for name, entry in result["metrics"].items()
            ] == [(name, unit) for name, unit, _ in run.END_TO_END]
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    assert not out["meta"]["self_check_problems"]
    json.dumps(out)  # everything printed must be plain JSON


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload, tmp_path):
    first = run.run(workload, seed=5, seconds=0, trace=True, sizes=TINY,
                    out_dir=tmp_path)
    second = run.run(workload, seed=5, seconds=0, trace=True, sizes=TINY,
                     out_dir=tmp_path)
    for out in (first, second):
        assert list(out["result"]["metrics"]) == [n for n, _, _ in run.PER_LAYER]
        # no mismatch against the first run's record, no idle wrapper
        assert not out["meta"]["self_check_problems"]
    exact = [n for n, unit, _ in run.PER_LAYER
             if unit == "count" and n != "query_us.samples"]
    values = [{n: out["result"]["metrics"][n]["value"] for n in exact}
              for out in (first, second)]
    assert values[0] == values[1]


def test_cost_queries_checks_pass_at_tiny_size(tmp_path):
    out = run.run("cost-queries", seed=7, seconds=0, trace=False,
                  sizes=TINY, out_dir=tmp_path)
    assert out["result"]["correct"] and out["result"]["failed"] == 0


def test_pass_time_takes_each_operation_at_its_fastest():
    def passed(op_s):
        return PassResult(work=1.0, attempted=len(op_s), failures=[],
                          outputs=(), op_s=op_s)

    assert run.fastest_pass_s([passed([3.0, 1.0]), passed([2.0, 4.0])]) == 3.0
    # passes that did different work fall back to the fastest whole pass
    assert run.fastest_pass_s([passed([3.0]), passed([2.0, 4.0])]) == 3.0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cost-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
