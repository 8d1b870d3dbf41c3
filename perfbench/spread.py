"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload cost-queries ...] [--seeds 1 2 3]
        [--seconds 20]

Without arguments it runs every workload of BENCHMARK.json once, at seed 1
and the benchmark's ``run_seconds``, and prints each end-to-end metric with
its unit and the failed operations out of those attempted.  Runs are
sequential, one process at a time.  For every metric the report
gives the median over the runs and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
which is how run-to-run steadiness is judged against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g} {v['unit']}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            share, bound = spread(values), bounds[name]
            flag = "ok (< bound/3)" if share < bound / 3 else "WIDE (>= bound/3)"
            print(f"  {name}: median {statistics.median(values):.6g} "
                  f"{entry['unit']}, quartile spread {share:.4f} of the "
                  f"median (bound {bound})  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
