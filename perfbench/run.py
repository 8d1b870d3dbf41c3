"""profile-lab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced.  With ``--trace 1`` the run alternates
untraced passes with passes in which every public function is wrapped in a
span recorder, and reports the per-layer metrics and the tracing overhead.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import os

# pinned before numpy loads: every workload is single-threaded by design
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
# the grid must come from the benchmark's inputs, not the caller's shell
os.environ.pop("PROFILE_LAB_DEFAULT_GRID", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from tracing import ID, NAME, NOTE, PARENT, T0, T1  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, _ANCHORS, _LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SUBMODULES = ("analysis", "grids", "bidding", "excursion", "serialize",
              "simulate", "cli")
SETUP_REPEATS = 5  # at least, in each batch of set-ups

# (name, unit, better); BENCHMARK.json lists the same names and units
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_ANCHOR_KEYS = tuple(f"{_LAYER[p]}.{{}}.{a}" for p, a, *_ in _ANCHORS)
PER_LAYER = (
    ("grids.cumulative_integral.us_per_call", "us", "lower"),
    ("grids.cumulative_integral.calls", "count", "lower"),
    ("grids.tau.us_per_call", "us", "lower"),
    ("grids.integral_to.us_per_call", "us", "lower"),
    ("grids.value.ns_per_point", "ns", "lower"),
    ("grids.value.points", "count", "lower"),
    *((k.format("sweeps"), "count", "lower") for k in _ANCHOR_KEYS),
    *((k.format("build_ms"), "ms", "lower") for k in _ANCHOR_KEYS),
    ("bidding.ms_per_sweep", "ms", "lower"),
    ("excursion.ms_per_sweep", "ms", "lower"),
    ("bidding.verify_ms", "ms", "lower"),
    ("excursion.verify_ms", "ms", "lower"),
    ("serialize.save_ms", "ms", "lower"),
    ("serialize.load_ms", "ms", "lower"),
    ("bidding.expected_cost.us_per_call", "us", "lower"),
    ("excursion.strategy_cost_linear.us_per_call", "us", "lower"),
    ("simulate.bidding.ns_per_sample", "ns", "lower"),
    ("simulate.linear.ns_per_sample", "ns", "lower"),
    ("simulate.self_frac", "ratio", "lower"),
    ("analysis.tradeoff_us", "us", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("bidding.final_delta.max", "1", "lower"),
    ("excursion.final_delta.max", "1", "lower"),
    ("certify.max_relative_residual", "1", "lower"),
    ("certify.max_consistency_gap", "1", "lower"),
    ("mc.max_abs_z", "stderr", "lower"),
    ("query_us.p50", "us", "lower"),
    ("query_us.p99", "us", "lower"),
    ("query_us.samples", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wrapper_frac", "ratio", "lower"),
)


def import_library() -> SimpleNamespace:
    """Import profile_lab from ``src/`` afresh, so set-up time includes
    the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "profile_lab" or m.startswith("profile_lab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"profile_lab.{m}")
                              for m in SUBMODULES})


def set_up(wl, budget: float, times: list[float]) -> SimpleNamespace:
    """Import the library and set the workload up, ``SETUP_REPEATS`` times
    and more while the set-ups fit in ``budget`` seconds; append each
    set-up time to ``times`` and return the last library."""
    spent, repeats = 0.0, 0
    while repeats < SETUP_REPEATS or spent < budget:
        t0 = time.perf_counter()
        lib = import_library()
        wl.setup(lib)
        times.append(time.perf_counter() - t0)
        spent, repeats = spent + times[-1], repeats + 1
    return lib


def measure(wl, lib, seconds: float, tracer: tracing.Tracer | None = None):
    """Run the passes that fit in ``seconds``; at least one.

    Another pass starts only if a pass of median length would still end
    inside the window, so a run lasts about ``seconds`` even when one pass
    is a sizeable part of it.  With a ``tracer``, passes come in pairs of
    one untraced and one traced pass, ordered UT, TU, UT, ... so that a
    steady drift in host speed cancels over two pairs; at least two pairs
    run.  Returns the untraced passes, the traced passes and, for each
    traced pass, the slice of ``tracer.spans`` that it recorded.
    """
    untraced, traced, marks, lengths = [], [], [], []
    least = 1 if tracer is None else 2
    start = time.perf_counter()
    while len(lengths) < least or (time.perf_counter() - start
                                   + statistics.median(lengths) <= seconds):
        t0 = time.perf_counter()
        if tracer is None:
            untraced.append(wl.run_pass(lib))
        else:
            for traced_pass in ((False, True), (True, False))[len(lengths) % 2]:
                if not traced_pass:
                    untraced.append(wl.run_pass(lib))
                    continue
                first = len(tracer.spans)
                with tracer.installed(vars(lib)):
                    traced.append(wl.run_pass(lib))
                marks.append(slice(first, len(tracer.spans)))
        lengths.append(time.perf_counter() - t0)
    return untraced, traced, marks


def fastest_pass_s(passes) -> float:
    """A pass's operations, each at its fastest time over the run's passes.

    The host's speed shifts by up to half for seconds at a time, so whole
    passes of one run differ by that much; each operation's fastest
    repetition is what the code costs when the host lets it run.
    """
    if len({len(p.op_s) for p in passes}) != 1:
        # the passes did different work; the output check flags that
        return min(p.wall_s for p in passes)
    return float(np.min([p.op_s for p in passes], axis=0).sum())


def end_to_end(setup_times, passes) -> dict[str, float]:
    pass_s = fastest_pass_s(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": pass_s,
        "throughput_per_s": statistics.median(p.work for p in passes) / pass_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_summary(passes) -> dict[str, float]:
    lat = np.concatenate([np.asarray(p.latencies_ns, dtype=float)
                          for p in passes]) / 1e3
    if lat.size == 0:
        return {"query_us.p50": 0.0, "query_us.p99": 0.0,
                "query_us.samples": 0}
    p50, p99 = np.percentile(lat, [50, 99])
    return {"query_us.p50": float(p50), "query_us.p99": float(p99),
            "query_us.samples": int(lat.size)}


def pass_counts(spans, wl) -> dict[str, int]:
    """Exact counts of one traced pass."""
    counts = {"grids.cumulative_integral.calls": 0, "grids.value.points": 0}
    names = getattr(wl, "anchor_names", dict)()
    for sp in spans:
        name = sp[NAME]
        if name == "grids.cumulative_integral":
            counts["grids.cumulative_integral.calls"] += 1
        elif name == "grids.value":
            counts["grids.value.points"] += sp[NOTE]
        elif name in ("bidding.build", "excursion.build"):
            problem = "bidding" if name == "bidding.build" else "linsearch"
            layer, anchor = names[sp[NOTE]["s"]]
            counts[f"{layer}.sweeps.{anchor}"] = sp[NOTE].get(
                "sweeps", wl.max_iter[problem])
    return counts


def layer_metrics(wl, spans, first, traced, untraced) -> dict[str, float]:
    """Per-layer metrics from the traced passes' spans; ``first`` holds the
    exact counts of the first traced pass."""
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp[NAME]].append(sp)
    dur = {name: sum(sp[T1] - sp[T0] for sp in group)
           for name, group in by_name.items()}

    def per_call(name: str, scale: float) -> float:
        group = by_name.get(name, ())
        return dur[name] / len(group) / scale if group else 0.0

    n_pass = len(traced)
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update(first)
    m["grids.cumulative_integral.us_per_call"] = per_call(
        "grids.cumulative_integral", 1e3)
    m["grids.tau.us_per_call"] = per_call("grids.tau", 1e3)
    m["grids.integral_to.us_per_call"] = per_call("grids.integral_to", 1e3)
    points = sum(sp[NOTE] for sp in by_name.get("grids.value", ()))
    m["grids.value.ns_per_point"] = dur["grids.value"] / points if points else 0.0

    names = getattr(wl, "anchor_names", dict)()
    for layer in ("bidding", "excursion"):
        builds = by_name.get(f"{layer}.build", ())
        sweeps = 0
        for sp in builds:
            _, anchor = names[sp[NOTE]["s"]]
            m[f"{layer}.build_ms.{anchor}"] += (sp[T1] - sp[T0]) / 1e6 / n_pass
            sweeps += m[f"{layer}.sweeps.{anchor}"]
        if builds:
            m[f"{layer}.ms_per_sweep"] = dur[f"{layer}.build"] / 1e6 / sweeps
        deltas = [sp[NOTE]["final_delta"] for sp in builds
                  if "final_delta" in sp[NOTE]]
        m[f"{layer}.final_delta.max"] = max(deltas, default=0.0)
        m[f"{layer}.verify_ms"] = per_call(f"{layer}.verify", 1e6)
    m["serialize.save_ms"] = per_call("serialize.save", 1e6)
    m["serialize.load_ms"] = per_call("serialize.load", 1e6)
    m["bidding.expected_cost.us_per_call"] = per_call(
        "bidding.expected_cost", 1e3)
    m["excursion.strategy_cost_linear.us_per_call"] = per_call(
        "excursion.strategy_cost_linear", 1e3)

    sim_ids = set()
    for kind in ("bidding", "linear"):
        group = by_name.get(f"simulate.{kind}", ())
        samples = sum(sp[NOTE] for sp in group)
        sim_ids.update(sp[ID] for sp in group)
        if samples:
            m[f"simulate.{kind}.ns_per_sample"] = (
                dur[f"simulate.{kind}"] / samples)
    if sim_ids:
        in_value = sum(sp[T1] - sp[T0] for sp in by_name["grids.value"]
                       if sp[PARENT] in sim_ids)
        total = dur.get("simulate.bidding", 0) + dur.get("simulate.linear", 0)
        m["simulate.self_frac"] = 1.0 - in_value / total

    m["analysis.tradeoff_us"] = per_call("analysis.tradeoff", 1e3)
    own = tracing.self_times(spans)
    m["cli.self_ms"] = sum(own[sp[ID]] for sp in by_name.get("cli.main", ())
                           ) / 1e6 / n_pass
    for key in {k for p in traced for k in p.accuracy}:
        values = [p.accuracy[key] for p in traced
                  if math.isfinite(p.accuracy.get(key, math.nan))]
        m[key] = max(values, default=0.0)
    m.update(latency_summary(untraced))
    # traced and untraced passes alternate, so both sets saw the same host
    m["trace.overhead_frac"] = (fastest_pass_s(traced)
                                / fastest_pass_s(untraced) - 1.0)
    # the wrappers' own cost, which inflates every enclosing span
    m["trace.wrapper_frac"] = (len(spans) * tracing.span_cost_ns() * 1e-9
                               / sum(p.wall_s for p in traced))
    return m


def source_digest(sizes: Sizes = FULL) -> str:
    """Hash of the sources and sizes: keys the count records."""
    h = hashlib.sha256(repr(sizes).encode())
    for path in sorted((SRC / "profile_lab").glob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def check_repeatable(workload: str, seed: int, sizes: Sizes, out_dir: Path,
                     passes_counts: list[dict[str, int]]) -> list[str]:
    """Exact counts must match between passes and between runs at one seed.

    Counts of earlier runs at this seed, these sizes and this source digest
    are kept in ``counts/`` under ``out_dir``; a run compares the first
    pass's counts with them and adds its own.
    """
    counts = passes_counts[0]
    problems = []
    for i, other in enumerate(passes_counts[1:], start=2):
        for key in counts.keys() & other.keys():
            if other[key] != counts[key]:
                problems.append(f"{key}: pass 1 counted {counts[key]}, "
                                f"pass {i} counted {other[key]}")
    path = (out_dir / "counts"
            / f"{workload}-seed{seed}-{source_digest(sizes)}.json")
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    for key in counts.keys() & earlier.keys():
        if earlier[key] != counts[key]:
            problems.append(f"{key}: an earlier run at seed {seed} counted "
                            f"{earlier[key]}, this run {counts[key]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps({**earlier, **counts}, sort_keys=True))
    partial.replace(path)  # a run cut short leaves no torn record
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, out_dir: Path = OUT) -> dict:
    """Run one workload; return the result object and its metadata.

    Scratch files, span dumps and count records go under ``out_dir``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed, sizes, out_dir)
    # an untraced run sets up in two batches, before and after its passes,
    # each for a tenth of the window: the host's speed shifts for seconds
    # at a time, and one batch would catch one speed
    setup_times = []
    lib = set_up(wl, seconds / 10, setup_times)
    if trace:
        wl.run_pass(lib)  # no pair may start cold, on certify-curve neither
    else:
        wl.warmup(lib)
    tracer = tracing.Tracer() if trace else None
    untraced, traced, marks = measure(wl, lib, seconds, tracer)
    passes = untraced + traced
    counts = [p.counts for p in untraced]
    problems = []

    if trace:
        tracer.write(out_dir / f"trace-{workload}.jsonl")
        counts = [pass_counts(tracer.spans[mark], wl) for mark in marks] + counts
        layers = layer_metrics(wl, tracer.spans, counts[0], traced, untraced)
        problems += [f"wrapper {label} recorded no call"
                     for label in tracing.zero_call_bindings(tracer.spans,
                                                             workload)]
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
    else:
        set_up(wl, seconds / 10, setup_times)
        e2e = end_to_end(setup_times, untraced)
        metrics = {name: (e2e[name], unit) for name, unit, _ in END_TO_END}
    problems += check_repeatable(workload, seed, sizes, out_dir, counts)

    for i, p in enumerate(passes[1:], start=2):
        if p.outputs != passes[0].outputs:
            problems.append(f"pass {i} outputs differ from pass 1")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    wrong = [f for p in passes for f in p.wrong]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "work_unit": wl.work_unit,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "setup_s_samples": setup_times,
        "git_commit": git_commit(), "source_digest": source_digest(sizes),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "thread_pins": THREAD_PINS,
        "inputs": wl.inputs(),
        "failed_frac": len(failures) / attempted,
        "failed_wrong_output": len(wrong),
        "cost_latency": latency_summary(untraced),
        "self_check_problems": problems,
        "units": {name: {"unit": unit, "better": better}
                  for name, unit, better in END_TO_END + PER_LAYER},
    }
    result = {
        # a raised error is a failed operation but not a wrong output
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"result": result, "meta": meta, "failures": failures}


def report(out: dict) -> None:
    meta, result = out["meta"], out["result"]
    print(f"workload {meta['workload']} seed {meta['seed']}: "
          f"{meta['passes_untraced']} untraced pass(es); one {meta['work_unit']}"
          f" is the work unit")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    lat = meta["cost_latency"]
    if lat["query_us.samples"]:
        print(f"  query latency: p50 {lat['query_us.p50']:.1f} us, "
              f"p99 {lat['query_us.p99']:.1f} us "
              f"({lat['query_us.samples']} samples)")
    print(f"  failed {result['failed']} of {result['attempted']} operations "
          f"(failed_frac {meta['failed_frac']:.4g}; "
          f"{meta['failed_wrong_output']} with a wrong output)")
    for failure in sorted(set(out["failures"]))[:10]:
        print(f"  failure: {failure}")
    for problem in meta["self_check_problems"][:10]:
        print(f"  SELF-CHECK: {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "profile_lab" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
