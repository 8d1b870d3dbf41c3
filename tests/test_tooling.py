"""The benchmark's trace bindings name attributes the library defines, and
the refactor gate ``tools/compare_outputs.py`` names every changed file.

``perfbench/tracing.py`` wraps each binding where callers look it up
(``owner.__dict__[attr]``); a refactor that moves or renames one of these
names must fail here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from profile_lab import analysis, bidding, excursion, grids

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
    from workloads import CERTIFY, COST, MC, TINY, CertifyCurve
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("binding", tracing.BINDINGS, ids=lambda b: b.label)
def test_trace_binding_resolves(binding):
    *path, attr = binding.attr.split(".")
    owner = importlib.import_module(f"profile_lab.{binding.module}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__.get(attr)), binding.label


@pytest.fixture()
def perfbench_run(monkeypatch):
    """perfbench's ``run`` module; what importing and running it changes in
    this process (environment, import path, the re-imported library) is
    undone afterwards."""
    env = dict(os.environ)
    for name in [m for m in sys.modules if m.split(".")[0] == "profile_lab"]:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    monkeypatch.setattr(sys, "path", [PERFBENCH, *sys.path])
    try:
        yield importlib.import_module("run")
    finally:
        os.environ.clear()
        os.environ.update(env)


@pytest.mark.parametrize("workload", [CERTIFY, COST, MC])
def test_traced_run_reaches_every_binding(perfbench_run, tmp_path, workload):
    # each workload must still reach the bindings that name it as a home
    # (certify-curve both problems' cumulative_integral, the Monte Carlo
    # oracle grids.value and grids.tau), or its layer metrics read nothing
    out = perfbench_run.run(workload, seed=5, seconds=0, trace=True,
                            sizes=TINY, out_dir=tmp_path)
    assert out["meta"]["self_check_problems"] == []


def test_certify_curve_reads_both_builders_max_iter(tmp_path):
    # certify-curve's set-up reads each builder's max_iter default by
    # signature (a failed build counts that many sweeps); a builder without
    # the parameter would crash the benchmark, not a tier-1 test
    wl = CertifyCurve(seed=1, sizes=TINY, scratch=tmp_path)
    wl.setup(SimpleNamespace(analysis=analysis, bidding=bidding,
                             excursion=excursion))
    assert wl.max_iter == {"bidding": bidding.DEFAULT_MAX_ITER,
                           "linsearch": bidding.DEFAULT_MAX_ITER}


def test_each_problem_integrates_under_its_own_module_name(monkeypatch):
    # perfbench traces the quadrature per problem by the module name each
    # sweep passes to bidding._table_sweep
    calls = {"bidding": 0, "excursion": 0}

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return grids.cumulative_integral(*args, **kwargs)
        return counted

    for name, module in (("bidding", bidding), ("excursion", excursion)):
        monkeypatch.setattr(module, "cumulative_integral", counting(name))
    fresh = []  # whether each sweep starts from an array it did not write
    iterate = bidding._iterate_to_fixed_point

    def watched_iterate(step, start, max_iter):
        last = None

        def watched(x, out):
            nonlocal last
            fresh.append(x[0] is not last)
            step(x, out)
            last = out[0]
        return iterate(watched, start, max_iter)

    monkeypatch.setattr(bidding, "_iterate_to_fixed_point", watched_iterate)
    p = bidding.build_profile(0.8)
    assert calls == {"bidding": p.iterations, "excursion": 0}
    calls["bidding"], fresh[:] = 0, []
    p = excursion.build_excursion_profile(1.1)
    # two per sweep, and one more whenever the sweep cannot reuse the G+
    # it wrote last: the first sweep and after each jump (one at s = 1.1)
    assert sum(fresh) >= 2
    assert calls == {"bidding": 0,
                     "excursion": 2 * p.iterations + sum(fresh)}


def test_compare_outputs_names_each_changed_or_lone_file(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    a, b = tmp_path / "a", tmp_path / "b"
    for top in (a, b):
        (top / "fig").mkdir(parents=True)
        (top / "same.txt").write_text("1.0\n")
        (top / "fig" / "moved.csv").write_text(f"{top.name}\n")
    (a / "fig" / "gone.csv").write_text("x\n")
    (b / "new.json").write_text("{}\n")
    names = ("REV", "the working tree")
    assert compare.differences(a, b, names) == [
        "only in REV: fig/gone.csv", "differs: fig/moved.csv",
        "only in the working tree: new.json"]
    assert compare.differences(a, a, names) == []
