"""The benchmark's trace bindings name attributes the library defines.

``perfbench/tracing.py`` wraps each binding where callers look it up
(``owner.__dict__[attr]``); a refactor that moves or renames one of these
names must fail here, not only in a traced benchmark run.
"""

import importlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from profile_lab import analysis, bidding, excursion

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
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
    # (certify-curve both sweeps' cumulative_integral, the Monte Carlo
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
