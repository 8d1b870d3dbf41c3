"""The benchmark's trace bindings name attributes the library defines.

``perfbench/tracing.py`` wraps each binding where callers look it up
(``owner.__dict__[attr]``); a refactor that moves or renames one of these
names must fail here, not only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("binding", tracing.BINDINGS, ids=lambda b: b.label)
def test_trace_binding_resolves(binding):
    *path, attr = binding.attr.split(".")
    owner = importlib.import_module(f"profile_lab.{binding.module}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__.get(attr)), binding.label
