"""Run-time span tracing of profile_lab, installed from outside the library.

Every public function the benchmark cares about is wrapped *where it is
looked up*: ``bidding._apply_F_fast`` finds ``cumulative_integral`` in the
``bidding`` namespace, ``GridFunction.__post_init__`` finds it in ``grids``,
and the CLI finds ``save_profile`` in ``cli``.  Patching only the defining
module would miss every caller that imported the name, so each binding is
patched separately and counts its own calls; a binding that records no call
on the workload meant to exercise it signals a wrong patch target.

Spans are kept in memory as tuples and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from workloads import CERTIFY, COST, MC

# span tuple layout
ID, PARENT, NAME, BINDING, T0, T1, NOTE = range(7)


def _points(args, kwargs, result):
    return int(np.size(args[1]))


def _build_note(args, kwargs, result):
    s = float(args[0])
    if isinstance(result, BaseException):
        return {"s": s, "error": type(result).__name__}
    return {"s": s, "sweeps": result.iterations,
            "final_delta": result.final_delta}


def _samples(args, kwargs, result):
    return int(args[2])


@dataclass(frozen=True)
class Binding:
    """One name to wrap: ``owner.attr`` records spans called ``span``."""

    module: str          # profile_lab submodule holding the binding
    attr: str            # dotted attribute path inside it
    span: str            # span name, shared by bindings of one function
    homes: tuple[str, ...]  # workloads that must call this binding
    note: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


BINDINGS = (
    Binding("grids", "cumulative_integral", "grids.cumulative_integral",
            (CERTIFY,)),
    Binding("bidding", "cumulative_integral", "grids.cumulative_integral",
            (CERTIFY,)),
    Binding("excursion", "cumulative_integral", "grids.cumulative_integral",
            (CERTIFY,)),
    Binding("grids", "GridFunction.value", "grids.value", (CERTIFY, MC),
            _points),
    Binding("grids", "GridFunction.tau", "grids.tau", (COST, MC)),
    Binding("grids", "GridFunction.integral_to", "grids.integral_to",
            (CERTIFY, COST)),
    Binding("bidding", "build_profile", "bidding.build", (CERTIFY,),
            _build_note),
    Binding("excursion", "build_excursion_profile", "excursion.build",
            (CERTIFY,), _build_note),
    Binding("bidding", "verify", "bidding.verify", (CERTIFY,)),
    Binding("excursion", "verify_excursion", "excursion.verify", (CERTIFY,)),
    Binding("cli", "save_profile", "serialize.save", (CERTIFY,)),
    Binding("cli", "load_profile", "serialize.load", (CERTIFY,)),
    Binding("analysis", "bidding_tradeoff", "analysis.tradeoff", (CERTIFY,)),
    Binding("analysis", "linear_tradeoff", "analysis.tradeoff", (CERTIFY,)),
    Binding("analysis", "linear_lower_bound", "analysis.tradeoff",
            (CERTIFY,)),
    Binding("bidding", "bidding_tradeoff", "analysis.tradeoff", (CERTIFY,)),
    Binding("excursion", "linear_tradeoff", "analysis.tradeoff", (CERTIFY,)),
    Binding("cli", "main", "cli.main", (CERTIFY,)),
    Binding("bidding", "expected_cost", "bidding.expected_cost", (COST,)),
    Binding("excursion", "strategy_cost_linear",
            "excursion.strategy_cost_linear", (COST,)),
    Binding("simulate", "simulate_bidding", "simulate.bidding", (MC,),
            _samples),
    Binding("simulate", "simulate_linear", "simulate.linear", (MC,),
            _samples),
)


class Tracer:
    """Records nested spans (id, parent, name, binding, t0, t1, note)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn: Callable, binding: Binding) -> Callable:
        tracer = self
        name, label, note = binding.span, binding.label, binding.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc  # the note records which error ended the call
                raise
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append(
                    (sid, parent, name, label, t0, t1,
                     note(args, kwargs, result) if note and result is not None
                     else None))

        return wrapper

    @contextlib.contextmanager
    def installed(self, modules: dict[str, Any]):
        """Patch every binding in ``modules``; restore them on exit."""
        saved = []
        try:
            for b in BINDINGS:
                *path, attr = b.attr.split(".")
                owner = modules[b.module]
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, b))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp[ID], "parent": sp[PARENT],
                                     "name": sp[NAME], "binding": sp[BINDING],
                                     "start_ns": sp[T0], "end_ns": sp[T1],
                                     "note": sp[NOTE]}) + "\n")


def span_cost_ns(calls: int = 10_000) -> float:
    """What one span adds to a call, in ns: the median over five rounds of
    a wrapped no-op call's time minus a bare one's."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, BINDINGS[0])
    costs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span duration minus the durations of its direct children, in ns.

    With one thread, children lie inside their parent's interval and do not
    overlap, so subtracting their durations removes exactly the part of the
    interval they cover.
    """
    own = {sp[ID]: sp[T1] - sp[T0] for sp in spans}
    for sp in spans:
        if sp[PARENT] in own:
            own[sp[PARENT]] -= sp[T1] - sp[T0]
    return own


def zero_call_bindings(spans: list[tuple], workload: str) -> list[str]:
    """Bindings meant to be exercised by ``workload`` that saw no call."""
    seen = {sp[BINDING] for sp in spans}
    return [b.label for b in BINDINGS
            if workload in b.homes and b.label not in seen]
