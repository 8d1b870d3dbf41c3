"""The three benchmark workloads and the output checks inside them.

Each workload is a closed loop with one caller: every call waits for the
previous one.  A workload generates its inputs from the seed in ``setup``,
then runs *passes*: one pass issues the same fixed batch of calls, so exact
counts (solver sweeps, quadrature calls, evaluated points) must repeat from
pass to pass and from run to run.

Why these three:

* ``certify-curve`` is the paper-reproduction pipeline through ``cli.main``.
  The fixed-point solver, quadrature, ``verify`` and ``serialize`` do almost
  all the work.  The linear-search anchor near s = 1.25 sits in the band
  where the default build raises ``ConvergenceError``; it stays in and counts
  as a failed operation, so a solver fix shows in time and failures.
* ``cost-queries`` issues scalar ``expected_cost`` / ``strategy_cost_linear``
  calls on prebuilt profiles.  It exercises the ``tau`` / ``integral_to``
  query path and never touches the solver.
* ``mc-crosscheck`` runs the Monte Carlo oracle against analytic costs.  Its
  time goes to the lane loop and vectorized ``GridFunction.value``; it calls
  ``tau`` only a few times per simulation.  Beside ``cost-queries`` it uses
  the same ``grids`` module in a different way, so a change that moves work
  into ``GridFunction`` construction shows as a trade between workloads.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

CERTIFY, COST, MC = "certify-curve", "cost-queries", "mc-crosscheck"


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    figure_steps: int
    grid: tuple[float, float] | None  # (x_min, h); None = library defaults
    queries: int                      # cost queries per pass
    mc_samples: int                   # samples per simulation


FULL = Sizes(figure_steps=200, grid=None, queries=512, mc_samples=100_000)
TINY = Sizes(figure_steps=12, grid=(-12.0, 1.0 / 128), queries=24,
             mc_samples=2_000)


@dataclass
class PassResult:
    """What one pass did and what its outputs looked like."""

    work: float                 # units of the workload's ``work_unit`` done
    attempted: int
    failures: list[str]         # one entry per failed operation
    outputs: tuple              # must repeat bit-exactly from pass to pass
    wrong: list[str] = field(default_factory=list)  # failures with wrong output
    counts: dict[str, int] = field(default_factory=dict)
    latencies_ns: list[int] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # time of each operation
    accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    def fail(self, message: str, wrong: bool = False) -> None:
        """Count one failed operation; ``wrong`` if it returned a bad output
        rather than raising."""
        self.failures.append(message)
        if wrong:
            self.wrong.append(message)


def _grid_kwargs(sizes: Sizes) -> dict[str, float]:
    return {} if sizes.grid is None else {"x_min": sizes.grid[0],
                                          "h": sizes.grid[1]}


def _stratified_log(rng: np.random.Generator, count: int, lo: float,
                    hi: float) -> np.ndarray:
    """``count`` log-uniform draws on [lo, hi], one per equal-width stratum.

    Stratifying fixes the share of targets on each side of any threshold up
    to one sample, so pass time and latency percentiles do not swing with
    the seed the way a plain random draw would.
    """
    u = (np.arange(count) + rng.random(count)) / count
    return lo * (hi / lo) ** u


# -- certify-curve -------------------------------------------------------------

# (problem, anchor name, centre, lower offset, upper offset).  Each band keeps
# its anchor in its regime: sK stays on the closed-form branch (s <= s_K),
# 0.3 and 0.5 below ln 2, and 1.25 inside the band where default builds hit
# the sweep cap today.  Bands are narrowest where sweep counts are steepest.
_ANCHORS = (
    ("bidding", "s0.3", 0.3, -0.005, 0.005),
    ("bidding", "s0.5", 0.5, -0.005, 0.005),
    ("bidding", "s0.8", 0.8, -0.002, 0.002),
    ("bidding", "s0.95", 0.95, -0.002, 0.002),
    ("linsearch", "s0.2", 0.2, -0.005, 0.005),
    ("linsearch", "sK", None, -5e-4, 0.0),
    ("linsearch", "s0.9", 0.9, -0.002, 0.002),
    ("linsearch", "s1.1", 1.1, -0.002, 0.002),
    ("linsearch", "s1.25", 1.25, -0.002, 0.002),
)
_LAYER = {"bidding": "bidding", "linsearch": "excursion"}


def _parse_fields(text: str) -> dict[str, str]:
    """key=value tokens of CLI output, later keys winning."""
    out = {}
    for token in text.replace(",", " ").replace("(", " ").replace(")", " ").split():
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
    return out


class CertifyCurve:
    name = CERTIFY
    work_unit = "anchor"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed, self.sizes, self.scratch = seed, sizes, scratch
        self.anchors: list[tuple[str, str, float]] = []

    def setup(self, lib: SimpleNamespace) -> None:
        rng = np.random.default_rng(self.seed)
        s_k = lib.analysis.solve_sK()
        self.anchors = []
        for problem, anchor, centre, lo, hi in _ANCHORS:
            base = s_k if centre is None else centre
            self.anchors.append((problem, anchor, base + rng.uniform(lo, hi)))
        self.max_iter = {
            "bidding": inspect.signature(
                lib.bidding.build_profile).parameters["max_iter"].default,
            "linsearch": inspect.signature(
                lib.excursion.build_excursion_profile).parameters["max_iter"].default,
        }

    def anchor_names(self) -> dict[float, tuple[str, str]]:
        """Jittered s value -> (layer, anchor), e.g. ("excursion", "s1.25")."""
        return {s: (_LAYER[problem], anchor)
                for problem, anchor, s in self.anchors}

    def inputs(self) -> dict:
        return {f"{problem}.{anchor}": s for problem, anchor, s in self.anchors}

    def warmup(self, lib: SimpleNamespace) -> None:
        """Nothing: one pass is the whole pipeline a user runs."""

    def run_pass(self, lib: SimpleNamespace) -> PassResult:
        res = PassResult(work=0.0, attempted=0, failures=[], outputs=())
        outputs = []
        worst_rel, worst_gap = -math.inf, 0.0
        tmp = Path(tempfile.mkdtemp(prefix="certify-", dir=self.scratch))

        def call(label: str, argv: list[str]):
            res.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = lib.cli.main(argv)
            except Exception as exc:  # the CLI lets solver errors escape
                res.op_s.append(time.perf_counter() - t0)
                res.fail(f"{label}: {type(exc).__name__}: {exc}")
                return None, ""
            res.op_s.append(time.perf_counter() - t0)
            if code != 0:
                # exit 1 is a failed verification: a wrong profile
                reasons = [line for line in out.getvalue().splitlines()
                           if line.startswith("failure:")]
                res.fail(f"{label}: exit {code}: "
                         + "; ".join(reasons + [err.getvalue().strip()]),
                         wrong=code == 1)
            return code, out.getvalue()

        try:
            steps = self.sizes.figure_steps
            for which in ("1a", "1b"):
                fig_dir = tmp / f"fig{which}"
                code, _ = call(f"figure {which}",
                               ["figure", which, "--steps", str(steps),
                                "--out-dir", str(fig_dir)])
                if code == 0:
                    problem = _check_figure(fig_dir, which, steps)
                    if problem:
                        res.fail(f"figure {which}: {problem}", wrong=True)
            grid_args = [] if self.sizes.grid is None else [
                "--x-min", repr(self.sizes.grid[0]),
                "--h", repr(self.sizes.grid[1])]
            for problem, anchor, s in self.anchors:
                key = f"{_LAYER[problem]}.sweeps.{anchor}"
                path = tmp / f"{problem}-{anchor}.json"
                label = f"{problem} s={s!r}"
                code, out = call(f"build {label}",
                                 ["profile", "build", "--problem", problem,
                                  "--s", repr(s), "--out", str(path)]
                                 + grid_args)
                res.work += 1
                if code != 0:
                    res.counts[key] = self.max_iter[problem]
                    outputs.append((key, None))
                    continue
                res.counts[key] = int(_parse_fields(out)["sweeps"])
                stored = _check_profile_file(path, problem, s)
                if stored:
                    res.fail(f"build {label}: {stored}", wrong=True)
                    continue
                code, out = call(f"verify {label}",
                                 ["profile", "verify", str(path)])
                if code is None:
                    continue
                rep = _parse_fields(out)
                gap = float(rep["consistency_gap"])
                rel = float(rep["max_relative_residual"])
                worst_rel, worst_gap = max(worst_rel, rel), max(worst_gap, abs(gap))
                outputs.append((key, res.counts[key], gap, rel))
                # verify enforces only chi + tol_abs from above; the realized
                # consistency must also sit within tol_abs of chi from below
                if code == 0 and abs(gap) > 1e-4:
                    res.fail(f"verify {label}: realized consistency is "
                             f"{gap:.3e} from the closed-form chi "
                             f"(tol_abs 1e-4)", wrong=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        res.outputs = tuple(outputs)
        res.accuracy = {"certify.max_relative_residual": worst_rel,
                        "certify.max_consistency_gap": worst_gap}
        return res


def _check_figure(fig_dir: Path, which: str, steps: int) -> str | None:
    expected = {"ours_upper.csv": steps, "competitive_point.csv": 1}
    if which == "1b":
        expected["lower_bound.csv"] = steps
    for name, rows in expected.items():
        path = fig_dir / name
        if not path.is_file():
            return f"{name} missing"
        with open(path, newline="", encoding="utf-8") as fh:
            body = list(csv.reader(fh))[1:]
        if len(body) != rows:
            return f"{name} has {len(body)} rows, expected {rows}"
        if not all(math.isfinite(float(v)) for row in body for v in row):
            return f"{name} holds a non-finite value"
    return None


def _check_profile_file(path: Path, problem: str, s: float) -> str | None:
    """The stored JSON is the requested profile, with finite samples."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"profile file unreadable: {exc}"
    if doc.get("problem") != problem or doc.get("s") != s:
        return f"profile file holds {doc.get('problem')} s={doc.get('s')!r}"
    parts = [doc] if problem == "bidding" else [doc["g_plus"], doc["g_minus"]]
    if not all(all(map(math.isfinite, part["left_values"])) for part in parts):
        return "profile file holds a non-finite sample"
    return None


# -- cost-queries --------------------------------------------------------------

class CostQueries:
    name = COST
    work_unit = "query"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed, self.sizes = seed, sizes
        self.profiles: list = []
        self.calls: list[tuple[int, int, float]] = []

    def setup(self, lib: SimpleNamespace) -> None:
        grid = _grid_kwargs(self.sizes)
        s_k = lib.analysis.solve_sK()
        self.profiles = [lib.bidding.build_profile(0.5, **grid),
                         lib.bidding.build_profile(0.8, **grid),
                         lib.excursion.build_excursion_profile(s_k, **grid),
                         lib.excursion.build_excursion_profile(0.9, **grid)]
        # targets log-uniform on [1e-3, 1e4]: about half land below G(0),
        # in the window's bisection path of tau, the rest on the analytic
        # right pieces; linear search gets both signs in equal numbers
        rng = np.random.default_rng(self.seed)
        per = self.sizes.queries // 8
        calls = []
        for idx in range(4):
            linear = idx >= 2
            for sign in ((1.0, -1.0) if linear else (1.0, 1.0)):
                for t in _stratified_log(rng, per, 1e-3, 1e4):
                    calls.append((int(linear), idx, sign * float(t)))
        order = rng.permutation(len(calls))
        self.calls = [calls[i] for i in order]

    def inputs(self) -> dict:
        return {"queries_per_pass": len(self.calls),
                "profiles": ["bidding s=0.5", "bidding s=0.8",
                             "linsearch s=s_K", "linsearch s=0.9"]}

    def warmup(self, lib: SimpleNamespace) -> None:
        self.run_pass(lib)

    def run_pass(self, lib: SimpleNamespace) -> PassResult:
        fns = (lib.bidding.expected_cost, lib.excursion.strategy_cost_linear)
        profiles = self.profiles
        costs = [math.nan] * len(self.calls)
        lat = [0] * len(self.calls)
        errors = []
        clock = time.perf_counter_ns
        for i, (kind, idx, target) in enumerate(self.calls):
            t0 = clock()
            try:
                costs[i] = fns[kind](profiles[idx], target)
            except Exception as exc:  # counted as a failed query
                errors.append(f"{target!r}: {type(exc).__name__}: {exc}")
            lat[i] = clock() - t0
        res = PassResult(work=len(self.calls),
                         attempted=len(self.calls), failures=errors,
                         outputs=tuple(costs), latencies_ns=lat,
                         op_s=[ns * 1e-9 for ns in lat])
        for problem, wrong in self._check(costs):
            res.fail(problem, wrong=wrong)
        return res

    def _check(self, costs: list[float]) -> list[tuple[str, bool]]:
        """Robustness bounds per query; costs non-decreasing in |T| per curve.

        Returns (message, wrong) per violation.  A cost above the robustness
        bound by more than 1e-6 relative is a failed query.  The library
        certifies robustness only to verify's default ``tol_rel`` of 1e-4,
        so only an excess beyond that marks the output wrong.
        """
        bad = []
        by_curve: dict[tuple[int, bool], list[tuple[float, float]]] = {}
        for (kind, idx, target), cost in zip(self.calls, costs):
            if math.isnan(cost):
                continue
            p = self.profiles[idx]
            ratio = p.rho if kind == 0 else 1.0 + 2.0 * p.rho
            excess = cost / (ratio * abs(target)) - 1.0
            if not excess <= 1e-6:
                bad.append((f"profile {idx} T={target!r}: cost {cost!r} "
                            f"exceeds the robustness bound {ratio!r}*|T| by "
                            f"{excess:.3e} relative", not excess <= 1e-4))
            by_curve.setdefault((idx, target > 0), []).append(
                (abs(target), cost))
        for (idx, positive), rows in by_curve.items():
            rows.sort()
            for (t1, c1), (t2, c2) in zip(rows, rows[1:]):
                # 1e-12 relative slack absorbs rounding between near-equal
                # targets; a real decrease is far larger
                if c2 < c1 * (1.0 - 1e-12):
                    bad.append((f"profile {idx}: cost falls from {c1!r} at "
                                f"|T|={t1!r} to {c2!r} at |T|={t2!r}", True))
        return bad


# -- mc-crosscheck -------------------------------------------------------------

# target strata: small (< 1), medium, large (>= 1e2)
_MC_STRATA = ((0.2, 0.5), (3.0, 6.0), (100.0, 200.0))


class MonteCarlo:
    name = MC
    work_unit = "sample"

    def __init__(self, seed: int, sizes: Sizes, scratch: Path):
        self.seed, self.sizes = seed, sizes
        self.sims: list[tuple[int, object, float, int, float]] = []

    def setup(self, lib: SimpleNamespace) -> None:
        grid = _grid_kwargs(self.sizes)
        bid = lib.bidding.build_profile(0.5, **grid)
        lin = lib.excursion.build_excursion_profile(0.9, **grid)
        rng = np.random.default_rng(self.seed)
        sims = []
        for lo, hi in _MC_STRATA:
            t = float(_stratified_log(rng, 1, lo, hi)[0])
            sims.append((0, bid, t))
            sims.append((1, lin, t))
            sims.append((1, lin, -float(_stratified_log(rng, 1, lo, hi)[0])))
        # analytic reference costs belong to set-up; each simulation gets
        # its own counter-RNG key derived from the benchmark seed
        self.sims = [
            (kind, p, t, self.seed * 1000 + i,
             lib.bidding.expected_cost(p, t) if kind == 0
             else lib.excursion.strategy_cost_linear(p, t))
            for i, (kind, p, t) in enumerate(sims)]

    def inputs(self) -> dict:
        return {"samples_per_simulation": self.sizes.mc_samples,
                "simulations": [{"kind": ("bidding", "linear")[kind],
                                 "target": t, "rng_key": key, "analytic": exact}
                                for kind, _, t, key, exact in self.sims]}

    def warmup(self, lib: SimpleNamespace) -> None:
        self.run_pass(lib)

    def run_pass(self, lib: SimpleNamespace) -> PassResult:
        fns = (lib.simulate.simulate_bidding, lib.simulate.simulate_linear)
        n = self.sizes.mc_samples
        res = PassResult(work=0.0, attempted=0, failures=[], outputs=())
        outputs, worst_z = [], 0.0
        for kind, p, target, key, exact in self.sims:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                rep = fns[kind](p, target, n, key)
            except Exception as exc:  # counted as a failed simulation
                res.op_s.append(time.perf_counter() - t0)
                res.fail(f"T={target!r}: {type(exc).__name__}: {exc}")
                continue
            res.op_s.append(time.perf_counter() - t0)
            res.work += n
            outputs.append((rep.mean, rep.stderr))
            err = abs(rep.mean - exact)
            worst_z = max(worst_z, err / rep.stderr)
            # acceptance criterion 7's rule, plus the reported prefix bias.
            # A correct simulator misses it by chance about once in 16 000
            # runs, so a miss is a failed operation; only a miss far beyond
            # chance (8 stderr) marks the output as wrong.
            if not err <= 4.0 * rep.stderr + rep.bias_bound:
                res.fail(f"{('bidding', 'linear')[kind]} T={target!r}: mean "
                         f"{rep.mean!r} vs analytic {exact!r} (stderr "
                         f"{rep.stderr!r}, bias bound {rep.bias_bound!r})",
                         wrong=err > 8.0 * rep.stderr + rep.bias_bound)
        res.outputs = tuple(outputs)
        res.accuracy = {"mc.max_abs_z": worst_z}
        return res


WORKLOADS = {w.name: w for w in (CertifyCurve, CostQueries, MonteCarlo)}
