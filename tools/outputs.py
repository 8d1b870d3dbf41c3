"""Write the outputs that a refactor must leave unchanged into one directory.

Run it from a source tree; it imports the package from that tree's ``src``
and the off-node probe from its ``tests/oracles.py``:

    python tools/outputs.py OUT_DIR

OUT_DIR receives, with paths relative to it so that two runs compare:

* ``<problem>-<s>.json``: ``profile build`` at bidding s in {0.3, 0.5, 0.8,
  0.95, 1.0} and linear search s in {0.2, s_K, 0.9, 1.25, s_*};
* ``fig1a/`` and ``fig1b/``: the CSVs of ``figure 1a`` and ``figure 1b``;
* ``stdout.txt``: the lines those commands print, then ``profile simulate``
  on every saved profile at fixed targets and seeds (both signs for linear
  search);
* ``tau.txt``: ``repr(tau(T))`` of every component of the saved profiles at
  fixed targets and at its G(0-) and G(0+), one ``<file> <component> <T>
  <tau>`` line each;
* ``offnode.txt``: the worst robustness residual of each saved profile's
  model between the grid nodes and where it lies (``oracles.offnode_residual``,
  the probe the tests bound), one ``<file> <residual> <x>`` line each;
* ``roots.txt``: ``repr`` of the analysis roots, one ``<call> <root>`` line
  each: ``s_star()``, ``rho_ls_star()`` and ``solve_sK()``; bidding chi and
  the conjugate rate at s in {1e-300, 1e-200, 1e-9, 0.3, 0.8, 0.95, 1.0};
  linear-search chi, K and the conjugate rate at the profiles' s;
* ``verify.txt``: what ``profile verify`` prints for every saved profile;
* ``costs.txt``: ``repr`` of ``expected_cost`` (bidding) and
  ``strategy_cost_linear`` (linear search, both signs) of every saved
  profile at 100 log-spaced targets on [1e-3, 1e4], one ``<file> <T>
  <cost>`` line each;
* ``tail.txt``: the tail below the window of every component of the saved
  profiles (``repr``): one ``<file> <component> x_min modes mass excess``
  line, then one ``<file> <component> mode <j> <rate> <coeff> <deep>``
  line per mode.  ``excess`` is the largest C(tau(T))/(rho T) - 1 over 50
  log-spaced targets T in [1e-6 G(x_min), G(x_min)], C the component's
  share of the cost (``expected_cost``; half of ``strategy_cost_linear``
  less |T|/2); ``deep`` is the modulus of the closed-form relative
  residual of the component's condition on that mode alone, the
  condition's form below x_min - 1 (bidding e^lam/(rho lam) - 1; with r
  the mode's G- over its G+, (1 + r)/(rho lam) - 1 for G+ and
  (e^lam + r)/(rho lam r) - 1 for G-).  Rates and coefficients are
  complex, each standing with its conjugate, after the first.

Comparing two trees is ``diff -r OUT_A OUT_B``.
"""

import cmath
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import offnode_residual  # noqa: E402
from profile_lab import (analysis, expected_cost, load_profile,  # noqa: E402
                         strategy_cost_linear)
from profile_lab.cli import main  # noqa: E402

PROFILES = ([("bidding", s, repr(s)) for s in (0.3, 0.5, 0.8, 0.95, 1.0)]
            + [("linsearch", s, name) for s, name in (
                (0.2, "0.2"), (analysis.solve_sK(), "sK"), (0.9, "0.9"),
                (1.25, "1.25"), (analysis.s_star(), "s_star"))])
SIMULATE = ("0.5", "2.0", "300.0")
SAMPLES, SEED = "20000", "7"
# log-spaced over the tail, the window and the right part of every profile
TAU_TARGETS = np.geomspace(1e-12, 1e8, 500).tolist()
TAIL_TARGETS = 50  # log-spaced on [1e-6 G(x_min), G(x_min)]
COST_TARGETS = np.geomspace(1e-3, 1e4, 100).tolist()
ROOTS_BIDDING = (1e-300, 1e-200, 1e-9, 0.3, 0.8, 0.95, 1.0)


def _cli(out, *argv: str) -> None:
    out.write(f"$ {' '.join(argv)}\n")
    out.flush()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    out.write(f"exit {code}\n")


def _roots():
    """(call, root) for every line of roots.txt."""
    a = analysis
    yield "s_star()", a.s_star()
    yield "rho_ls_star()", a.rho_ls_star()
    yield "solve_sK()", a.solve_sK()
    for s in ROOTS_BIDDING:
        yield f"bidding_tradeoff({s!r}).chi", a.bidding_tradeoff(s).chi
        yield f"conjugate_rate_bidding({s!r})", a.conjugate_rate_bidding(s)
    for problem, s, name in PROFILES:
        if problem == "linsearch":
            yield f"linear_tradeoff({name})[0].chi", a.linear_tradeoff(s)[0].chi
            yield f"solve_K({name})", a.solve_K(s)
            yield f"conjugate_rate_linear({name})", a.conjugate_rate_linear(s)


def _deep(bidding: bool, k: int, rho: float, lam: complex,
          r: complex) -> float:
    """|relative residual| of component k's condition on one mode."""
    if bidding:
        return abs(cmath.exp(lam) / (rho * lam) - 1.0)
    return abs(((1.0 + r) / (rho * lam) if k == 0
                else (cmath.exp(lam) + r) / (rho * lam * r)) - 1.0)


def _tail_lines(path: str, p):
    """The lines of tail.txt for the profile ``p`` saved at ``path``."""
    bidding, rho = path.startswith("bidding"), p.rho
    first = p.components[0].tail.modes
    last = p.components[-1].tail.modes
    for k, (label, g) in enumerate(zip(p.names, p.components)):
        if bidding:
            def share(T):
                return expected_cost(p, T)
        else:
            def share(T, sign=(1.0, -1.0)[k]):
                return 0.5 * (strategy_cost_linear(p, sign * T) - T)
        top = float(g.left_values[0])
        excess = max(share(T) / (rho * T) - 1.0 for T in np.geomspace(
            1e-6 * top, top, TAIL_TARGETS).tolist())
        yield (f"{path} {label} {g.x_min!r} {len(g.tail.modes)} "
               f"{g.tail_mass!r} {excess!r}\n")
        for j, ((lam, c), (_, c0), (_, c1)) in enumerate(zip(
                g.tail.modes, first, last)):
            deep = _deep(bidding, k, rho, lam, c1 / c0 if c0 else math.nan)
            yield f"{path} {label} mode {j} {lam!r} {c!r} {deep!r}\n"


def write_outputs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    with open("stdout.txt", "w") as out:
        for which in ("1a", "1b"):
            _cli(out, "figure", which, "--out-dir", f"fig{which}")
        files = []
        for problem, s, name in PROFILES:
            files.append(f"{problem}-{name}.json")
            _cli(out, "profile", "build", "--problem", problem,
                 "--s", repr(s), "--out", files[-1])
        for path in files:
            signs = ("", "-") if path.startswith("linsearch") else ("",)
            for target in SIMULATE:
                for sign in signs:
                    _cli(out, "profile", "simulate", path, "--target",
                         sign + target, "--samples", SAMPLES, "--seed", SEED)
    with open("tau.txt", "w") as out, open("offnode.txt", "w") as offnode:
        for path in files:
            p = load_profile(path)
            worst, x = offnode_residual(p)
            offnode.write(f"{path} {worst!r} {x!r}\n")
            for label, g in zip(p.names, p.components):
                for T in TAU_TARGETS + [float(g.left_values[-1]),
                                        g.right_value_at_zero()]:
                    out.write(f"{path} {label} {T!r} {g.tau(T)!r}\n")
    with open("verify.txt", "w") as out:
        for path in files:
            _cli(out, "profile", "verify", path)
    with open("costs.txt", "w") as out:
        for path in files:
            p = load_profile(path)
            if path.startswith("bidding"):
                costs = [(T, expected_cost(p, T)) for T in COST_TARGETS]
            else:
                costs = [(T * sign, strategy_cost_linear(p, T * sign))
                         for T in COST_TARGETS for sign in (1.0, -1.0)]
            for T, cost in costs:
                out.write(f"{path} {T!r} {cost!r}\n")
    with open("tail.txt", "w") as out:
        for path in files:
            out.writelines(_tail_lines(path, load_profile(path)))
    with open("roots.txt", "w") as out:
        for call, root in _roots():
            out.write(f"{call} {root!r}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]).resolve())
