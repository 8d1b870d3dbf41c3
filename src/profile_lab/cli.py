"""Command-line interface.

Subcommands
-----------
tradeoff           robustness-consistency curve as CSV
lowerbound         linear-search lower-bound curve as CSV
profile build      construct a profile and write it to disk
profile verify     re-check a stored profile; exit 1 on failure
profile simulate   Monte Carlo cost estimate for a stored profile
figure             emit the data series behind the trade-off figures

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 the solver
did not converge (profile build raised ConvergenceError).  All outputs
are deterministic given the arguments; reals are written as shortest
round-trip decimals.  The environment variable PROFILE_LAB_DEFAULT_GRID
("x_min,h") overrides the default grid.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, bidding, excursion, simulate
from .analysis import ConvergenceError, DomainError
from .serialize import load_profile, save_profile


def _default_grid() -> tuple[float, float] | None:
    raw = os.environ.get("PROFILE_LAB_DEFAULT_GRID")
    if not raw:
        return None
    try:
        x_min, h = (float(tok) for tok in raw.split(","))
        return x_min, h
    except ValueError as exc:
        raise DomainError(
            f"PROFILE_LAB_DEFAULT_GRID must be 'x_min,h', got {raw!r}") from exc


def _grid_for(args, s: float, problem: str) -> tuple[float, float]:
    env = _default_grid()
    x_min, h = env if env else (bidding.DEFAULT_X_MIN, bidding.DEFAULT_H)
    if env is None and problem == "bidding" and s < 0.1:
        # keep the truncated tail mass negligible
        x_min = bidding.DEFAULT_X_MIN / s
    if args.x_min is not None:
        x_min = args.x_min
    if args.h is not None:
        h = args.h
    return x_min, h


def _srange(args, lo: float, hi: float) -> np.ndarray:
    if args.s is not None:
        return np.array([args.s])
    s_min = args.s_min if args.s_min is not None else lo
    s_max = args.s_max if args.s_max is not None else hi
    steps = args.steps
    if steps < 2 or not (lo - 1e-12 <= s_min < s_max <= hi + 1e-12):
        raise DomainError(
            f"range must satisfy {lo} <= min < max <= {hi} with steps >= 2")
    if args.log:
        return np.geomspace(s_min, s_max, steps)
    return np.linspace(s_min, s_max, steps)


def _write_rows(path: str | None, header: list[str],
                rows: list[list[float]]) -> None:
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    finally:
        if path:
            out.close()


def cmd_tradeoff(args) -> int:
    if args.problem == "bidding":
        ss = _srange(args, 0.035, 1.0)
        rows = []
        for s in ss:
            pt = analysis.bidding_tradeoff(float(s))
            rows.append([pt.s, pt.rho, pt.chi])
        _write_rows(args.out, ["s", "rho", "chi"], rows)
    else:
        ss = _srange(args, 0.0415, analysis.s_star())
        rows = []
        for s in ss:
            exc, strat = analysis.linear_tradeoff(float(s))
            rows.append([exc.s, exc.rho, exc.chi, strat.rho, strat.chi,
                         analysis.solve_K(float(s))])
        _write_rows(args.out, ["s", "rho_excursion", "chi_excursion",
                               "rho_ls", "chi_ls", "K"], rows)
    return 0


def cmd_lowerbound(args) -> int:
    if args.t is not None:
        ts = np.array([args.t])
    else:
        t_min = args.t_min if args.t_min is not None else 0.005
        t_max = args.t_max if args.t_max is not None else 1.0
        if not (0.0 < t_min < t_max <= 1.0) or args.steps < 2:
            raise DomainError("t range must satisfy 0 < min < max <= 1 "
                              "with steps >= 2")
        ts = (np.geomspace(t_min, t_max, args.steps) if args.log
              else np.linspace(t_min, t_max, args.steps))
    rows = []
    for t in ts:
        pt = analysis.linear_lower_bound(float(t))
        rows.append([pt.t, pt.chi_ls, pt.rho_ls_raw, pt.rho_ls])
    _write_rows(args.out, ["t", "chi_ls", "rho_ls_raw", "rho_ls_clamped"],
                rows)
    return 0


def cmd_profile_build(args) -> int:
    x_min, h = _grid_for(args, args.s, args.problem)
    if args.problem == "bidding":
        p = bidding.build_profile(args.s, x_min=x_min, h=h, tol=args.tol)
    else:
        p = excursion.build_excursion_profile(args.s, x_min=x_min, h=h,
                                              tol=args.tol)
    save_profile(p, args.out)
    print(f"wrote {args.problem} profile s={args.s} to {args.out} "
          f"(x_min={x_min}, h={h}, sweeps={p.iterations}, "
          f"final_delta={p.final_delta!r})")
    return 0


def _print_report(rep) -> None:
    print(f"passed={rep.passed}")
    print(f"max_robustness_residual={rep.max_robustness_residual!r}")
    print(f"max_relative_residual={rep.max_relative_residual!r}")
    print(f"consistency_gap={rep.consistency_gap!r}")
    print(f"tightness_residual={rep.tightness_residual!r}")
    print(f"offset_ok={rep.offset_ok}")
    print(f"monotone_ok={rep.monotone_ok}")
    print(f"tail_bound={rep.tail_bound!r}")
    print(f"grid_meta={rep.grid_meta!r}")
    for failure in rep.failures:
        print(f"failure: {failure}")


def cmd_profile_verify(args) -> int:
    p = load_profile(args.profile)
    if isinstance(p, bidding.BiddingProfile):
        rep = bidding.verify(p, tol_rel=args.tol_rel, tol_abs=args.tol_abs)
    else:
        rep = excursion.verify_excursion(p, tol_rel=args.tol_rel,
                                         tol_abs=args.tol_abs)
    _print_report(rep)
    return 0 if rep.passed else 1


def cmd_profile_simulate(args) -> int:
    p = load_profile(args.profile)
    if isinstance(p, bidding.BiddingProfile):
        rep = simulate.simulate_bidding(p, args.target, args.samples,
                                        args.seed)
    else:
        rep = simulate.simulate_linear(p, args.target, args.samples,
                                       args.seed)
    print(rep.line())
    return 0


def cmd_figure(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.which == "1a":
        ss = np.geomspace(0.035, 1.0, args.steps)
        rows = []
        for s in ss:
            pt = analysis.bidding_tradeoff(float(s))
            rows.append([pt.s, pt.chi, pt.rho])
        _write_rows(str(out_dir / "ours_upper.csv"), ["s", "chi", "rho"], rows)
        _write_rows(str(out_dir / "competitive_point.csv"), ["chi", "rho"],
                    [[math.e, math.e]])
    else:
        ss = np.geomspace(0.0415, analysis.s_star(), args.steps)
        rows = []
        for s in ss:
            _, strat = analysis.linear_tradeoff(float(s))
            rows.append([strat.s, strat.chi, strat.rho])
        _write_rows(str(out_dir / "ours_upper.csv"), ["s", "chi", "rho"], rows)
        ts = np.geomspace(0.005, 1.0, args.steps)
        rows = []
        for t in ts:
            pt = analysis.linear_lower_bound(float(t))
            rows.append([pt.t, pt.chi_ls, pt.rho_ls, pt.rho_ls_raw])
        _write_rows(str(out_dir / "lower_bound.csv"),
                    ["t", "chi_ls", "rho_ls", "rho_ls_raw"], rows)
        star = analysis.rho_ls_star()
        _write_rows(str(out_dir / "competitive_point.csv"), ["chi", "rho"],
                    [[star, star]])
    print(f"wrote figure {args.which} series to {out_dir}")
    return 0


def _add_range_args(sp, name: str) -> None:
    sp.add_argument(f"--{name}", type=float, default=None,
                    help=f"single {name} value")
    sp.add_argument(f"--{name}-min", type=float, default=None)
    sp.add_argument(f"--{name}-max", type=float, default=None)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--log", action="store_true",
                    help="log-spaced instead of linear")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profile-lab",
        description="Randomized bidding and linear-search profiles: "
                    "trade-off curves, construction, verification, "
                    "and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tradeoff", help="emit a trade-off curve as CSV")
    sp.add_argument("--problem", choices=["bidding", "linsearch"],
                    required=True)
    _add_range_args(sp, "s")
    sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    sp.set_defaults(func=cmd_tradeoff)

    sp = sub.add_parser("lowerbound",
                        help="emit the linear-search lower bound as CSV")
    _add_range_args(sp, "t")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_lowerbound)

    prof = sub.add_parser("profile", help="build / verify / simulate profiles")
    psub = prof.add_subparsers(dest="profile_command", required=True)

    sp = psub.add_parser("build", help="construct a profile and save it")
    sp.add_argument("--problem", choices=["bidding", "linsearch"],
                    required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--x-min", type=float, default=None)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--tol", type=float, default=bidding.DEFAULT_TOL)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_profile_build)

    sp = psub.add_parser("verify", help="check a stored profile")
    sp.add_argument("profile")
    sp.add_argument("--tol-rel", type=float, default=1e-4)
    sp.add_argument("--tol-abs", type=float, default=1e-4)
    sp.set_defaults(func=cmd_profile_verify)

    sp = psub.add_parser("simulate", help="Monte Carlo cost estimate")
    sp.add_argument("profile")
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--samples", type=int, default=10**6)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_profile_simulate)

    sp = sub.add_parser("figure", help="emit figure data series")
    sp.add_argument("which", choices=["1a", "1b"])
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
