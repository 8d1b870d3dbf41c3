"""Command-line interface.

Subcommands
-----------
tradeoff           robustness-consistency curve as CSV
lowerbound         linear-search lower-bound curve as CSV
profile build      construct a profile and write it to disk
profile verify     re-check a stored profile; exit 1 on failure
profile simulate   Monte Carlo cost estimate for a stored profile
figure             emit the data series behind the trade-off figures

Exit codes: 0 success, 1 verification failure, 2 bad input (also an input
too large to hold in memory), 3 the solver did not converge (profile build
raised ConvergenceError), 4 the Monte Carlo simulation did not terminate
(profile simulate).  All outputs are deterministic given the arguments;
reals are written as shortest round-trip decimals.  profile build takes its
grid defaults (--x-min, --h) and its sweep tolerance (bidding.SWEEP_TOL)
from the library; profile verify checks at its fixed tolerances
(bidding.TOL_REL, TOL_ABS, ATOL_FLOOR).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, bidding, excursion, simulate
from .analysis import ConvergenceError, DomainError
from .serialize import load_profile, save_profile


def _points(args, name: str, lo: float, hi: float,
            start: float | None = None) -> np.ndarray:
    """Curve parameters: --NAME alone, or --steps points from --NAME-min to
    --NAME-max, log-spaced with --log.

    The range defaults to [lo, hi] and must lie within it, up to 1e-12.
    With ``start`` it defaults to [start, hi], and its minimum may go below
    ``start`` down to just above ``lo``.
    """
    if getattr(args, name) is not None:
        return np.array([getattr(args, name)])
    v_min = getattr(args, f"{name}_min")
    v_max = getattr(args, f"{name}_max")
    if v_min is None:
        v_min = lo if start is None else start
    if v_max is None:
        v_max = hi
    low_ok = lo - 1e-12 <= v_min if start is None else lo < v_min
    if args.steps < 2 or not (low_ok and v_min < v_max <= hi + 1e-12):
        raise DomainError(f"{name} range must lie within [{lo}, {hi}] "
                          "with min < max and steps >= 2")
    return (np.geomspace if args.log else np.linspace)(v_min, v_max,
                                                       args.steps)


def _write_curve(path: str | Path | None, row, params,
                 columns: dict[str, str] | None = None) -> None:
    """Write ``row(p)`` for every parameter ``p`` as CSV, to ``path`` or stdout.

    ``columns`` maps each output header to a key of the row, in output
    order; by default the row's own keys.  Every row is computed before the
    output opens, so a domain error leaves no partial file.
    """
    rows = [row(float(p)) for p in params]
    if columns is None:
        columns = {key: key for key in rows[0]}
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerows([repr(r[key]) for key in columns.values()]
                         for r in rows)
    finally:
        if path:
            out.close()


# One row function per curve: parameter -> {column: value}.

def _bidding_row(s: float) -> dict[str, float]:
    pt = analysis.bidding_tradeoff(s)
    return {"s": pt.s, "rho": pt.rho, "chi": pt.chi}


def _linear_row(s: float) -> dict[str, float]:
    exc, strat = analysis.linear_tradeoff(s)
    return {"s": exc.s, "rho_excursion": exc.rho, "chi_excursion": exc.chi,
            "rho_ls": strat.rho, "chi_ls": strat.chi,
            "K": analysis.solve_K(s)}


def _lower_bound_row(t: float) -> dict[str, float]:
    pt = analysis.linear_lower_bound(t)
    return {"t": pt.t, "chi_ls": pt.chi_ls, "rho_ls_raw": pt.rho_ls_raw,
            "rho_ls_clamped": pt.rho_ls}


def cmd_tradeoff(args) -> int:
    if args.problem == "bidding":
        _write_curve(args.out, _bidding_row, _points(args, "s", 0.035, 1.0))
    else:
        _write_curve(args.out, _linear_row,
                     _points(args, "s", 0.0415, analysis.s_star()))
    return 0


def cmd_lowerbound(args) -> int:
    _write_curve(args.out, _lower_bound_row,
                 _points(args, "t", 0.0, 1.0, start=0.005))
    return 0


def cmd_profile_build(args) -> int:
    if args.problem == "bidding":
        build = bidding.build_profile
    else:
        build = excursion.build_excursion_profile
    p = build(args.s, x_min=args.x_min, h=args.h)
    save_profile(p, args.out)
    print(f"wrote {args.problem} profile s={args.s} to {args.out} "
          f"(x_min={args.x_min}, h={args.h}, sweeps={p.iterations}, "
          f"final_delta={p.final_delta!r})")
    return 0


def _print_report(rep) -> None:
    for name in ("passed", "max_robustness_residual", "max_relative_residual",
                 "consistency_gap", "tightness_residual", "offset_ok",
                 "monotone_ok", "tail_bound", "grid_meta"):
        print(f"{name}={getattr(rep, name)!r}")
    for failure in rep.failures:
        print(f"failure: {failure}")


def cmd_profile_verify(args) -> int:
    p = load_profile(args.profile)
    if isinstance(p, bidding.BiddingProfile):
        rep = bidding.verify(p)
    else:
        rep = excursion.verify_excursion(p)
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
    if args.steps < 2:
        raise DomainError(f"figure needs --steps >= 2, got {args.steps}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.which == "1a":
        _write_curve(out_dir / "ours_upper.csv", _bidding_row,
                     np.geomspace(0.035, 1.0, args.steps),
                     {"s": "s", "chi": "chi", "rho": "rho"})
        point = math.e
    else:
        _write_curve(out_dir / "ours_upper.csv", _linear_row,
                     np.geomspace(0.0415, analysis.s_star(), args.steps),
                     {"s": "s", "chi": "chi_ls", "rho": "rho_ls"})
        _write_curve(out_dir / "lower_bound.csv", _lower_bound_row,
                     np.geomspace(0.005, 1.0, args.steps),
                     {"t": "t", "chi_ls": "chi_ls", "rho_ls": "rho_ls_clamped",
                      "rho_ls_raw": "rho_ls_raw"})
        point = analysis.rho_ls_star()
    _write_curve(out_dir / "competitive_point.csv",
                 lambda c: {"chi": c, "rho": c}, [point])
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
    sp.add_argument("--x-min", type=float, default=bidding.DEFAULT_X_MIN)
    sp.add_argument("--h", type=float, default=bidding.DEFAULT_H)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_profile_build)

    sp = psub.add_parser("verify", help="check a stored profile")
    sp.add_argument("profile")
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
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, e.g. --samples
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
