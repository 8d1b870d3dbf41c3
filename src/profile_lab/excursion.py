"""Construction and verification of excursion profiles for linear search.

An excursion profile is a pair G± of non-decreasing, left-continuous,
positive functions driving the alternating search

    ... +G+(n+U) -> -G-(n+U) -> +G+(n+1+U) -> ...

for a shared U ~ Unif(0, 1].  With A± the integrals of G± from -inf, its
delayed conditions, the table ``ExcursionProfile.conditions`` that the
evaluator of :mod:`profile_lab.bidding` reads, are

    C+(x) = A+(x) + A-(x)   <= rho G+(x)
    C-(x) = A+(x+1) + A-(x) <= rho G-(x)

at every x.  The profile is (rho, chi)-valid if also G+ < 1 left of 0 and
>= 1 right of 0 (offset) and C+(0) <= chi; the driven strategy is then
(1+2 rho)-robust and (1+2 chi)-consistent, and costs |T| + 2 C±(tau±(|T|))
at a target T.  ``verify_excursion`` is :func:`profile_lab.bidding.verify`,
which checks either problem from its table: the condition C- is ``tight``,
so it must also hold with equality on x > 0 and at 0+, where it is the
boundary identity C+(0) + integral_0^1 G+ = rho G-(0+) = rho K e^{-s}.

The near-optimal profile at parameter s has closed-form right parts

    G+(x) = max(1, M e^{2s(x-1)}),
    G-(x) = M e^s e^{2s(x-1)} + (K - M) e^{-s} e^{x/rho},

with K = K(s), M = max(1, K), and its left parts are the minimal tight
extension: the least fixed point on x <= 0 of the pair operator
(F H)± = C±/rho, with C± those of H and G+ pinned to its right part psi on
(0, 1].  The build reaches it from zero by block Gauss-Seidel sweeps
(:func:`_pair_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (DomainError, conjugate_rate_linear, linear_tradeoff,
                       solve_K)
from .bidding import (DEFAULT_H, DEFAULT_MAX_ITER, DEFAULT_X_MIN, Condition,
                      _delayed_integral, _iterate_to_fixed_point,
                      _piece_cumints, _rising_pieces, _shifted_integrals,
                      _unit_breaks)
from .bidding import verify as verify_excursion
from .grids import GridFunction, GridSpec, Piece, cumulative_integral, make_grid

__all__ = [
    "ExcursionProfile",
    "build_excursion_profile",
    "C_plus",
    "C_minus",
    "verify_excursion",
    "strategy_cost_linear",
]


@dataclass
class ExcursionProfile:
    """Excursion profile pair on a shared grid.

    ``chi`` is the closed-form curve value; the realized consistency
    C+(0) of the stored pair agrees with it up to quadrature error.
    ``K`` is the profile scale from the curve construction and
    ``M = max(1, K)`` the right-part plateau height.  Both components share
    one grid so the coupling of G+ at x+1 with G- at x never interpolates.
    Immutable after construction; all queries are read-only.
    """

    s: float
    rho: float
    chi: float
    K: float
    M: float
    g_plus: GridFunction
    g_minus: GridFunction
    iterations: int = 0
    final_delta: float = math.nan

    conditions = (
        Condition("C+ <= rho G+", ((0, 0), (1, 0)), 0, tight=False),
        Condition("C- <= rho G-", ((0, 1), (1, 0)), 1, tight=True))
    names = ("G+", "G-")

    @property
    def components(self) -> tuple[GridFunction, ...]:
        return (self.g_plus, self.g_minus)


def _pair_sweep(psi: tuple[Piece, ...], rho: float, grid: GridSpec,
                tail_rate: float, minus_kinks: tuple[int, ...]):
    """One block Gauss-Seidel sweep of the pair operator as the
    ``step(x, out)`` of the fixed-point iteration.

    The sweep writes G+ = (F (G+, G-))+ into ``out[0]``, then
    G- = (F (new G+, G-))- into ``out[1]``: the minus update already reads
    the new plus component.  Below the window both integrands carry the
    exponential tails ``left[0] e^{tail_rate (x - x_min)}``.  Each
    half-update preserves order (every quadrature weight is non-negative,
    and the tail mass increases with each component's value at x_min), so
    sweeps from zero still rise to the same minimal fixed point as plain
    (Jacobi) applications of F, and for this nonnegative splitting they
    contract no slower than Jacobi sweeps (Stein-Rosenberg).  The minus
    update needs A+, the integral of the new G+; it stays in a buffer of
    the step's own and serves the next sweep's plus update, so a sweep
    costs two quadratures, as a Jacobi sweep does.  A+ is recomputed only
    when ``x`` is not the pair the step wrote last: on the first sweep and
    after an extrapolation jump.
    """
    psi_cum = _piece_cumints(psi, grid) / rho
    h = grid.h / rho  # the quadrature at step h / rho integrates G / rho
    A_plus, A_minus = np.empty(grid.m + 1), np.empty(grid.m + 1)
    tail = tail_rate * rho  # tail mass below x_min is left[0] / tail
    wrote = None  # the plus array whose integral A_plus holds

    def step(x, out):
        nonlocal wrote
        (plus, minus), (new_plus, new_minus) = x, out
        if plus is not wrote:
            cumulative_integral(plus, h, out=A_plus)
        cumulative_integral(minus, h, kinks=minus_kinks, out=A_minus)
        np.add(A_plus, A_minus, out=new_plus)
        new_plus += (plus[0] + minus[0]) / tail
        cumulative_integral(new_plus, h, out=A_plus)
        wrote = new_plus
        # A+ at min(x_i + 1, 0) plus the psi mass on (0, x_i + 1]
        _shifted_integrals(A_plus, (new_plus[0] + minus[0]) / tail, psi_cum,
                           grid, out=new_minus)
        new_minus += A_minus
        return out

    return step


def _excursion_profile(s: float, grid: GridSpec,
                       left: tuple[np.ndarray, np.ndarray] | None,
                       max_iter: int = DEFAULT_MAX_ITER) -> ExcursionProfile:
    """The excursion profile at ``s`` with left parts ``left`` on ``grid``,
    the one place where s fixes rho, chi, K, M, right parts, tail, kinks and
    slope breaks.

    ``left`` is the pair ``(left_plus, left_minus)``, or None to sweep from
    zero to ``bidding.SWEEP_TOL`` (at most ``max_iter`` sweeps).  At
    s = s_* (K reaches e^{2s}), where the pair equation is doubly resonant,
    the exact pair G+ = e^{2s x}, G- = e^s G+ replaces the sweeps.
    """
    exc, _ = linear_tradeoff(s)
    K = solve_K(s)
    M = max(1.0, K)
    plus_right = _rising_pieces(K, 2.0 * s)
    iterations, final_delta = 0, math.nan
    if K >= math.exp(2.0 * s) * (1.0 - 1e-12):
        tail_rate, minus_kinks, breaks = 2.0 * s, (), ()
        if left is None:
            plus = np.exp(2.0 * s * grid.positions)
            left, final_delta = (plus, math.exp(s) * plus), 0.0
    else:
        tail_rate = conjugate_rate_linear(s)
        minus_kinks = (grid.m - grid.steps_per_unit,)  # G- kinks at x = -1
        # so G+'' jumps at -1 and G-'s third derivative at -2
        breaks = _unit_breaks(grid)
    if left is None:
        left, iterations, final_delta = _iterate_to_fixed_point(
            _pair_sweep(plus_right, exc.rho, grid, tail_rate, minus_kinks),
            (np.zeros(grid.m + 1),) * 2, max_iter)
    left_plus, left_minus = left
    # G-'s (K - M) term (K < 1 only) is negative, yet G- stays positive and
    # non-decreasing because 1/rho < 2s; G-(0+) = K e^{-s}
    minus_terms = ((M * math.exp(-s), 2.0 * s, 0.0),) + (
        (((K - M) * math.exp(-s), 1.0 / exc.rho, 0.0),) if K != M else ())
    g_plus = GridFunction(grid=grid, left_values=left_plus,
                          right_pieces=plus_right, tail_rate=tail_rate,
                          slope_breaks=breaks)
    g_minus = GridFunction(grid=grid, left_values=left_minus,
                           right_pieces=(Piece(lo=0.0, hi=math.inf,
                                               terms=minus_terms),),
                           tail_rate=tail_rate, kink_nodes=minus_kinks,
                           slope_breaks=breaks)
    return ExcursionProfile(s=s, rho=exc.rho, chi=exc.chi, K=K, M=M,
                            g_plus=g_plus, g_minus=g_minus,
                            iterations=iterations, final_delta=final_delta)


def build_excursion_profile(s: float, x_min: float = DEFAULT_X_MIN,
                            h: float = DEFAULT_H,
                            max_iter: int = DEFAULT_MAX_ITER) -> ExcursionProfile:
    """Construct the near-optimal excursion profile at parameter s.

    Right parts are the closed forms with K = K(s); left parts are the
    minimal tight extension, the monotone limit of Gauss-Seidel sweeps of
    the pair operator from zero, swept until one sweep changes them by at
    most ``bidding.SWEEP_TOL``.  At the endpoint s = s_* the profile is the
    exact exponential pair.
    """
    return _excursion_profile(s, make_grid(x_min, h), None, max_iter)


# -- cumulative search costs ----------------------------------------------


def C_plus(p: ExcursionProfile, x: float) -> float:
    """C+(x): total distance committed before a plus-excursion past x."""
    return _delayed_integral(p, p.conditions[0], x)


def C_minus(p: ExcursionProfile, x: float) -> float:
    """C-(x): total distance committed before a minus-excursion past x."""
    return _delayed_integral(p, p.conditions[1], x)


def strategy_cost_linear(p: ExcursionProfile, target: float) -> float:
    """Expected search cost for a target at signed position ``target``.

    |T| + 2 C+(tau+(|T|)) on the positive side, |T| + 2 C-(tau-(|T|)) on
    the negative side, with tau± the supremum of the strict sublevel set of
    the corresponding component.
    """
    x = abs(target)
    if not 0.0 < x < math.inf:
        raise DomainError(f"target must be nonzero and finite, got {target!r}")
    cond = p.conditions[target < 0.0]
    return x + 2.0 * _delayed_integral(p, cond,
                                       p.components[cond.right].tau(x))
