"""Construction and verification of excursion profiles for linear search.

An excursion profile is a pair G± of non-decreasing, left-continuous,
positive functions driving the alternating search

    ... +G+(n+U) -> -G-(n+U) -> +G+(n+1+U) -> ...

for a shared U ~ Unif(0, 1].  With

    C+(x) = integral_{-inf}^{x} G+ + integral_{-inf}^{x} G-
    C-(x) = integral_{-inf}^{x+1} G+ + integral_{-inf}^{x} G-

the profile is (rho, chi)-valid if G+ < 1 left of 0 and >= 1 right of 0
(plus-offset), C± <= rho G± everywhere, and C+(0) <= chi; the driven
strategy is then (1+2 rho)-robust and (1+2 chi)-consistent.

The near-optimal profile at parameter s has closed-form right parts

    G+(x) = max(1, M e^{2s(x-1)}),
    G-(x) = M e^s e^{2s(x-1)} + (K - M) e^{-s} e^{x/rho},

with K = K(s), M = max(1, K), and its left parts are the minimal tight
extension: the least fixed point on x <= 0 of the pair operator

    (F H)+(x) = (1/rho) ( A+(x) + A-(x) )
    (F H)-(x) = (1/rho) ( A+(min(x+1, 0)) + int_0^{max(x+1,0)} psi + A-(x) )

where psi = G+ restricted to (0, 1] and A± are the integrals of H± up to
x.  The build reaches it from zero by block Gauss-Seidel sweeps: each sweep
applies (F H)+ and then (F H)- with the new plus component in A+.  Both
halves preserve order, so the sweeps rise monotonically to the same limit
as plain (Jacobi) applications of F, in about a third fewer sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (DomainError, conjugate_rate_linear, linear_tradeoff,
                       solve_K)
from .bidding import (DEFAULT_H, DEFAULT_MAX_ITER, DEFAULT_X_MIN, TOL_REL,
                      VerificationReport, _assemble_report,
                      _iterate_to_fixed_point, _piece_cumints,
                      _right_checkpoints, _rising_pieces, _shifted_integrals)
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

    @property
    def psi(self) -> tuple[Piece, ...]:
        """G+ restricted to (0, 1], the inducing function."""
        return tuple(p for p in self.g_plus.right_pieces if p.lo < 1.0)


def _pair_integrals(A_plus: np.ndarray, A_minus: np.ndarray,
                    tail_mass: float, psi_cum: np.ndarray,
                    grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(C+(x_i), C-(x_i)) at every grid node x_i <= 0, from A± the integrals
    of G± from x_min up to the nodes and ``tail_mass`` the mass of both
    below x_min."""
    c_plus = A_plus + A_minus
    c_plus += tail_mass
    # A+ at min(x_i + 1, 0) plus the psi mass on (0, x_i + 1]
    c_minus = _shifted_integrals(A_plus, tail_mass, psi_cum, grid)
    c_minus += A_minus
    return c_plus, c_minus


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
    the one place where s fixes rho, chi, K, M, right parts, tail and kinks.

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
        tail_rate, minus_kinks = 2.0 * s, ()
        if left is None:
            plus = np.exp(2.0 * s * grid.positions)
            left, final_delta = (plus, math.exp(s) * plus), 0.0
    else:
        tail_rate = conjugate_rate_linear(s)
        minus_kinks = (grid.m - grid.steps_per_unit,)  # G- kinks at x = -1
    if left is None:
        left, iterations, final_delta = _iterate_to_fixed_point(
            _pair_sweep(plus_right[:-1], exc.rho, grid, tail_rate,
                        minus_kinks),
            (np.zeros(grid.m + 1),) * 2, max_iter)
    left_plus, left_minus = left
    # G-'s (K - M) term (K < 1 only) is negative, yet G- stays positive and
    # non-decreasing because 1/rho < 2s; G-(0+) = K e^{-s}
    minus_terms = ((M * math.exp(-s), 2.0 * s, 0.0),) + (
        (((K - M) * math.exp(-s), 1.0 / exc.rho, 0.0),) if K != M else ())
    g_plus = GridFunction(grid=grid, left_values=left_plus,
                          right_pieces=plus_right, tail_rate=tail_rate)
    g_minus = GridFunction(grid=grid, left_values=left_minus,
                           right_pieces=(Piece(lo=0.0, hi=math.inf,
                                               terms=minus_terms),),
                           tail_rate=tail_rate, kink_nodes=minus_kinks)
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
    return p.g_plus.integral_to(x) + p.g_minus.integral_to(x)


def C_minus(p: ExcursionProfile, x: float) -> float:
    """C-(x): total distance committed before a minus-excursion past x."""
    return p.g_plus.integral_to(x + 1.0) + p.g_minus.integral_to(x)


def strategy_cost_linear(p: ExcursionProfile, target: float) -> float:
    """Expected search cost for a target at signed position ``target``.

    |T| + 2 C+(tau+(|T|)) on the positive side, |T| + 2 C-(tau-(|T|)) on
    the negative side, with tau± the supremum of the strict sublevel set of
    the corresponding component.
    """
    x = abs(target)
    if not 0.0 < x < math.inf:
        raise DomainError(f"target must be nonzero and finite, got {target!r}")
    if target > 0.0:
        return x + 2.0 * C_plus(p, p.g_plus.tau(x))
    return x + 2.0 * C_minus(p, p.g_minus.tau(x))


def _pair_residuals(p: ExcursionProfile) -> tuple[np.ndarray, np.ndarray]:
    """(C+ - rho G+, C- - rho G-) at every grid node x <= 0."""
    gp, gm = p.g_plus, p.g_minus
    r_plus, r_minus = _pair_integrals(gp._cum, gm._cum,
                                      gp.tail_mass + gm.tail_mass,
                                      _piece_cumints(p.psi, gp.grid), gp.grid)
    r_plus -= p.rho * gp.left_values
    r_minus -= p.rho * gm.left_values
    return r_plus, r_minus


def verify_excursion(p: ExcursionProfile) -> VerificationReport:
    """Check the excursion-profile conditions and tightness identities.

    Both robustness conditions are checked at every grid node, on the
    integrals the build's sweep assembles, and on a log grid over (0, 10],
    at the tolerances of :func:`~profile_lab.bidding.verify` (``TOL_REL``,
    ``TOL_ABS`` and ``ATOL_FLOOR`` in ``bidding``).  Tightness (equality) is
    reported over x <= 0 for both components and over x > 0 for the minus
    component, where the construction is tight by design and must hold to
    ``TOL_REL``.  The boundary identity chi + integral_0^1 G+ = rho K e^{-s}
    is reported as an absolute residual and enforced at 1e-5.
    """
    rho = p.rho
    r_plus, r_minus = _pair_residuals(p)
    tight = max(float(np.max(np.abs(r_plus))), float(np.max(np.abs(r_minus))))

    gp, gm = p.g_plus, p.g_minus
    xs = _right_checkpoints(gp.h)
    gm_right = gm.value(xs)
    rho_gp, rho_gm = rho * gp.value(xs), rho * gm_right
    a_minus = gm.integrals_right(xs)
    r_plus_right = gp.integrals_right(xs) + a_minus - rho_gp
    r_minus_right = gp.integrals_right(xs + 1.0) + a_minus - rho_gm
    extra = []
    positive = gm_right > 0.0  # no relative tightness elsewhere
    if not positive.all():
        i = int(np.argmin(positive))  # report the first such x
        extra.append(f"positivity: G- must be positive, is "
                     f"{float(gm_right[i])!r} at x = {xs[i]:.6g}")
    minus_tight_right = float(np.max(
        np.abs(r_minus_right[positive]) / rho_gm[positive], initial=0.0))

    c0 = C_plus(p, 0.0)
    psi_mass = sum(piece.integral(0.0, 1.0) for piece in p.psi)
    boundary_resid = abs(c0 + psi_mass - rho * p.K * math.exp(-p.s))

    if minus_tight_right > TOL_REL:
        extra.append(
            f"tightness: C- = rho G- fails on x > 0 ({minus_tight_right:.3e})")
    if boundary_resid > 1e-5:
        extra.append(f"boundary identity residual {boundary_resid:.3e} > 1e-5")
    return _assemble_report(
        (gp, gm),
        np.concatenate([r_plus, r_minus, r_plus_right, r_minus_right]),
        np.concatenate([rho * np.maximum(gp.left_values, 0.0),
                        rho * np.maximum(gm.left_values, 0.0),
                        rho_gp, rho_gm]),
        float(c0 - p.chi), tight,
        consistency="C+(0)",
        offset="plus-offset: G+ must be < 1 left of 0 and >= 1 right of 0",
        monotone="monotone: G+ and G- must be non-decreasing and positive",
        extra_failures=tuple(extra))
