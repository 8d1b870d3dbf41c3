"""Reference operators, a reference builder and identity checks for the tests.

Nothing in the library, its command line or its benchmark calls these; the
tests use them to check the library from outside its own code path.

* ``phi_pieces``, ``right_pieces`` and ``psi_pieces`` name the closed-form
  right parts at an (s, chi) or (s, K) the test picks, so an operator test
  can feed the inducing function phi or psi with or without a profile.
* ``apply_F`` and ``apply_F_pair`` apply each profile operator once, as a
  plain (Jacobi) map F.  The builds run the operators only inside the
  fixed-point driver, and the pair build sweeps Gauss-Seidel, so these are
  the references for order preservation, F(x) = x at a built profile and
  the one-sweep monotone rise.
* ``build_profile_backward`` builds a bidding profile by a backward march
  over unit blocks: no sweeps, so it cross-checks ``build_profile`` by an
  independent route.  It cannot serve the pair, whose backward march is
  unstable.
* ``check_bpb``, ``check_phi_lb`` and ``weighted_psi_integral`` are
  identities of the paper (the consistency integral, the lower bound on
  phi, the pair's consistency as a weighted psi integral) evaluated in
  closed form, and ``weighted`` is the piece transform only they use.
* ``invert_linear_strategy_chi`` inverts the linear-search strategy curve,
  to place points of the curve at a chosen consistency.
* ``pushforward_mass`` measures a reduction step profile's preimages, the
  identity that the quantile construction must meet.
* ``offnode_residual`` checks every condition of a profile's table between
  the nodes, on the Hermite model that answers queries, where ``verify``
  checks only the nodes; ``tools/outputs.py`` records it for every saved
  profile.

They import the library's private helpers so that each reference computes
exactly what it did inside the library: ``apply_F`` runs one step of
``_sweep``; ``apply_F_pair`` assembles its two Jacobi rows from
``ExcursionProfile.conditions`` by ``_at_nodes``, with the closure of
``_closure`` and the right-part integrals of ``_piece_cumints``, as the
sweeps do; ``build_profile_backward`` hands its left part to
``_profile``, the library's one profile constructor, as a loaded file
does; ``phi_pieces`` and its siblings cut ``_rising_pieces``; and
``offnode_residual`` reads each condition by ``_delayed_integral``.
"""

from __future__ import annotations

import math

import numpy as np

from profile_lab.analysis import (ConvergenceError, DomainError,
                                  bidding_tradeoff, bisect, linear_tradeoff,
                                  s_star)
from profile_lab.bidding import (ATOL_FLOOR, DEFAULT_H, DEFAULT_X_MIN,
                                 TOL_REL, BiddingProfile, _at_nodes,
                                 _closure, _delayed_integral,
                                 _piece_cumints, _profile, _rising_pieces,
                                 _sweep)
from profile_lab.excursion import ExcursionProfile
from profile_lab.grids import GridSpec, Piece, cumulative_integral, make_grid
from profile_lab.reduction import StepProfile


def phi_pieces(s: float, chi: float) -> tuple[Piece, ...]:
    """Right part on (0, 1]: max(1, s chi e^{s(x-1)}) as analytic pieces."""
    return _rising_pieces(s * chi, s)[:-1]


def right_pieces(s: float, chi: float) -> tuple[Piece, ...]:
    """Full right part on (0, inf): phi, then max(1, s chi) e^{s(x-1)}."""
    return _rising_pieces(s * chi, s)


def psi_pieces(s: float, K: float) -> tuple[Piece, ...]:
    """Right part of G+ on (0, 1]: max(1, M e^{2s(x-1)})."""
    return _rising_pieces(K, 2.0 * s)[:-1]


def apply_F(left: np.ndarray, phi: tuple[Piece, ...], rho: float,
            grid: GridSpec, s: float,
            kinks: tuple[int, ...] = ()) -> np.ndarray:
    """One application of the profile operator to a left part.

    Returns (F H)(x) = (1/rho) integral_{-inf}^{x+1} H at every grid node
    x <= 0, where H is ``left`` on the grid (endpoint-corrected trapezoid
    between nodes), ``phi`` on (0, 1] (closed form), and below the window
    carries the closure's mass s integral_0^1 e^{s(1-u)} C(x_min + u) du,
    C the integral of H from x_min.  ``kinks`` marks nodes where H has a
    derivative jump (x = -1 for profile iterates whose right part jumps at
    0).

    The operator is order-preserving for every s > 0: all quadrature and
    closure weights are non-negative.
    """
    (out,) = _sweep((phi,), rho, grid, s, (kinks,))(
        (np.asarray(left, float),), (np.empty(grid.m + 1),))
    return out


def apply_F_pair(left_plus: np.ndarray, left_minus: np.ndarray,
                 psi: tuple[Piece, ...], rho: float, grid: GridSpec,
                 s: float,
                 minus_kinks: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """One application of the pair operator on the left window.

    Below the window both rows carry the closure's summed mass
    (1/rho) integral_0^1 e^{2s(1-u)} C+(x_min + u) du, C+ the integral of
    the plus component from x_min, as the weights of ``_closure`` read it
    from the plus values.  The plus update integrates both
    components up to x; the minus update couples the plus component at x+1
    (capped at 0, with the closed-form psi integral beyond) with the minus
    component at x.  Order-preserving for the same reason as the scalar
    operator.
    """
    plus = np.asarray(left_plus, float)
    minus = np.asarray(left_minus, float)
    h = grid.h / rho  # the quadrature at step h / rho integrates G / rho
    cums = (cumulative_integral(plus, h),
            cumulative_integral(minus, h, kinks=minus_kinks))
    closure = _closure(ExcursionProfile, s, rho, grid) / rho
    tail_mass = float(closure @ plus[:closure.size])
    psi_cum = _piece_cumints(psi, grid) / rho
    return tuple(_at_nodes(row, cums, psi_cum, tail_mass, grid,
                           np.empty(grid.m + 1))
                 for row in ExcursionProfile.conditions)


def build_profile_backward(s: float, x_min: float = DEFAULT_X_MIN,
                           h: float = DEFAULT_H) -> BiddingProfile:
    """Cross-check construction by backward recursion over unit blocks.

    Starting from G(0) = chi/rho and the closed-form right part, each block
    [k-1, k) is filled via G(x) = G(k) - (1/rho) integral_{x+1}^{k+1} G,
    marching k = 0, -1, -2, ...  Purely a discretization-independent oracle
    for :func:`profile_lab.bidding.build_profile`; it needs no iteration but
    loses relative accuracy deep in the tail, so keep the window moderate.
    """
    point = bidding_tradeoff(s)
    rho, chi = point.rho, point.chi
    grid = make_grid(x_min, h)
    n, m, hh = grid.steps_per_unit, grid.m, grid.h
    phi_cum = _piece_cumints(phi_pieces(s, chi), grid)

    val = np.empty(m + 1)
    val[m] = chi / rho
    # block k = 0: the integral runs over (x+1, 1] subset of (0, 1]
    lo = max(0, m - n)
    idx = np.arange(lo, m)
    val[idx] = val[m] - (phi_cum[n] - phi_cum[idx + n - m]) / rho
    # blocks k <= -1: the integral runs over [x+1, k+1] inside block k
    k = 0
    while lo > 0:
        k -= 1
        top = m + (k + 1) * n          # index of position k+1
        block = val[top - n: top + 1]  # values on [k, k+1]
        # suffix integral inside the block: S[j] = integral_{x_j}^{k+1}
        cum = cumulative_integral(block, hh)
        suffix = cum[-1] - cum
        new_lo = max(0, lo - n)
        idx = np.arange(new_lo, lo)
        val[idx] = val[top - n] - suffix[idx + n - (top - n)] / rho
        neg = np.nonzero(val[idx] < 0.0)[0]
        if neg.size:
            bad = grid.positions[idx[neg[-1]]]
            raise ConvergenceError(
                f"backward recursion produced a negative value at x={bad:.6f}; "
                "the grid is too coarse or the window too deep for this s")
        lo = new_lo
    return _profile(BiddingProfile, s, grid, (val,))


def weighted(piece: Piece, w: float) -> Piece:
    """The piece e^{-w x} * piece(x) on the same interval.

    Products of rate 0 fold into ``level``, so :meth:`Piece.integral` never
    divides by a zero rate.
    """
    level = 0.0
    terms = []
    for a, r, x0 in ((piece.level, 0.0, 0.0),) + piece.terms:
        a, r = a * math.exp(-w * x0), r - w
        if abs(r) < 1e-14:
            level += a
        else:
            terms.append((a, r, x0))
    return Piece(lo=piece.lo, hi=piece.hi, level=level, terms=tuple(terms))


def check_bpb(p: BiddingProfile) -> tuple[float, float]:
    """Consistency identity for tight profiles.

    Returns (lhs, rhs) with lhs the realized consistency integral and
    rhs = e^s integral_0^1 e^{-sx} phi(x) dx in closed form.  Tightness
    forces lhs >= rhs, with equality when the profile decays fast enough
    below the window (true for built profiles).
    """
    lhs = p.g.integral_to(1.0)
    rhs = math.exp(p.s) * sum(weighted(piece, p.s).integral(0.0, 1.0)
                              for piece in phi_pieces(p.s, p.chi))
    return lhs, rhs


def check_phi_lb(p: BiddingProfile) -> float:
    """Largest violation of phi(x) >= max(1, s chi e^{s(x-1)}) on (0, 1].

    Returns max over 2001 points of (bound - phi); non-positive values mean
    the bound holds.  Built profiles satisfy it with equality.
    """
    xs = np.linspace(1e-9, 1.0, 2001)
    phi_vals = p.g.value(xs)
    bound = np.maximum(1.0, p.s * p.chi * np.exp(p.s * (xs - 1.0)))
    return float(np.max(bound - phi_vals))


def weighted_psi_integral(s: float, psi: tuple[Piece, ...]) -> float:
    """Closed form of (1/(1+e^s)) integral_0^1 (e^{2s(1-x)} - 1) psi(x) dx.

    The minimal tight extension's consistency equals this weighted integral
    of the inducing function; used as an independent identity check on the
    converged left parts.
    """
    two_s = 2.0 * s
    total = sum(math.exp(two_s) * weighted(piece, two_s).integral(0.0, 1.0)
                - piece.integral(0.0, 1.0) for piece in psi)
    return total / (1.0 + math.exp(s))


def invert_linear_strategy_chi(chi_ls: float) -> float:
    """Parameter s in (0, s_*] whose strategy consistency 1+2chi(s) = chi_ls."""
    hi = s_star()
    top = linear_tradeoff(hi)[1].chi
    if not (1.0 < chi_ls <= top + 1e-12):
        raise DomainError(
            f"linear-search strategy chi must lie in (1, {top:.6f}], got {chi_ls}")
    return bisect(lambda s: linear_tradeoff(s)[1].chi - chi_ls, 1e-8, hi)


def pushforward_mass(sp: StepProfile, lo: float, hi: float) -> float:
    """Lebesgue measure of G^{-1}([lo, hi]) for the step profile ``sp``:
    the total width of its step values in [lo, hi], exact for step
    functions."""
    return sum(width for value, width in sp.below + sp.above
               if lo <= value <= hi)


def offnode_residual(
        p: BiddingProfile | ExcursionProfile) -> tuple[float, float]:
    """(worst |C(x) - rho G(x)| / (rho G(x) + ATOL_FLOOR / TOL_REL), x) over
    every condition of the profile, at 15 evenly spaced points inside every
    cell of [x_min, 0].

    The residual is that of the stored model (value and integrals of the
    Hermite interpolant), normalised as ``verify`` normalises its node
    residuals, so it shows how far the model that answers queries is from
    tight between the nodes.
    """
    gs, u = p.components, np.arange(1, 16) / 16.0
    x = (gs[0].x_min + (np.arange(gs[0].grid.m)[:, None] + u) * gs[0].h)
    x = x.ravel()
    worst, at = 0.0, math.nan
    for cond in p.conditions:
        rho_g = p.rho * gs[cond.right].value(x)
        rel = (np.abs(_delayed_integral(p, cond, x) - rho_g)
               / (rho_g + ATOL_FLOOR / TOL_REL))
        k = int(np.argmax(rel))
        if rel[k] > worst:
            worst, at = float(rel[k]), float(x[k])
    return worst, at
