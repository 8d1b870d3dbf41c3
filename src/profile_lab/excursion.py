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
(0, 1].  The build reaches it from zero by the table sweep of
:mod:`profile_lab.bidding`, whose rows in the table's order make a block
Gauss-Seidel sweep (:func:`_pair_sweep`): the C- row reads the new G+.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (DomainError, conjugate_rate_linear, linear_tradeoff,
                       solve_K)
from .bidding import (DEFAULT_H, DEFAULT_MAX_ITER, DEFAULT_X_MIN, Condition,
                      _delayed_integral, _profile, _rising_pieces,
                      _table_sweep)
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


# The lower end of the profiles' domain: below it G-'s right part
# e^{-s} (e^{2sx} + (K - 1) e^{x/rho}) loses its digits as K -> 0, and
# default builds fail verify (at s = 3e-12 tightness at 0+ reads 1.5e-5)
S_MIN = 1e-10


def _pair_closed_form(s: float):
    """What s fixes of the excursion profile (see :func:`bidding._profile`):
    at s = s_* (K reaches e^{2s}), where the pair equation is doubly
    resonant, the left parts are G+ = e^{2s x} and G- = e^s G+.  Raises
    DomainError below ``S_MIN``."""
    exc, _ = linear_tradeoff(s)
    if not s >= S_MIN:
        raise DomainError(f"excursion profiles need s >= {S_MIN}, got {s}")
    K = solve_K(s)
    M = max(1.0, K)
    # G-'s (K - M) term (K < 1 only) is negative, yet G- stays positive and
    # non-decreasing because 1/rho < 2s; G-(0+) = K e^{-s}
    minus_terms = ((M * math.exp(-s), 2.0 * s, 0.0),) + (
        (((K - M) * math.exp(-s), 1.0 / exc.rho, 0.0),) if K != M else ())
    rights = (_rising_pieces(K, 2.0 * s),
              (Piece(lo=0.0, hi=math.inf, terms=minus_terms),))
    endpoint = K >= math.exp(2.0 * s) * (1.0 - 1e-12)
    return (exc.rho, exc.chi, (K, M), rights,
            (1.0, math.exp(s)) if endpoint else None)


def _pair_mode(rho: float, lam: complex, firsts: tuple[float, float],
               J: complex) -> complex:
    """The coefficient at x_min of the mode e^{lam x} in G+, a root of
    (rho lam - 1)^2 = e^lam, projected from G+(x_min), G-(x_min) and
    J = integral_0^1 e^{-lam u} G+(x_min + u) du.

    The mode's G- is r = rho lam - 1 times its G+.  Its invariant Q (see
    ``ExcursionProfile.closure``) is D = r (2 rho + 1 - rho lam) times the
    mode's coefficient in A+; by parts and the two rows at x_min, lam Q
    e^{lam x_min} = rho r G+(x_min) + rho G-(x_min) - e^lam J, with
    e^lam = r^2."""
    r = rho * lam - 1.0
    return ((rho * (r * firsts[0] + firsts[1]) - r * r * J)
            / (r * (2.0 * rho + 1.0 - rho * lam)))


def _pair_sweep(rights: tuple[tuple[Piece, ...], ...], rho: float,
                grid: GridSpec, s: float, kinks: tuple[tuple[int, ...], ...]):
    """One block Gauss-Seidel sweep of the pair operator, G+ = C+/rho and
    then G- = C-/rho from the new G+, as the two-row
    :func:`bidding._table_sweep` of ``ExcursionProfile``."""
    return _table_sweep(ExcursionProfile, rights, rho, grid, s, kinks,
                        cumulative_integral)


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
    # the components whose tails _profile derived; verify projects others
    derived: tuple = field(default=(), init=False, repr=False, compare=False)

    conditions = (
        Condition("C+ <= rho G+", ((0, 0), (1, 0)), 0, tight=False),
        Condition("C- <= rho G-", ((0, 1), (1, 0)), 1, tight=True))
    names = ("G+", "G-")
    # its file (see serialize)
    problem, fields, blocks = "linsearch", ("K", "M"), ("g_plus", "g_minus")
    # the slow root and scale of the tail closure at (s, rho) (see
    # bidding._closure).  Both rows add the mass below x_min,
    # S = M+ + M- = (1/rho) integral_0^1 e^{2s(1-u)} C+(x_min + u) du, C+
    # the integral of G+ from x_min.  The slow modes are lam = 0 and 2s,
    # roots of (rho lam - 1)^2 = e^lam; for each, Q(x) = e^{-lam x}
    # (rho (rho lam - 1) A+(x) + rho A-(x) - integral_0^1 e^{lam(1-u)}
    # A+(x+u) du) is constant along the pair equation and 0 on the minimal
    # profile, and rho (e^s - 1) = (e^{2s} - 1)/(2s) reduces Q_{2s}(x_min)
    # = 0 to S (Q_0 splits it: M+ = integral_0^1 (e^{2s(1-u)} - 1) C+ du
    # / (2 rho + 1)); by parts, S = integral_0^1 (e^{2s(1-u)} - 1)
    # G+(x_min + u) du / (2 s rho)
    closure = staticmethod(lambda s, rho: (2.0 * s, 0.5 / (s * rho)))
    # the real rate of the tails (see bidding._tails): the conjugate root of
    # (rho lam - 1)^2 = e^lam
    conjugate_rate = staticmethod(conjugate_rate_linear)
    # its complex roots lam = 2 log(rho lam - 1) + 2 pi i k (k >= 1) are
    # the fixed points of this branch, a mode's coefficient in G+ at x_min
    # is its projection (_pair_mode), and its G- is rho lam - 1 times its
    # G+
    branch = staticmethod(lambda rho, lam: (2.0 * cmath.log(rho * lam - 1.0),
                                            2.0 * rho / (rho * lam - 1.0)))
    mode = staticmethod(_pair_mode)
    factors = staticmethod(lambda rho, lam: (1.0, rho * lam - 1.0))
    # what s fixes of the profile, and the sweep that builds its left parts
    # (see bidding._profile)
    closed_form = staticmethod(_pair_closed_form)
    sweep = staticmethod(_pair_sweep)

    @property
    def components(self) -> tuple[GridFunction, ...]:
        return (self.g_plus, self.g_minus)


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
    return _profile(ExcursionProfile, s, make_grid(x_min, h), None, max_iter)


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
