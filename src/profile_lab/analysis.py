"""Closed-form trade-off curves, lower bounds, and the root solvers behind them.

Everything in this module is a pure function of its scalar inputs.  The two
problems share a single parameterization style: a trade-off parameter ``s``
moves along the Pareto curve, with robustness decreasing and consistency
increasing in ``s``.

Online bidding (s in (0, 1]):
    rho(s) = e^s / s
    chi(s) = (e^s - 1)/s            for s <= ln 2
           = xi(s)/s                for s >= ln 2,
    where xi(s) in [1, e] solves xi * (2 - ln xi) = e^s.

Linear search (s in (0, s_*], s_* = 1 + W0(1/e)), excursion-profile level:
    rho(s) = (1 + e^s) / (2 s)
    chi(s) = (e^{2s} - 1 - 2s) / (2s (1+e^s))                 for s <= s_K
           = (e^{2s} + 1 + (1+K) ln K - 2K - 2s) / (2s(1+e^s)) for s >  s_K,
    with K = K(s) from :func:`solve_K`.  A strategy driven by such a profile
    achieves the pair (1 + 2 rho, 1 + 2 chi).

Each rho grows as 1/s; where it overflows, below about 5.6e-309 (1.1e-308
for the linear-search strategy's 1 + 2 rho), the formulas raise DomainError.

Every root is bracketed from its domain and bisected by :func:`bisect` to
neighbouring doubles, by the same search that ``GridFunction.tau`` runs; no
solver has a tolerance or an iteration cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "TradeoffPoint",
    "LowerBoundPoint",
    "DomainError",
    "ConvergenceError",
    "bisect",
    "lambert_w0",
    "solve_xi_bidding",
    "bidding_tradeoff",
    "s_star",
    "solve_sK",
    "solve_K",
    "linear_tradeoff",
    "linear_lower_bound",
    "conjugate_rate_bidding",
    "conjugate_rate_linear",
    "rho_ls_star",
    "LN2",
]

LN2 = math.log(2.0)

class DomainError(ValueError):
    """Argument outside the domain where a formula or solver is defined."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class TradeoffPoint:
    """One point on a robustness-consistency curve."""

    s: float
    rho: float
    chi: float


@dataclass(frozen=True)
class LowerBoundPoint:
    """One point on the linear-search lower-bound curve.

    ``rho_ls`` is clamped from below by the classical competitive ratio
    ``1 + 1/W0(1/e)`` (no strategy can beat it at any consistency), while
    ``rho_ls_raw`` keeps the unclamped formula value.
    """

    t: float
    chi_ls: float
    rho_ls: float
    rho_ls_raw: float


def _finite_rho(rho: float, what: str, s: float) -> float:
    """``rho`` of the formula named ``what`` at ``s``; DomainError where it
    overflows, about 1/s at s below about 5.6e-309."""
    if math.isinf(rho):
        raise DomainError(f"{what}: rho overflows at {s!r}")
    return rho


def _level_search(f, target: float, lo: float, hi: float) -> float:
    """Right end of the bracket (lo, hi] of the first x with f(x) >= target
    (f non-decreasing, f(lo) < target <= f(hi)), bisected while it is wider
    than 1e-16 max(1, |hi|) and its midpoint lies strictly inside: from
    |hi| >= 0.5 on, until lo and hi are neighbouring doubles."""
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-16 * max(1.0, abs(hi)) and lo < mid < hi:
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


def bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi] by bisection; endpoints must straddle zero.

    ``f`` must be monotone or at least single-signed on each side of the
    root.  An endpoint that is already an exact zero is returned as-is;
    otherwise the result is the end, on f(hi)'s side, of a bracket that
    :func:`_level_search` narrows to neighbouring doubles (to 1e-16 below
    |x| = 0.5).  The signs are compared, never multiplied, so values of any
    size keep theirs.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo < 0.0 < fhi:
        return _level_search(f, 0.0, lo, hi)
    if fhi < 0.0 < flo:
        return _level_search(lambda x: -f(x), 0.0, lo, hi)
    raise ConvergenceError(
        f"bisection bracket [{lo}, {hi}] does not straddle zero "
        f"(f(lo)={flo:.3e}, f(hi)={fhi:.3e})")


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function: w with w e^w = z, w >= -1.

    Bisection on the monotone map w -> w e^w for w >= -1, followed by two
    Halley steps to polish to full double precision.  The root lies between
    0 and z for z > 0 (e^w >= 1) and below 709, where w e^w overflows; for
    z <= 0 it lies between -1 and z (e^w <= 1), an end when z is 0 or -1/e.
    """
    if not -math.exp(-1.0) <= z < math.inf:
        raise DomainError(f"lambert_w0 requires z in [-1/e, inf), got {z}")
    lo, hi = (0.0, min(z, 709.0)) if z > 0.0 else (-1.0, z)
    w = bisect(lambda t: t * math.exp(t) - z, lo, hi)
    for _ in range(2):
        ew = math.exp(w)
        f = w * ew - z
        if w + 1.0 == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        if denom != 0.0:
            w -= f / denom
    return w


def solve_xi_bidding(s: float) -> float:
    """Unique xi in [1, e] with xi (2 - ln xi) = e^s, for s in [ln 2, 1].

    The map xi -> xi (2 - ln xi) is strictly increasing on [1, e], sending
    1 -> 2 and e -> e, so a plain bisection is safe.
    """
    if not (LN2 - 1e-12 <= s <= 1.0 + 1e-12):
        raise DomainError(f"solve_xi_bidding requires s in [ln 2, 1], got {s}")
    s = min(max(s, LN2), 1.0)
    target = math.exp(s)
    return bisect(lambda xi: xi * (2.0 - math.log(xi)) - target, 1.0, math.e)


def bidding_tradeoff(s: float) -> TradeoffPoint:
    """Optimal (rho, chi) pair for online bidding at trade-off parameter s."""
    if not (0.0 < s <= 1.0):
        raise DomainError(f"bidding trade-off requires s in (0, 1], got {s}")
    rho = _finite_rho(math.exp(s) / s, "bidding trade-off", s)
    if s < LN2:
        chi = math.expm1(s) / s  # e^s - 1 would cancel as s -> 0
    else:
        chi = solve_xi_bidding(s) / s
    return TradeoffPoint(s=s, rho=rho, chi=chi)


@functools.cache
def s_star() -> float:
    """Right endpoint of the linear-search parameter range: 1 + W0(1/e)."""
    return 1.0 + lambert_w0(math.exp(-1.0))


@functools.cache
def rho_ls_star() -> float:
    """Classical optimal competitive ratio for linear search, 1 + 1/W0(1/e)."""
    return 1.0 + 1.0 / lambert_w0(math.exp(-1.0))


@functools.cache
def solve_sK() -> float:
    """Unique positive root s_K of e^s (e^{2s} - 1 + 2s e^s) = (1 + e^s)^2.

    This is where the closed-form branch of K(s) reaches 1; numerically
    s_K ~ 0.5878.
    """

    def f(s: float) -> float:
        es = math.exp(s)
        return es * (es * es - 1.0 + 2.0 * s * es) - (1.0 + es) ** 2

    return bisect(f, 1e-8, 1.0)


def _linear_s(s: float, what: str) -> float:
    """s for a linear-search formula named ``what``: s in (0, s_*] up to a
    1e-12 slack above, clamped to s_*."""
    ss = s_star()
    if not (0.0 < s <= ss + 1e-12):
        raise DomainError(f"{what} requires s in (0, s_*], got {s}")
    return min(s, ss)


# Below it, the linear-search chi and K take e^{2s} - 1 - 2s and e^{2s} - 1
# in forms that do not cancel as s -> 0; from it on, the figures' lower
# end, they keep the closed forms, whose values the saved curves and
# profiles hold.
_SMALL_S = 0.0415


def _excess_over_2s(s: float) -> float:
    """(e^{2s} - 1 - 2s)/(2s) for 0 < s < ``_SMALL_S`` by its series
    sum_{k=1..10} (2s)^k/(k+1)! in Horner form: every term is positive, the
    ten leave a remainder below 1e-19 relative, and nothing squares s,
    which would underflow at s = 1e-300."""
    u = 2.0 * s
    acc = 0.0
    for k in range(10, 0, -1):
        acc = (acc + 1.0 / math.factorial(k + 1)) * u
    return acc


def _K_closed_form(s: float) -> float:
    es = math.exp(s)
    e2m1 = math.expm1(2.0 * s) if s < _SMALL_S else es * es - 1.0
    return es * (e2m1 + 2.0 * s * es) / (1.0 + es) ** 2


def _K_equation(s: float, xi: float) -> float:
    es = math.exp(s)
    return (es - xi) * math.log(xi) + xi * (3.0 + 1.0 / es) - es * (es + 2.0 * s - 1.0)


@functools.lru_cache(maxsize=1)
def solve_K(s: float) -> float:
    """Excursion-profile scale K(s) on (0, s_*].

    For s <= s_K the closed form e^s (e^{2s} - 1 + 2s e^s)/(1+e^s)^2 applies;
    beyond s_K, K(s) is the unique root xi in [1, e^{2s}] of
    (e^s - xi) ln xi + xi (3 + e^{-s}) = e^s (e^s + 2s - 1), found by
    bisection (the left side minus the right is strictly increasing in xi
    on that interval).  K is continuous and strictly increasing.  The last
    K is kept, so a caller that needs K next to :func:`linear_tradeoff` at
    the same s (a curve row, a profile build) solves it once.
    """
    s = _linear_s(s, "solve_K")
    sk = solve_sK()
    if s <= sk:
        return _K_closed_form(s)
    hi = math.exp(2.0 * s)
    # At s = s_* the root sits tangentially at xi = e^{2s}: the bracket value
    # 2 e^s (1 + (1-s) e^s) is >= 0 analytically but may round below zero.
    if _K_equation(s, hi) <= 0.0:
        return hi
    return bisect(lambda xi: _K_equation(s, xi), 1.0, hi)


def linear_tradeoff(s: float) -> tuple[TradeoffPoint, TradeoffPoint]:
    """(excursion, strategy) trade-off points for linear search at s.

    The excursion point is the (rho, chi) pair of the underlying profile;
    the strategy point is the realized competitive pair (1+2rho, 1+2chi).
    """
    s = _linear_s(s, "linear trade-off")
    es = math.exp(s)
    rho = (1.0 + es) / (2.0 * s)
    sk = solve_sK()
    if s < _SMALL_S:
        chi = _excess_over_2s(s) / (1.0 + es)
    elif s <= sk:
        chi = (es * es - 1.0 - 2.0 * s) / (2.0 * s * (1.0 + es))
    else:
        K = solve_K(s)
        chi = (es * es + 1.0 + (1.0 + K) * math.log(K) - 2.0 * K - 2.0 * s) \
            / (2.0 * s * (1.0 + es))
    excursion = TradeoffPoint(s=s, rho=rho, chi=chi)
    strategy = TradeoffPoint(
        s=s, rho=_finite_rho(1.0 + 2.0 * rho, "linear trade-off", s),
        chi=1.0 + 2.0 * chi)
    return excursion, strategy


def linear_lower_bound(t: float) -> LowerBoundPoint:
    """Lower-bound point for linear search at curve parameter t in (0, 1].

    chi_ls(t) = 1 + 2 t (t+2)^2 / (-t^3 + 3t + 4); no strategy with that
    consistency can be more robust than
    1 + 4 (t^2 + t + 1) / (t (-t^3 + 3t + 4)), and in any case no strategy
    beats the classical ratio 1 + 1/W0(1/e), hence the clamp.
    """
    if not (0.0 < t <= 1.0):
        raise DomainError(f"linear lower bound requires t in (0, 1], got {t}")
    q = -t ** 3 + 3.0 * t + 4.0
    chi_ls = 1.0 + 2.0 * t * (t + 2.0) ** 2 / q
    rho_raw = _finite_rho(1.0 + 4.0 * (t * t + t + 1.0) / (t * q),
                          "linear lower bound", t)
    return LowerBoundPoint(t=t, chi_ls=chi_ls,
                           rho_ls=max(rho_ls_star(), rho_raw),
                           rho_ls_raw=rho_raw)


def conjugate_rate_bidding(s: float) -> float:
    """Conjugate root lam >= 1 of lam e^{-lam} = s e^{-s}, for s in (0, 1].

    The delayed equation rho A'(x) = A(x+1) with rho = e^s/s admits pure
    exponential modes e^{lam x} exactly for the two roots of this
    characteristic equation; the minimal tight profile carries no e^{s x}
    component, so its left tail decays at the conjugate rate.  Used as the
    rate of the real mode of the analytic tail below the grid window.
    """
    if not (0.0 < s <= 1.0):
        raise DomainError(f"conjugate rate requires s in (0, 1], got {s}")
    target = s * math.exp(-s)
    # at 1024, lam e^{-lam} underflows to 0, below every positive target
    return bisect(lambda lam: target - lam * math.exp(-lam), 1.0, 1024.0)


def conjugate_rate_linear(s: float) -> float:
    """Conjugate root lam >= 2 s_* of (1 + e^{lam/2})/lam = (1 + e^s)/(2s).

    The tight excursion pair satisfies (rho lam - 1)^2 = e^lam for its
    exponential modes; the achievable branch is rho lam = 1 + e^{lam/2},
    whose two roots are lam = 2s and this conjugate.  The minimal tight
    extension decays at the conjugate rate.  Where e^{lam/2} would
    overflow (s below about 1.7e-305), the sides are compared in logs;
    below about 5.6e-309, where rho itself overflows, it raises DomainError.
    """
    s = _linear_s(s, "conjugate rate")
    rho = _finite_rho((1.0 + math.exp(s)) / (2.0 * s), "conjugate rate", s)

    def f(lam: float) -> float:
        if 0.5 * lam > 709.0:  # e^{lam/2} overflows: ln(rho lam - 1) vs lam/2
            return math.log(rho) + math.log(lam - 1.0 / rho) - 0.5 * lam
        return rho * lam - 1.0 - math.exp(0.5 * lam)

    lo = 2.0 * s_star()
    if f(lo) <= 0.0:
        return lo  # double root at the endpoint s = s_*
    # at the largest finite rho the root is about 1434: ln(rho lam) < lam/2
    # at 1440 for every finite rho
    return bisect(f, lo, 1440.0)
