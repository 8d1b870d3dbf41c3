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

# Bisection defaults: tolerance on the argument, hard iteration cap.
_BISECT_TOL = 1e-13
_BISECT_MAX_ITER = 200


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


def bisect(f, lo: float, hi: float, *, tol: float = _BISECT_TOL) -> float:
    """Root of ``f`` on [lo, hi] by bisection; endpoints must straddle zero.

    ``f`` must be monotone or at least single-signed on each side of the
    root.  An endpoint that is already an exact zero is returned as-is.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(
            f"bisection bracket [{lo}, {hi}] does not straddle zero "
            f"(f(lo)={flo:.3e}, f(hi)={fhi:.3e})")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function: w with w e^w = z, w >= -1.

    Bisection on the monotone map w -> w e^w for w >= -1, followed by two
    Halley steps to polish to full double precision.
    """
    if z < -math.exp(-1.0):
        raise DomainError(f"lambert_w0 requires z >= -1/e, got {z}")
    if z == 0.0:
        return 0.0
    if z <= -math.exp(-1.0):
        return -1.0
    if z > 0.0:
        lo, hi = 0.0, 1.0
        while hi * math.exp(hi) < z:
            hi *= 2.0
    else:
        lo, hi = -1.0, 0.0
    w = bisect(lambda t: t * math.exp(t) - z, lo, hi, tol=1e-12)
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
    rho = math.exp(s) / s
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


def _K_closed_form(s: float) -> float:
    es = math.exp(s)
    return es * (es * es - 1.0 + 2.0 * s * es) / (1.0 + es) ** 2


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
    ss = s_star()
    if not (0.0 < s <= ss + 1e-12):
        raise DomainError(f"solve_K requires s in (0, s_*], got {s}")
    s = min(s, ss)
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
    ss = s_star()
    if not (0.0 < s <= ss + 1e-12):
        raise DomainError(f"linear trade-off requires s in (0, s_*], got {s}")
    s = min(s, ss)
    es = math.exp(s)
    rho = (1.0 + es) / (2.0 * s)
    sk = solve_sK()
    if s <= sk:
        chi = (es * es - 1.0 - 2.0 * s) / (2.0 * s * (1.0 + es))
    else:
        K = solve_K(s)
        chi = (es * es + 1.0 + (1.0 + K) * math.log(K) - 2.0 * K - 2.0 * s) \
            / (2.0 * s * (1.0 + es))
    excursion = TradeoffPoint(s=s, rho=rho, chi=chi)
    strategy = TradeoffPoint(s=s, rho=1.0 + 2.0 * rho, chi=1.0 + 2.0 * chi)
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
    rho_raw = 1.0 + 4.0 * (t * t + t + 1.0) / (t * q)
    return LowerBoundPoint(t=t, chi_ls=chi_ls,
                           rho_ls=max(rho_ls_star(), rho_raw),
                           rho_ls_raw=rho_raw)


def conjugate_rate_bidding(s: float) -> float:
    """Conjugate root lam >= 1 of lam e^{-lam} = s e^{-s}, for s in (0, 1].

    The delayed equation rho A'(x) = A(x+1) with rho = e^s/s admits pure
    exponential modes e^{lam x} exactly for the two roots of this
    characteristic equation; the minimal tight profile carries no e^{s x}
    component, so its left tail decays at the conjugate rate.  Used as the
    analytic tail rate below the grid window.
    """
    if not (0.0 < s <= 1.0):
        raise DomainError(f"conjugate rate requires s in (0, 1], got {s}")
    target = s * math.exp(-s)
    hi = 2.0
    while hi * math.exp(-hi) > target:
        hi *= 2.0
    return bisect(lambda lam: target - lam * math.exp(-lam), 1.0, hi)


def conjugate_rate_linear(s: float) -> float:
    """Conjugate root lam >= 2 s_* of (1 + e^{lam/2})/lam = (1 + e^s)/(2s).

    The tight excursion pair satisfies (rho lam - 1)^2 = e^lam for its
    exponential modes; the achievable branch is rho lam = 1 + e^{lam/2},
    whose two roots are lam = 2s and this conjugate.  The minimal tight
    extension decays at the conjugate rate.
    """
    ss = s_star()
    if not (0.0 < s <= ss + 1e-12):
        raise DomainError(f"conjugate rate requires s in (0, s_*], got {s}")
    s = min(s, ss)
    rho = (1.0 + math.exp(s)) / (2.0 * s)

    def f(lam: float) -> float:
        if 0.5 * lam > 709.0:  # e^{lam/2} overflows; it exceeds rho lam
            return -math.inf
        return rho * lam - 1.0 - math.exp(0.5 * lam)

    lo = 2.0 * ss
    if f(lo) <= 0.0:
        return lo  # double root at the endpoint s = s_*
    hi = lo + 1.0
    while f(hi) > 0.0:
        hi = 2.0 * hi
    return bisect(f, lo, hi)
