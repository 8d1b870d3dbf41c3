"""Construction and verification of optimal randomized bidding profiles.

A (rho, chi)-bidding profile is a non-decreasing, left-continuous
G : R -> (0, inf) with

* offset:       G(x) < 1 for x < 0 and G(x) >= 1 for x > 0,
* robustness:   integral_{-inf}^{x+1} G <= rho G(x) for every x,
* consistency:  integral_{-inf}^{1} G <= chi.

The strategy it drives bids {G(n + U)} for a shared U ~ Unif(0, 1]; its
expected cost at target T is integral_{-inf}^{tau(T)+1} G with
tau(T) = sup{t : G(t) < T}.

The optimal profile at parameter s has the closed-form right part
max(1, s chi e^{s(x-1)}) on (0, 1] (continuing exponentially beyond 1) and a
left part which is the unique fixed point of the operator

    (F H)(x) = (1/rho) integral_{-inf}^{x+1} H(t) dt   for x <= 0,

with H pinned to the right part on (0, 1].  F is order-preserving, so
iterating from zero produces a pointwise non-decreasing sequence converging
to the minimal fixed point; iterating from any valid profile produces a
non-increasing sequence converging to a tight profile at no worse
consistency.  Both directions are used below.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (ConvergenceError, DomainError, bidding_tradeoff,
                       conjugate_rate_bidding)
from .grids import GridFunction, GridSpec, Piece, cumulative_integral, make_grid

__all__ = [
    "BiddingProfile",
    "VerificationReport",
    "build_profile",
    "expected_cost",
    "verify",
    "tighten",
]

DEFAULT_X_MIN = -10.0  # below it, the tail at the conjugate rate
DEFAULT_H = 1e-3
DEFAULT_MAX_ITER = 10_000
SWEEP_TOL = 1e-12  # sweeps stop at this sup-norm change per sweep

# Verification tolerances: robustness residuals must stay below TOL_REL
# relative to rho G(x) plus ATOL_FLOOR absolute, and the realized
# consistency may exceed chi by at most TOL_ABS.
TOL_REL = 1e-4
TOL_ABS = 1e-4
ATOL_FLOOR = 1e-9


@dataclass
class BiddingProfile:
    """An (s, rho, chi) bidding profile on a uniform grid.

    ``chi`` and ``rho`` are the closed-form curve values used to build the
    right part; the realized consistency of the stored function is reported
    by :func:`verify` and agrees with ``chi`` up to quadrature error.
    Immutable after construction: evaluation, integration, and verification
    are read-only and safe under concurrent access.
    """

    s: float
    rho: float
    chi: float
    g: GridFunction
    iterations: int = 0
    final_delta: float = math.nan

    @property
    def phi(self) -> tuple[Piece, ...]:
        """The inducing function on (0, 1] (the right part below 1)."""
        return tuple(p for p in self.g.right_pieces if p.lo < 1.0)


@dataclass
class VerificationReport:
    """Residuals of the profile conditions on the grid and a log grid.

    ``max_robustness_residual`` is the largest positive part of
    integral_{-inf}^{x+1} G - rho G(x); ``max_relative_residual`` is the same
    normalized by rho G(x).  ``tightness_residual`` is the largest absolute
    residual over x <= 0, where a tight profile satisfies equality.
    """

    max_robustness_residual: float
    max_relative_residual: float
    consistency_gap: float
    consistency_abs_gap: float
    tightness_residual: float
    offset_ok: bool
    monotone_ok: bool
    tail_bound: float
    grid_meta: tuple[float, float]
    passed: bool
    failures: tuple[str, ...] = ()


def _rising_pieces(a: float, rate: float) -> tuple[Piece, ...]:
    """max(1, a e^{rate(x-1)}) on (0, 1], then max(1, a) e^{rate(x-1)} on
    (1, inf): the right part of G (a = s chi, rate s) and of G+ (a = K,
    rate 2s)."""
    if a <= 1.0:
        head = (Piece.constant(1.0, 0.0, 1.0),)
    else:
        x0 = 1.0 - math.log(a) / rate  # plateau ends where a e^{rate(x-1)} = 1
        head = ((Piece.exponential(a, rate, 1.0, 0.0, 1.0),) if x0 <= 0.0
                else (Piece.constant(1.0, 0.0, x0),
                      Piece.exponential(a, rate, 1.0, x0, 1.0)))
    return head + (Piece.exponential(max(1.0, a), rate, 1.0, 1.0, math.inf),)


def _piece_cumints(pieces: tuple[Piece, ...], grid: GridSpec) -> np.ndarray:
    """Exact integral of the pieces from 0 to k h, for k = 0 .. steps_per_unit."""
    ys = np.arange(grid.steps_per_unit + 1) * grid.h
    out = np.zeros(ys.size)
    for p in pieces:
        out += p.integrals(0.0, ys)
    return out


def _shifted_integrals(cum: np.ndarray, tail_mass: float,
                       phi_cum: np.ndarray, grid: GridSpec,
                       out: np.ndarray | None = None) -> np.ndarray:
    """A(x_i + 1) = integral_{-inf}^{x_i + 1} for every grid node x_i <= 0,
    written into ``out`` when given."""
    n, m = grid.steps_per_unit, grid.m
    if out is None:
        out = np.empty(m + 1)
    np.add(tail_mass, cum[n:], out=out[:m + 1 - n])            # x_i + 1 <= 0
    np.add(tail_mass + cum[m], phi_cum[1:], out=out[m + 1 - n:])  # in (0, 1]
    return out


def _sweep(phi: tuple[Piece, ...], rho: float, grid: GridSpec,
           tail_rate: float, kinks: tuple[int, ...]):
    """The bidding operator as the ``step(x, out)`` of
    :func:`_iterate_to_fixed_point`, with the quadrature in a buffer of its
    own.

    Writes (F H)(x) = (1/rho) integral_{-inf}^{x+1} H at every grid node
    x <= 0 into ``out[0]``, where H is ``x[0]`` on the grid
    (endpoint-corrected trapezoid between nodes), ``phi`` on (0, 1] (closed
    form), and the exponential tail ``x[0][0] e^{tail_rate (t - x_min)}``
    below the window.  ``kinks`` marks nodes where H has a derivative jump
    (x = -1 when the right part jumps at 0).  F preserves order: every
    quadrature weight is non-negative and the tail mass increases with
    ``x[0][0]``.
    """
    phi_cum = _piece_cumints(phi, grid) / rho
    h = grid.h / rho  # the quadrature at step h / rho integrates G / rho
    cum = np.empty(grid.m + 1)

    def step(x, out):
        (left,), (new,) = x, out
        cumulative_integral(left, h, kinks=kinks, out=cum)
        _shifted_integrals(cum, left[0] / (tail_rate * rho), phi_cum, grid,
                           out=new)
        return out

    return step


def _stable_ratio(deltas: deque[float]) -> float | None:
    """The contraction ratio r of the latest sweeps, or None while it is not
    stable enough to extrapolate with.

    ``deltas`` are the sweep deltas since the last jump.  r is read two
    ways: as the mean of the last 8 sweep ratios, and as the mean of the
    last 3 ratios over blocks of 8 sweeps (geometric means of 8 sweep
    ratios).  A reading is stable when its ratios spread less than
    1e-4 (1 - r), for 0.2 < r < 0.9999.  A sweep ratio carries roundoff of
    order eps max|x| / delta: after a first jump near resonance (deltas
    about 2e-9, 1 - r about 6e-3 at linear search s = 1.25) that alone
    exceeds the tolerance, and a second jump would fire only by chance.  A
    block ratio carries an eighth of it.
    """
    for block, count in ((1, 8), (8, 3)):
        if len(deltas) <= block * count:
            return None
        ratios = [(deltas[-1 - i * block] / deltas[-1 - (i + 1) * block])
                  ** (1.0 / block) for i in range(count)]
        r = sum(ratios) / count
        if 0.2 < r < 0.9999 and max(ratios) - min(ratios) < 1e-4 * (1.0 - r):
            return r
    return None


def _iterate_to_fixed_point(step: Callable[..., object],
                            start: tuple[np.ndarray, ...],
                            max_iter: int) -> tuple[tuple[np.ndarray, ...], int, float]:
    """Drive an operator to its fixed point by damped-ratio extrapolation.

    The iterate is a tuple of component arrays (one for the bidding
    profile, (plus, minus) for the excursion pair).  ``step(x, out)``
    writes the next sweep of x into the arrays of ``out``, which never
    overlap those of ``x``; the per-sweep delta is the sup-norm over all
    components.  The driver owns exactly two buffer sets: the iterate
    starts as a copy of ``start`` (which is never written), each sweep is
    written into the previous iterate's buffers, and those then hold the
    sweep difference.  Plain sweeps converge geometrically; once the deltas
    show a stable contraction ratio r (see :func:`_stable_ratio`), the
    remaining geometric tail diff * r/(1-r) is added in one jump, and
    sweeping resumes after a cooldown of 120 sweeps.  Jumps move along the
    observed sweep direction only, which keeps the iterate inside the
    subspace the from-zero dynamics actually excites; the truncated
    operator carries a spurious near-unit eigenmode (a window-truncation
    artifact) that must not be touched.  Measured at x_min = -10 with the
    Jacobi sweep as the matrix-vector product: full GMRES lands 1.2e-6
    (s = 1.1) to 8.8e-5 (s = 1.27) off the from-zero sweeps on the pair and
    fails ``verify_excursion`` (chi gap -6.0e-5 at s = 1.25), restarted
    GMRES(k), k = 2..8, stalls at a 10 000 matrix-vector cap at most pair
    s, and Anderson(6) lands 3.5e-3 off; only on bidding is GMRES safe (21
    products against 267-281 sweeps).

    ``step`` may keep state between calls: the driver never writes to the
    arrays a step has just written while they are the iterate, so a step
    handed back the arrays it wrote last may reuse what it computed from
    them (the Gauss-Seidel pair sweep keeps the integral of its new G+).
    After a jump the iterate is the other buffer set.

    The returned components are fresh arrays; the sweep stops once its
    sup-norm change delta is <= ``SWEEP_TOL``.  For a Jacobi sweep x -> F(x)
    (bidding), delta is the operator residual |F(x) - x| of the last iterate
    swept.  The pair sweep is Gauss-Seidel: its G- update reads the new G+,
    so delta bounds the Jacobi residual of that iterate by (1 + c) delta,
    and of the returned pair by 2 c delta, where c = (|x_min| + 1/lam)/rho
    is the largest change of one component of F per unit sup-norm change of
    one component of its argument (lam the tail rate; c is about 5.8 near
    s_* at x_min = -10).  Raises DomainError, before the first sweep, unless
    ``max_iter`` >= 1.
    """
    if not max_iter >= 1:
        raise DomainError(f"need max_iter >= 1, got max_iter={max_iter!r}")
    x = tuple(np.array(c, dtype=float) for c in start)
    spare = tuple(np.empty_like(c) for c in x)
    # the deltas since the last jump, as many as _stable_ratio reads
    deltas: deque[float] = deque(maxlen=8 * 3 + 1)
    cooldown = 0
    delta = math.inf
    for it in range(1, max_iter + 1):
        step(x, spare)
        # the old iterate's buffers take the sweep difference new - old:
        # fresh temporaries per sweep cost page faults, not just time
        for new, old in zip(spare, x):
            np.subtract(new, old, out=old)
        delta = max(max(float(d.max()), -float(d.min())) for d in x)
        x, spare = spare, x
        if delta <= SWEEP_TOL:
            return tuple(np.maximum(c, 0.0) for c in x), it, delta
        deltas.append(delta)
        cooldown -= 1
        r = _stable_ratio(deltas) if cooldown <= 0 else None
        if r is not None:
            for c, diff in zip(x, spare):  # c + (c - old) * r/(1-r)
                diff *= r / (1.0 - r)
                diff += c
            x, spare = spare, x
            deltas.clear()
            cooldown = 120
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={SWEEP_TOL} after "
        f"{max_iter} sweeps (last sup-norm delta {delta:.3e})")


def _bidding_profile(s: float, grid: GridSpec, left: np.ndarray | None,
                     max_iter: int = DEFAULT_MAX_ITER) -> BiddingProfile:
    """The bidding profile at ``s`` with left part ``left`` on ``grid``, the
    one place where s fixes rho, chi, the right part, tail and kinks.

    ``left`` is the grid values, or None to sweep from zero to
    ``SWEEP_TOL`` (at most ``max_iter`` sweeps).  At s = 1, where the
    delayed equation is doubly resonant, the exact e^x (no kink, rate 1)
    replaces the sweeps.
    """
    point = bidding_tradeoff(s)
    right = _rising_pieces(s * point.chi, s)
    iterations, final_delta = 0, math.nan
    if s == 1.0:
        tail_rate, kinks = 1.0, ()
        if left is None:
            left, final_delta = np.exp(grid.positions), 0.0
    else:  # the right part jumps at 0, so G kinks at x = -1
        tail_rate = conjugate_rate_bidding(s)
        kinks = (grid.m - grid.steps_per_unit,)
    if left is None:
        (left,), iterations, final_delta = _iterate_to_fixed_point(
            _sweep(right[:-1], point.rho, grid, tail_rate, kinks),
            (np.zeros(grid.m + 1),), max_iter)
    g = GridFunction(grid=grid, left_values=left, right_pieces=right,
                     tail_rate=tail_rate, kink_nodes=kinks)
    return BiddingProfile(s=s, rho=point.rho, chi=point.chi, g=g,
                          iterations=iterations, final_delta=final_delta)


def build_profile(s: float, x_min: float = DEFAULT_X_MIN, h: float = DEFAULT_H,
                  max_iter: int = DEFAULT_MAX_ITER) -> BiddingProfile:
    """Construct the optimal (rho(s), chi(s))-bidding profile.

    The right part is the closed form; the left part is the monotone limit
    of operator sweeps starting from zero, stopped once the sup-norm change
    per sweep is at most ``SWEEP_TOL``.  The tail below ``x_min`` extends the
    profile at its true asymptotic decay rate, the conjugate root of the
    delayed equation's characteristic equation; a mismatched tail rate
    would feed a window-scale bias into the fixed point through the
    near-resonant mode.
    """
    return _bidding_profile(s, make_grid(x_min, h), None, max_iter)


# -- evaluation ----------------------------------------------------------


def expected_cost(p: BiddingProfile, target: float) -> float:
    """Expected total bid sum at target T: integral_{-inf}^{tau(T)+1} G."""
    if not 0.0 < target < math.inf:
        raise DomainError(f"target must be positive and finite, got {target!r}")
    return p.g.integral_to(p.g.tau(target) + 1.0)


# -- verification ---------------------------------------------------------


def verify(p: BiddingProfile) -> VerificationReport:
    """Check offset, monotonicity, robustness, consistency, and tightness.

    Robustness is checked at every grid node, on the integrals the build's
    sweep assembles, and on a log grid over (0, 10]; the profile passes if
    the positive residual stays below ``TOL_REL`` (1e-4) relative to
    rho G(x) plus the absolute floor ``ATOL_FLOOR`` (1e-9, which keeps
    sub-resolution residuals deep in the tail, where G underflows the build
    tolerance, from registering as violations), the consistency integral
    exceeds chi by at most ``TOL_ABS`` (1e-4), and the structural
    conditions hold.
    """
    g, rho = p.g, p.rho
    resid = _shifted_integrals(g._cum, g.tail_mass,
                               _piece_cumints(p.phi, g.grid), g.grid)
    resid -= rho * g.left_values
    tight = float(np.max(np.abs(resid)))

    xs = _right_checkpoints(g.h)
    rho_g_right = rho * g.value(xs)
    resid_right = g.integrals_right(xs + 1.0) - rho_g_right

    return _assemble_report(
        (g,), np.concatenate([resid, resid_right]),
        np.concatenate([rho * np.maximum(g.left_values, 0.0), rho_g_right]),
        float(g.integral_to(1.0) - p.chi), tight,
        consistency="integral",
        offset="offset: G must be < 1 left of 0 and >= 1 right of 0",
        monotone="monotone: G must be non-decreasing and positive")


def _right_checkpoints(h: float) -> np.ndarray:
    """The 400 points of a log grid over (0, 10] where both verifications
    check the right part."""
    return np.geomspace(max(h, 1e-4), 10.0, 400)


def _assemble_report(components: tuple[GridFunction, ...], resid: np.ndarray,
                     rho_g: np.ndarray, gap: float, tight: float, *,
                     consistency: str, offset: str, monotone: str,
                     extra_failures: tuple[str, ...] = ()) -> VerificationReport:
    """Structural checks and the report shared by both verifications.

    ``resid`` are the robustness residuals and ``rho_g`` the rho G(x) they
    are relative to (plus ``ATOL_FLOOR``); ``rho_g`` is overwritten.  The
    offset condition applies to ``components[0]`` (G, or G+ for the
    excursion pair); every component must be monotone and non-negative, at
    one tolerance scaled by the largest left value of any component.
    ``consistency`` names the realized consistency quantity; ``offset`` and
    ``monotone`` are the failure messages of the structural conditions, and
    ``extra_failures`` are problem-specific failures listed after
    consistency.
    """
    g = components[0]
    v = g.left_values
    offset_ok = bool(np.all(v[:-1] < 1.0) and v[-1] <= 1.0 + 1e-12
                     and g.right_value_at_zero() >= 1.0 - 1e-12)
    scale = max(1.0, *(float(np.max(c.left_values)) for c in components))
    # the grid value at 0 meets the closed-form right limit only to
    # quadrature accuracy, so that junction is held to TOL_REL
    monotone_ok = all(
        c.is_monotone(tol=1e-12 * scale,
                      junction_tol=TOL_REL * float(c.left_values[-1]))
        and c.is_nonnegative() for c in components)
    rho_g += ATOL_FLOOR / TOL_REL
    max_rel = float(np.max(np.divide(resid, rho_g, out=rho_g)))

    failures = []
    if max_rel > TOL_REL:
        failures.append(f"robustness: relative residual {max_rel:.3e} > {TOL_REL}")
    if gap > TOL_ABS:
        failures.append(f"consistency: {consistency} exceeds chi by {gap:.3e}")
    failures.extend(extra_failures)
    if not offset_ok:
        failures.append(offset)
    if not monotone_ok:
        failures.append(monotone)

    return VerificationReport(
        max_robustness_residual=float(np.max(resid)),
        max_relative_residual=max_rel,
        consistency_gap=gap,
        consistency_abs_gap=abs(gap),
        tightness_residual=tight,
        offset_ok=offset_ok,
        monotone_ok=monotone_ok,
        tail_bound=sum(c.tail_mass for c in components),
        grid_meta=(g.x_min, g.h),
        passed=not failures,
        failures=tuple(failures),
    )


def tighten(g: GridFunction, rho: float) -> GridFunction:
    """Minimal tight left part compatible with g's right part at this rho.

    Operator sweeps from a valid profile form a pointwise non-increasing
    sequence; the limit is tight and its consistency integral never exceeds
    the input's.  Sweeps stop as a build's do, at ``SWEEP_TOL``.
    """
    phi = tuple(p for p in g.right_pieces if p.lo < 1.0)
    (left,), _, _ = _iterate_to_fixed_point(
        _sweep(phi, rho, g.grid, g.tail_rate, g.kink_nodes), (g.left_values,),
        DEFAULT_MAX_ITER)
    return replace(g, left_values=left)
