"""Construction and verification of optimal randomized bidding profiles.

A (rho, chi)-bidding profile is a non-decreasing, left-continuous
G : R -> (0, inf) with, for A(x) = integral_{-inf}^{x} G,

* offset:       G(x) < 1 for x < 0 and G(x) >= 1 for x > 0,
* robustness:   the delayed condition A(x+1) <= rho G(x) for every x,
* consistency:  A(1) <= chi.

The strategy it drives bids {G(n + U)} for a shared U ~ Unif(0, 1]; its
expected cost at target T is A(tau(T) + 1), tau(T) = sup{t : G(t) < T}.

Each profile type lists its delayed conditions as data, a table of
:class:`Condition`; one evaluator, :func:`_delayed_integral`, reads it for
both problems wherever a condition is evaluated: in :func:`verify`, which
checks a profile of either problem from its table alone, for the
consistency and for the costs.  At the grid nodes it and both operator
sweeps assemble a row by :func:`_at_nodes`; a sweep owns only its
quadratures and, for the pair, its Gauss-Seidel order.

The optimal profile at parameter s has the closed-form right part
max(1, s chi e^{s(x-1)}) on (0, 1] (continuing exponentially beyond 1) and a
left part which is the unique fixed point of the operator
(F H)(x) = (1/rho) integral_{-inf}^{x+1} H for x <= 0, with H pinned to the
right part on (0, 1].  F is order-preserving, so iterating from zero
rises to the minimal fixed point (:func:`build_profile`), and iterating
from any valid profile falls to a tight profile at no worse consistency
(:func:`tighten`).
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
DEFAULT_H = 1.6e-3  # 625 steps per unit
DEFAULT_MAX_ITER = 10_000
SWEEP_TOL = 1e-12  # sweeps stop at this sup-norm change per sweep

# Verification tolerances: robustness residuals must stay below TOL_REL
# relative to rho G(x) plus ATOL_FLOOR absolute, and the realized
# consistency may exceed chi by at most TOL_ABS.
TOL_REL = 1e-4
TOL_ABS = 1e-4
ATOL_FLOOR = 1e-9


@dataclass(frozen=True)
class Condition:
    """A delayed condition C(x) <= rho G(x): C(x) sums A_k(x + shift), the
    integral of component k up to x + shift, over the (k, shift) ``terms``;
    G is component ``right``.  A ``tight`` condition holds with equality on
    x > 0 as well."""

    name: str
    terms: tuple[tuple[int, int], ...]
    right: int
    tight: bool

    def __post_init__(self):
        # the shape that the node evaluator _at_nodes reads
        shifts = [shift for _, shift in self.terms]
        if not set(shifts) <= {0, 1} or 1 in shifts[1:]:
            raise ValueError(f"{self.name}: shifts must be 0 or 1, and only "
                             f"the first term shifted, got {self.terms}")


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

    conditions = (Condition("A(x+1) <= rho G", ((0, 1),), 0, tight=False),)
    names = ("G",)

    @property
    def components(self) -> tuple[GridFunction, ...]:
        return (self.g,)


@dataclass
class VerificationReport:
    """Residuals of the profile conditions on the grid and a log grid.

    ``max_robustness_residual`` is the largest positive part of
    C(x) - rho G(x) over every condition; ``max_relative_residual`` is the
    same normalized by rho G(x).  ``tightness_residual`` is the largest
    absolute residual over x <= 0, where a tight profile satisfies equality.
    """

    max_robustness_residual: float
    max_relative_residual: float
    consistency_gap: float
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
    """Integrals from 0 to k h (k <= steps_per_unit) of the pieces below 1."""
    ys = np.arange(grid.steps_per_unit + 1) * grid.h
    out = np.zeros(ys.size)
    for p in pieces:
        if p.lo < 1.0:
            out += p.integrals(0.0, ys)
    return out


def _at_nodes(cond: Condition, cums: tuple[np.ndarray, ...],
              right_cum: np.ndarray | None, mass: float, grid: GridSpec,
              out: np.ndarray) -> np.ndarray:
    """C(x_i) of row ``cond`` at every grid node x_i <= 0, into ``out``,
    from component k's integrals from x_min ``cums[k]``, the tail ``mass``
    and, for a shifted term, ``right_cum`` (the :func:`_piece_cumints` of
    its right part; not read for a row without one).  A row's one shifted term comes first and takes the
    mass; otherwise the mass is added last."""
    n, m = grid.steps_per_unit, grid.m
    (k, shift), *rest = cond.terms
    if shift:
        np.add(mass, cums[k][n:], out=out[:m + 1 - n])  # x_i + 1 <= 0
        np.add(mass + cums[k][m], right_cum[1:], out=out[m + 1 - n:])
    else:
        out[:] = cums[k]
    for k, _ in rest:
        out += cums[k]
    if not shift:
        out += mass
    return out


def _unit_breaks(grid: GridSpec) -> tuple[int, ...]:
    """The nodes at x = -2 and -1 inside the window: the slope breaks of a
    profile that the delayed operator sweeps, whose right part jumps at 0,
    so that a derivative of it jumps at each of them."""
    n, m = grid.steps_per_unit, grid.m
    return tuple(k for k in (m - 2 * n, m - n) if k > 0)


def _sweep(phi: tuple[Piece, ...], rho: float, grid: GridSpec,
           tail_rate: float, kinks: tuple[int, ...]):
    """The bidding operator as the ``step(x, out)`` of
    :func:`_iterate_to_fixed_point`, with the quadrature in a buffer of its
    own.

    Writes (F H)(x) = (1/rho) integral_{-inf}^{x+1} H, the row of
    ``BiddingProfile.conditions`` by :func:`_at_nodes`, at every grid node
    x <= 0 into ``out[0]``, where H is ``x[0]`` on the grid
    (endpoint-corrected trapezoid between nodes), the right part ``phi`` on
    (0, 1] (closed form; its pieces from 1 on are not read), and the
    exponential tail ``x[0][0] e^{tail_rate (t - x_min)}`` below the window.
    ``kinks`` marks nodes where H has a derivative jump (x = -1 when the
    right part jumps at 0).  F preserves order: every quadrature weight is
    non-negative and the tail mass increases with ``x[0][0]``.
    """
    (row,) = BiddingProfile.conditions
    phi_cum = _piece_cumints(phi, grid) / rho
    h = grid.h / rho  # the quadrature at step h / rho integrates G / rho
    cum = np.empty(grid.m + 1)

    def step(x, out):
        (left,), (new,) = x, out
        cumulative_integral(left, h, kinks=kinks, out=cum)
        _at_nodes(row, (cum,), phi_cum, left[0] / (tail_rate * rho), grid,
                  new)
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
    one place where s fixes rho, chi, the right part, tail, kinks and slope
    breaks.

    ``left`` is the grid values, or None to sweep from zero to
    ``SWEEP_TOL`` (at most ``max_iter`` sweeps).  At s = 1, where the
    delayed equation is doubly resonant, the exact e^x (no kink or break,
    rate 1) replaces the sweeps.
    """
    point = bidding_tradeoff(s)
    right = _rising_pieces(s * point.chi, s)
    iterations, final_delta = 0, math.nan
    if s == 1.0:
        tail_rate, kinks, breaks = 1.0, (), ()
        if left is None:
            left, final_delta = np.exp(grid.positions), 0.0
    else:  # the right part jumps at 0, so G kinks at x = -1
        tail_rate = conjugate_rate_bidding(s)
        kinks = (grid.m - grid.steps_per_unit,)
        breaks = _unit_breaks(grid)  # and G'' jumps at x = -2
    if left is None:
        (left,), iterations, final_delta = _iterate_to_fixed_point(
            _sweep(right, point.rho, grid, tail_rate, kinks),
            (np.zeros(grid.m + 1),), max_iter)
    g = GridFunction(grid=grid, left_values=left, right_pieces=right,
                     tail_rate=tail_rate, kink_nodes=kinks,
                     slope_breaks=breaks)
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


def _delayed_integral(p, cond: Condition, x=None):
    """C(x) of condition ``cond`` of profile ``p``: at a float x by
    :meth:`GridFunction.integral_to`, at an array x by its array form
    ``integrals``; with x None at every grid node x <= 0, on the build's
    quadrature and by the sweeps' evaluator :func:`_at_nodes`."""
    gs = p.components
    if x is not None:
        integral = "integral_to" if np.ndim(x) == 0 else "integrals"
        return sum(getattr(gs[k], integral)(x + shift)
                   for k, shift in cond.terms)
    grid, (k, shift) = gs[0].grid, cond.terms[0]
    right_cum = _piece_cumints(gs[k].right_pieces, grid) if shift else None
    return _at_nodes(cond, tuple(c._cum for c in gs), right_cum,
                     sum(gs[k].tail_mass for k, _ in cond.terms), grid,
                     np.empty(grid.m + 1))


def expected_cost(p: BiddingProfile, target: float) -> float:
    """Expected total bid sum at target T: C(tau(T)) = A(tau(T) + 1)."""
    if not 0.0 < target < math.inf:
        raise DomainError(f"target must be positive and finite, got {target!r}")
    return _delayed_integral(p, p.conditions[0], p.g.tau(target))


# -- verification ---------------------------------------------------------


def verify(p) -> VerificationReport:
    """Check a profile of either problem against its ``conditions`` table:
    offset, monotonicity, robustness, consistency and tightness.

    Every condition is checked at every grid node x <= 0, on the build's
    quadrature, and at 400 log-spaced x in (0, 10], on the stored model:
    each residual C(x) - rho G(x) must stay below ``TOL_REL`` relative to
    rho max(G(x), 0) plus the floor ``ATOL_FLOOR`` (which keeps roundoff deep
    in the tail, where G underflows the build tolerance, from counting), and
    a failure names the condition and x of the worst.  On (0, 10] each
    condition's right component must be positive (the first x where it is
    not is reported), and a ``tight`` condition must hold with equality, to
    ``TOL_REL`` relative there and to 1e-5 absolute at 0+.  Tightness is the
    largest absolute node residual.  The consistency, the first condition's
    C(0), may exceed chi by at most ``TOL_ABS``.  Component names in the
    failures come from ``p.names``.
    """
    gs, rho, names = p.components, p.rho, p.names
    g = gs[0]
    v = g.left_values
    offset_ok = bool(np.all(v[:-1] < 1.0) and v[-1] <= 1.0 + 1e-12
                     and g.right_value_at_zero() >= 1.0 - 1e-12)
    scale = max(1.0, *(float(np.max(c.left_values)) for c in gs))
    # the grid value at 0 meets the closed-form right limit only to
    # quadrature accuracy, so that junction is held to TOL_REL
    monotone_ok = all(
        c.is_monotone(tol=1e-12 * scale,
                      junction_tol=TOL_REL * float(c.left_values[-1]))
        and c.is_nonnegative() for c in gs)

    nodes, xs = g.grid.positions, np.geomspace(max(g.h, 1e-4), 10.0, 400)
    rows = ([(c, nodes, _delayed_integral(p, c), gs[c.right].left_values)
             for c in p.conditions]
            + [(c, xs, _delayed_integral(p, c, xs), gs[c.right].value(xs))
               for c in p.conditions])
    resid = [c - rho * gx for _, _, c, gx in rows]
    tight = max(float(np.max(np.abs(r))) for r in resid[:len(p.conditions)])
    resid = np.concatenate(resid)
    rel = np.concatenate([rho * np.maximum(gx, 0.0) for *_, gx in rows])
    rel += ATOL_FLOOR / TOL_REL
    np.divide(resid, rel, out=rel)
    worst = int(np.argmax(rel))
    max_rel = float(rel[worst])
    gap = float(_delayed_integral(p, p.conditions[0], 0.0) - p.chi)

    failures = []
    if max_rel > TOL_REL:
        cond, x = [(c, x) for c, xs, _, _ in rows for x in xs][worst]
        failures.append(f"robustness: relative residual {max_rel:.3e} > "
                        f"{TOL_REL} in {cond.name} at x = {x:.6g}")
    if gap > TOL_ABS:
        failures.append(f"consistency: C(0) exceeds chi by {gap:.3e}")
    for cond, _, c, gx in rows[len(p.conditions):]:
        name = names[cond.right]
        positive = gx > 0.0  # no relative tightness elsewhere
        if not positive.all():
            i = int(np.argmin(positive))  # report the first such x
            failures.append(f"positivity: {name} must be positive, is "
                            f"{float(gx[i])!r} at x = {xs[i]:.6g}")
        if cond.tight:
            rho_g = rho * gx[positive]
            off = float(np.max(np.abs(c[positive] - rho_g) / rho_g,
                               initial=0.0))
            if off > TOL_REL:
                failures.append(f"tightness: {cond.name} is not tight on "
                                f"x > 0, relative residual {off:.3e}")
            # C(0) against rho G(0+): for C- the boundary identity
            # C+(0) + integral_0^1 G+ = rho K e^{-s}
            edge = abs(_delayed_integral(p, cond, 0.0)
                       - rho * gs[cond.right].right_value_at_zero())
            if edge > 1e-5:
                failures.append(f"tightness: {cond.name} is not tight at "
                                f"x = 0+, residual {edge:.3e} > 1e-5")
    if not offset_ok:
        failures.append(f"offset: {names[0]} must be < 1 left of 0 and >= 1 "
                        f"right of 0")
    if not monotone_ok:
        failures.append(f"monotone: {' and '.join(names)} must be "
                        f"non-decreasing and positive")

    return VerificationReport(
        max_robustness_residual=float(np.max(resid)),
        max_relative_residual=max_rel,
        consistency_gap=gap,
        tightness_residual=tight,
        offset_ok=offset_ok,
        monotone_ok=monotone_ok,
        tail_bound=sum(c.tail_mass for c in gs),
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
    (left,), _, _ = _iterate_to_fixed_point(
        _sweep(g.right_pieces, rho, g.grid, g.tail_rate, g.kink_nodes),
        (g.left_values,), DEFAULT_MAX_ITER)
    return replace(g, left_values=left)
