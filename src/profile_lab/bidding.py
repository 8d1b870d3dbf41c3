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
consistency and for the costs.  At the grid nodes it and the one operator
sweep, :func:`_table_sweep`, assemble a row by :func:`_at_nodes`; the
sweep walks the table's rows in order, so bidding's one row is a plain
sweep and the pair's two rows are a Gauss-Seidel sweep.

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

import cmath
import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (ConvergenceError, DomainError, bidding_tradeoff,
                       conjugate_rate_bidding, lambert_w0)
from .grids import (GridFunction, GridSpec, Piece, Tail, cumulative_integral,
                    make_grid)

__all__ = [
    "BiddingProfile",
    "VerificationReport",
    "build_profile",
    "expected_cost",
    "verify",
    "tighten",
]

# Below it, the first characteristic modes, projected from the window's first
# unit (see _tails)
DEFAULT_X_MIN = -4.0
DEFAULT_H = 1.6e-3  # 625 steps per unit
DEFAULT_MAX_ITER = 10_000
SWEEP_TOL = 1e-12  # sweeps stop at this sup-norm change per sweep

# Verification tolerances: robustness residuals must stay below TOL_REL
# relative to rho G(x) plus ATOL_FLOOR absolute, and the realized
# consistency may exceed chi by at most TOL_ABS and by at most TOL_REL chi.
TOL_REL = 1e-4
TOL_ABS = 1e-4
ATOL_FLOOR = 1e-9
# A component is monotone when no value drops by more than MONOTONE_TOL
# times the larger of 1 and its largest value, and where the models meet (the
# tail with the grid at x_min, the grid with the right part at 0) by at most
# that or TOL_REL relative
MONOTONE_TOL = 1e-12
# The complex pairs of modes a tail carries besides its real one
TAIL_PAIRS = 3


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


def _closed_form(s: float):
    """What s fixes of the bidding profile (see :func:`_profile`): at s = 1,
    where the delayed equation is doubly resonant, the left part is e^x."""
    point = bidding_tradeoff(s)
    return (point.rho, point.chi, (), (_rising_pieces(s * point.chi, s),),
            (1.0,) if s == 1.0 else None)


def _table_sweep(kind, rights: tuple[tuple[Piece, ...], ...], rho: float,
                 grid: GridSpec, s: float, kinks: tuple[tuple[int, ...], ...],
                 quadrature: Callable[..., np.ndarray]):
    """One sweep of the operator of profile type ``kind``, as the
    ``step(x, out)`` of :func:`_iterate_to_fixed_point`: each row of
    ``kind.conditions``, in order, writes its C/rho at the grid nodes
    x <= 0 into ``out[right]`` by :func:`_at_nodes`.

    C reads each component's newest array (written by an earlier row of the
    sweep, else ``x``), integrated by ``quadrature``, which is
    :func:`cumulative_integral` under the caller's module name, at step
    h/rho with the component's ``kinks``; for a shifted term, its right part
    ``rights[k]`` on (0, 1]; and the closure's mass below x_min from the
    newest first component (:func:`_closure`).  So bidding's one row is a
    plain sweep and the pair's rows are block Gauss-Seidel.  Every weight is
    non-negative, so sweeps from zero rise to the minimal fixed point, for
    this splitting no slower than plain sweeps (Stein-Rosenberg).  An
    integral is recomputed only when stale: its array is not the one last
    integrated, or a row has written the component since (after a jump the
    driver hands back the step's earlier outputs).  The integral of the new
    G+ thus serves the next sweep too: two quadratures per pair sweep.
    """
    rows = kind.conditions
    h = grid.h / rho  # the quadrature at step h / rho integrates G / rho
    cums = tuple(np.empty(grid.m + 1) for _ in kind.names)
    right_cums = [_piece_cumints(rights[row.terms[0][0]], grid) / rho
                  if row.terms[0][1] else None for row in rows]
    closure = _closure(kind, s, rho, grid) / rho
    n = closure.size  # the nodes of the window's first unit
    done = [None] * len(cums)  # the array whose integral cums[k] holds

    def step(x, out):
        newest = list(x)
        for row, right_cum in zip(rows, right_cums):
            for k, _ in row.terms:
                if newest[k] is not done[k]:
                    quadrature(newest[k], h, kinks=kinks[k], out=cums[k])
                    done[k] = newest[k]
            mass = float(closure @ newest[0][:n])
            k = row.right
            newest[k], done[k] = out[k], None
            _at_nodes(row, cums, right_cum, mass, grid, out[k])
        return out

    return step


def _sweep(rights: tuple[tuple[Piece, ...]], rho: float, grid: GridSpec,
           s: float, kinks: tuple[tuple[int, ...]]):
    """The bidding operator (F H)(x) = (1/rho) integral_{-inf}^{x+1} H on
    x <= 0, as the one-row :func:`_table_sweep` of ``BiddingProfile``."""
    return _table_sweep(BiddingProfile, rights, rho, grid, s, kinks,
                        cumulative_integral)


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
    # the components whose tails _profile derived; verify projects others
    derived: tuple = field(default=(), init=False, repr=False, compare=False)

    conditions = (Condition("A(x+1) <= rho G", ((0, 1),), 0, tight=False),)
    names = ("G",)
    # its file (see serialize): tag, fields after chi, component blocks
    problem, fields, blocks = "bidding", (), (None,)
    # the slow root and scale of the tail closure at (s, rho) (see
    # _closure).  With e^s = rho s, Q(x) = e^{-sx} (A(x) - s integral_0^1
    # e^{-su} A(x+u) du) has Q' = 0 along rho A' = A(x+1) and vanishes on
    # every mode but e^{sx}, which the minimal profile does not carry; so
    # Q(x_min) = 0, with A = M + C and C the integral from x_min, gives the
    # mass below x_min: M = s integral_0^1 e^{s(1-u)} C(x_min + u) du, by
    # parts integral_0^1 (e^{s(1-u)} - 1) G(x_min + u) du
    closure = staticmethod(lambda s, rho: (s, 1.0))
    # the real rate of the tail (see _tails): the conjugate root of
    # e^lam = rho lam
    conjugate_rate = staticmethod(conjugate_rate_bidding)
    # its complex roots lam = log(rho lam) + 2 pi i k (k >= 1) are the fixed
    # points of this branch (with its derivative), and the coefficient at
    # x_min of a mode e^{lam x} is its projection from G(x_min) and
    # J = integral_0^1 e^{-lam u} G(x_min + u) du: by parts and
    # rho G(x) = A(x + 1), (1 - lam) times it is e^{lam x} times the
    # closure's Q at this root, G(x) - lam integral_0^1 e^{-lam u}
    # G(x + u) du at x_min, which is G(x_min) - rho^-1 integral_0^1
    # e^{lam(1-u)} G(x_min + u) du as e^lam = rho lam
    branch = staticmethod(lambda rho, lam: (cmath.log(rho * lam), 1.0 / lam))
    mode = staticmethod(lambda rho, lam, firsts, J:
                        (firsts[0] - lam * J) / (1.0 - lam))
    factors = staticmethod(lambda rho, lam: (1.0,))
    # what s fixes of the profile, and the sweep that builds its left part
    # (see _profile)
    closed_form = staticmethod(_closed_form)
    sweep = staticmethod(_sweep)

    @property
    def components(self) -> tuple[GridFunction, ...]:
        return (self.g,)


@dataclass
class VerificationReport:
    """Residuals of the profile conditions at the grid nodes, at 100 points
    of the tail in [x_min - 3, x_min) and at 400 log-spaced points in
    (0, 10] (see :func:`verify`).

    ``max_robustness_residual`` is the largest C(x) - rho G(x) over every
    condition and point; ``max_relative_residual`` is the same normalized
    by rho G(x).  ``tightness_residual`` is the largest
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
    its right part; not read for a row without one).  A row's one shifted
    term comes first and takes the mass; otherwise the mass is added
    last."""
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


def _unit_weights(grid: GridSpec) -> np.ndarray:
    """The corrected trapezoid of :func:`cumulative_integral` over the
    window's first unit, nodes j = 0..n: h, with end weights
    h (9, 28, 23)/24."""
    n = grid.steps_per_unit
    q = np.full(n + 1, grid.h)
    q[:3] = q[:-4:-1] = grid.h * np.array([9.0, 28.0, 23.0]) / 24.0
    return q


def _closure(kind, s: float, rho: float, grid: GridSpec) -> np.ndarray:
    """Weights w_j at the nodes j = 0..n of the window's first unit whose
    sum_j w_j G(x_j) over the first component G of a minimal profile of
    type ``kind`` at (s, rho) is its mass below x_min:
    scale integral_0^1 (e^{root(1-u)} - 1) G(x_min + u) du, with
    (root, scale) = ``kind.closure(s, rho)``, by :func:`_unit_weights`.
    Every weight is non-negative (the last is 0), and each comes from
    ``math.expm1`` and correctly rounded products."""
    root, scale = kind.closure(s, rho)
    n = grid.steps_per_unit
    # e^{root(1-u)} - 1 at u = j/n
    e = root * np.arange(n, -1, -1) / n
    e = np.fromiter(map(math.expm1, e.tolist()), float, n + 1)
    return scale * _unit_weights(grid) * e


def _mode_rate(branch, rho: float, k: int) -> complex:
    """The root of lam = b(lam) + 2 pi i k, k >= 1, for ``branch(rho, lam)``
    = (b(lam), b'(lam)): one fixed-point step from 2 pi i k, then Newton
    until a step is below 1e-15 |lam| (Corless et al. 1996 for the
    bidding branch, whose roots are -W_k(-1/rho))."""
    shift = complex(0.0, 2.0 * math.pi * k)
    lam = branch(rho, shift)[0] + shift
    for _ in range(50):
        b, db = branch(rho, lam)
        step = (lam - b - shift) / (1.0 - db)
        lam -= step
        if abs(step) <= 1e-15 * abs(lam):
            break
    return lam


def _decays(lam: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of e^{-lam j/n}, j = 0..n: each the
    product of a ``cmath.exp`` at a coarse step and one at a fine step,
    by correctly rounded real products, so no vector kernel enters."""
    b = math.isqrt(n) + 1
    fine = np.array([cmath.exp(-lam * (j / n)) for j in range(b)])
    coarse = np.array([cmath.exp(-lam * (b * a / n))
                       for a in range(n // b + 1)])
    (cr, ci), (fr, fi) = (coarse.real, coarse.imag), (fine.real, fine.imag)
    re = np.multiply.outer(cr, fr)
    re -= np.multiply.outer(ci, fi)
    im = np.multiply.outer(cr, fi)
    im += np.multiply.outer(ci, fr)
    return re.ravel()[:n + 1], im.ravel()[:n + 1]


def _tails(kind, s: float, rho: float, lefts,
           grid: GridSpec) -> tuple[Tail, ...]:
    """The tail below x_min of each component of a minimal profile of type
    ``kind`` at (s, rho) with left parts ``lefts``.

    Below the window the profile solves its delayed equation, so it is a
    sum of characteristic modes e^{lam x}, whose component k carries
    ``kind.factors(rho, lam)[k]`` times the first component's
    coefficient.  The tail keeps the first ``TAIL_PAIRS`` complex roots of
    ``kind.branch`` (:func:`_mode_rate`), each with the coefficient
    ``kind.mode`` projects from the first values and J = integral_0^1
    e^{-lam u} G(x_min + u) du, G the first component, by the invariant
    of the delayed equation at that root, which is constant along its
    solutions and vanishes on every other mode (Hale & Verduyn Lunel
    1993).  At the slow root that invariant is the closure
    (:func:`_closure`), which holds every mode's mass below x_min: the
    real mode, at ``kind.conjugate_rate(s)``, takes what the complex ones
    leave of it, so the tail holds the mass the sweeps closed with.  J and
    the mass sum the products of the left values and
    :func:`_unit_weights` times :func:`_decays`, or the closure's weights,
    by ``math.fsum``, correctly rounded, so the tail does not depend on a
    reduction order.  The roots and the decays come from ``cmath``, whose
    last bits, like those of the closed-form right parts' ``math.exp``,
    can differ between C libraries.

    Where that tail is not certainly positive and increasing
    (:meth:`Tail.is_monotone`), or its value at x_min exceeds the first
    value by more than ``MONOTONE_TOL`` and ``TOL_REL`` relative (the
    omitted modes' share there), every component takes one exponential
    from its first value at one rate: the sum of the first values over the
    mass, or where either underflows the conjugate rate.
    """
    n = grid.steps_per_unit
    firsts = tuple(float(v[0]) for v in lefts)
    w = _closure(kind, s, rho, grid)
    mass = math.fsum((w * lefts[0][:n + 1]).tolist())
    weighted = _unit_weights(grid) * lefts[0][:n + 1]
    waves = []
    for k in range(1, TAIL_PAIRS + 1):
        lam = _mode_rate(kind.branch, rho, k)
        re, im = _decays(lam, n)
        J = complex(math.fsum((re * weighted).tolist()),
                    math.fsum((im * weighted).tolist()))
        c = 2.0 * kind.mode(rho, lam, firsts, J)  # with its conjugate's
        waves.append((lam, tuple(c * f for f in kind.factors(rho, lam))))
    real = kind.conjugate_rate(s)
    factors = kind.factors(rho, real)
    c = ((mass - sum((ck / lam).real for lam, cs in waves for ck in cs))
         / (sum(factors) / real))
    tails = tuple(Tail(((real, c * f),) + tuple((lam, cs[k])
                                                for lam, cs in waves))
                  for k, f in enumerate(factors))
    if all(t.is_monotone()
           and t.at(0.0) <= first + max(MONOTONE_TOL, TOL_REL * first)
           for t, first in zip(tails, firsts)):
        return tails
    rate = sum(firsts) / mass if mass > 0.0 else 0.0
    if not 0.0 < rate < math.inf:
        rate = real
    return tuple(Tail.exponential(rate, first) for first in firsts)


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
    them (:func:`_table_sweep` keeps the integral of the pair's new G+).
    After a jump the iterate is the other buffer set.

    The returned components are fresh arrays; the sweep stops once its
    sup-norm change delta is <= ``SWEEP_TOL``.  For a Jacobi sweep x -> F(x)
    (bidding), delta is the operator residual |F(x) - x| of the last iterate
    swept.  The pair sweep is Gauss-Seidel: its G- update reads the new G+,
    so delta bounds the Jacobi residual of that iterate by (1 + c) delta,
    and of the returned pair by 2 c delta, where c = (|x_min| + k)/rho is
    the largest change of one component of F per unit sup-norm change of
    one component of its argument: the window adds |x_min|, and the tail
    closure k = integral_0^1 u w(u) du, with w its weight (1/rho)
    e^{2s(1-u)} on C+ (k = (e^{2s} - 1 - 2s)/(4 s^2 rho); c is about 2.7
    near s_* at x_min = -4).  Raises DomainError, before the first sweep,
    unless ``max_iter`` >= 1.
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


def _profile(kind, s: float, grid: GridSpec, lefts,
             max_iter: int = DEFAULT_MAX_ITER):
    """The one constructor of both problems: the profile of type ``kind`` at
    ``s`` on ``grid`` with left parts ``lefts``, one array per component,
    or None to sweep from zero with ``kind.sweep`` to ``SWEEP_TOL`` (at
    most ``max_iter`` sweeps).

    ``kind.closed_form(s)`` gives rho, chi, the fields after chi, each
    component's right part and, at the doubly resonant endpoint, the
    coefficients c_k of the exact left parts c_k e^{root x}, root the slow
    root of ``kind.closure``, which also continues each below the window.
    Elsewhere the right component of every row with a unit-shifted term
    kinks at x = -1, every component breaks at the :func:`_unit_breaks`,
    and the tails are :func:`_tails`'.
    """
    rho, chi, fields, rights, exact = kind.closed_form(s)
    width = len(rights)
    iterations, final_delta = 0, math.nan
    if exact is not None:
        root, _ = kind.closure(s, rho)
        kinks, breaks = ((),) * width, ()
        if lefts is None:
            e = np.exp(root * grid.positions)
            lefts, final_delta = tuple(c * e for c in exact), 0.0
    else:  # a row integrating to x + 1 meets the jump at 0 at x = -1
        kinked = {c.right for c in kind.conditions if c.terms[0][1]}
        kinks = tuple((grid.m - grid.steps_per_unit,) if k in kinked else ()
                      for k in range(width))
        breaks = _unit_breaks(grid)  # G'' at -2, G+'' at -1, G-''' at -2
    if lefts is None:
        lefts, iterations, final_delta = _iterate_to_fixed_point(
            kind.sweep(rights, rho, grid, s, kinks),
            (np.zeros(grid.m + 1),) * width, max_iter)
    tails = _derived_tails(kind, s, rho, exact, lefts, grid)
    gs = [GridFunction(grid=grid, left_values=left, right_pieces=right,
                       tail=tail, kink_nodes=k, slope_breaks=breaks)
          for left, right, tail, k in zip(lefts, rights, tails, kinks)]
    p = kind(s, rho, chi, *fields, *gs, iterations, final_delta)
    p.derived = tuple(gs)
    return p


def _derived_tails(kind, s: float, rho: float, exact, lefts,
                   grid: GridSpec) -> tuple[Tail, ...]:
    """The tails of a profile's components: at the doubly resonant endpoint
    (``exact`` not None), its left parts' own exponentials; elsewhere
    :func:`_tails`'."""
    if exact is None:
        return _tails(kind, s, rho, lefts, grid)
    root, _ = kind.closure(s, rho)
    return tuple(Tail.exponential(root, float(v[0])) for v in lefts)


def build_profile(s: float, x_min: float = DEFAULT_X_MIN, h: float = DEFAULT_H,
                  max_iter: int = DEFAULT_MAX_ITER) -> BiddingProfile:
    """Construct the optimal (rho(s), chi(s))-bidding profile.

    The right part is the closed form; the left part is the monotone limit
    of operator sweeps starting from zero, stopped once the sup-norm change
    per sweep is at most ``SWEEP_TOL``.  The sweeps take the mass below
    ``x_min`` from the exact closure over the window's first unit (see
    ``BiddingProfile.closure``), so the window need not reach the
    asymptotic decay.
    Below the window the stored tail is the first characteristic modes
    of the delayed equation, projected from the window's first unit
    (:func:`_tails`).
    """
    return _profile(BiddingProfile, s, make_grid(x_min, h), None, max_iter)


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
    quadrature, and on the stored model at 100 evenly spaced x in
    [x_min - 3, x_min), on the tail, and at 400 log-spaced x in (0, 10]:
    each residual C(x) - rho G(x) must stay below ``TOL_REL`` relative to
    rho max(G(x), 0) plus the floor ``ATOL_FLOOR`` (which keeps roundoff deep
    in the tail, where G underflows the build tolerance, from counting), and
    a failure names the condition and x of the worst.  On (0, 10] each
    condition's right component must be positive (the first x where it is
    not is reported), and a ``tight`` condition must hold with equality, to
    ``TOL_REL`` relative there and to 1e-5 absolute at 0+.  Tightness is the
    largest absolute node residual.  The consistency, the first condition's
    C(0), may exceed chi by at most ``TOL_ABS`` and by at most ``TOL_REL``
    chi, which binds where chi < 1 (linear search).  Each component's
    tail must match the one the profile's left values project to
    (:func:`_derived_tails`) to ``TOL_REL`` relative at the 100 tail
    points, with no floor; a profile that ``_profile`` built or loaded
    carries the tails it derived, which are not projected again.
    Component names in the failures come from ``p.names``.
    """
    gs, rho, names = p.components, p.rho, p.names
    g = gs[0]
    v = g.left_values
    offset_ok = bool(np.all(v[:-1] < 1.0) and v[-1] <= 1.0 + 1e-12
                     and g.right_value_at_zero() >= 1.0 - 1e-12)
    scale = max(1.0, *(float(np.max(c.left_values)) for c in gs))
    # the grid value at 0 meets the closed-form right limit only to
    # quadrature accuracy, and the tail meets G(x_min) only to the modes it
    # omits, so those junctions are held to TOL_REL
    monotone_ok = all(
        c.is_monotone(tol=MONOTONE_TOL * scale, junction_rel=TOL_REL)
        and c.is_nonnegative() for c in gs)

    tail = np.linspace(g.x_min - 3.0, g.x_min, 100, endpoint=False)
    right = np.geomspace(max(g.h, 1e-4), 10.0, 400)
    rows = ([(c, g.grid.positions, _delayed_integral(p, c),
              gs[c.right].left_values) for c in p.conditions]
            + [(c, xs, _delayed_integral(p, c, xs), gs[c.right].value(xs))
               for xs in (tail, right) for c in p.conditions])
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
    if len(p.derived) != len(gs) or any(
            a is not b for a, b in zip(p.derived, gs)):
        *_, exact = p.closed_form(p.s)
        wants = _derived_tails(type(p), p.s, rho, exact,
                               tuple(c.left_values for c in gs), g.grid)
        for name, c, want in zip(names, gs, wants):
            ref = want.value(tail - g.x_min)
            off = np.abs(c.tail.value(tail - g.x_min) - ref)
            with np.errstate(divide="ignore", invalid="ignore"):
                off = np.where(off > 0.0, off / ref, 0.0)
            i = int(np.argmax(off))
            if not off[i] <= TOL_REL:
                failures.append(f"tail: {name} is {off[i]:.3e} off its "
                                f"projection, relative, at "
                                f"x = {tail[i]:.6g}")
    if max_rel > TOL_REL:
        cond, x = [(c, x) for c, xs, _, _ in rows for x in xs][worst]
        failures.append(f"robustness: relative residual {max_rel:.3e} > "
                        f"{TOL_REL} in {cond.name} at x = {x:.6g}")
    if not gap <= min(TOL_ABS, TOL_REL * p.chi):  # a nan chi fails
        failures.append(f"consistency: C(0) exceeds chi by {gap:.3e}")
    for cond, xs, c, gx in rows[-len(p.conditions):]:  # on (0, 10]
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
    the input's.  Sweeps stop as a build's do, at ``SWEEP_TOL``, and close
    the tail at the slow root s = -W0(-1/rho) of e^s = rho s, which is
    real for rho >= e (the rho of every bidding profile, e^s/s); a smaller
    rho raises DomainError.  The returned tail is derived from the new
    left part as a build's is (:func:`_tails`).
    """
    if not rho >= math.e:
        raise DomainError(f"tighten needs rho >= e, got rho={rho!r}")
    s = -lambert_w0(-1.0 / rho)
    (left,), _, _ = _iterate_to_fixed_point(
        _sweep((g.right_pieces,), rho, g.grid, s, (g.kink_nodes,)),
        (g.left_values,), DEFAULT_MAX_ITER)
    (tail,) = _tails(BiddingProfile, s, rho, (left,), g.grid)
    return replace(g, left_values=left, tail=tail)
