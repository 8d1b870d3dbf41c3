"""Numerical representation of non-decreasing profile functions.

A :class:`GridFunction` stores a profile G in three zones:

* an analytic exponential tail ``G(x_min) * exp(rate * (x - x_min))`` on
  ``(-inf, x_min]``, which continues the grid zone from its first value,
* sampled values on a uniform grid over ``[x_min, 0]``, modelled between
  nodes by a monotone cubic Hermite interpolant (the stored value at 0 is
  the left limit G(0)),
* an ordered list of analytic :class:`Piece` objects on ``(0, inf)``, each a
  constant plus a sum of exponentials on a half-open interval ``(lo, hi]``.

On the grid zone, integrals over whole cells are endpoint-corrected
trapezoid sums (see :func:`cumulative_integral`) and a partial cell
integrates the Hermite model; the two analytic zones integrate in closed
form, so the quadrature error comes only from the grid zone.

The grid step is snapped so that an integer number of steps spans one unit;
shifts by one unit (the delayed argument x+1 in the profile equations) are
then exact index shifts and never drift off the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import DomainError

__all__ = ["Piece", "GridFunction", "Lanes", "make_grid", "GridSpec",
           "cumulative_integral"]

# The most nodes a grid may hold: about 1000 times the default grid's 10 001.
# Every array over the window costs 8 bytes a node.
MAX_NODES = 10**7

# h times these weights is the corrected trapezoid's increment into node j
# from v[j], v[j-1], v[j-2], v[j-3] (np.convolve reverses the kernel)
_ADAMS_MOULTON = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def cumulative_integral(values: np.ndarray, h: float,
                        kinks: tuple[int, ...] = (),
                        out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative integral of grid samples with endpoint-corrected trapezoid.

    Composite trapezoid plus the Euler-Maclaurin h^2 endpoint term
    -(h^2/12) (f'(b) - f'(a)), with one-sided three-point difference
    stencils for the derivatives.  ``kinks`` lists interior node indices
    where the integrand has a derivative jump; the correction is applied
    per smooth segment, i.e. each kink contributes its one-sided
    derivative difference.  For smooth integrands this is O(h^4) accurate;
    undeclared kinks degrade it gracefully to the trapezoid's O(h^2).

    Telescoped, the correction leaves a fixed increment per step: the
    integral to node j >= 4 adds h (9 v[j] + 19 v[j-1] - 5 v[j-2]
    + v[j-3]) / 24 to the one before (the Adams-Moulton weights), and the
    integral to node 3 is Simpson's 3/8 rule.  So the integral is one
    4-tap convolution, a few scalar edits (the first entries and the kink
    fixes) and one cumulative sum.

    Every composite weight remains non-negative: without kinks each node
    at or below the endpoint weighs between 3h/8 and 7h/6, and a kink fix
    shifts weights by at most 7h/24, so integration preserves pointwise
    order between integrands - a property the profile operator relies on.

    The first three entries skip the correction: their stencils would
    overlap, and windows start deep enough that nothing measurable lives
    there.

    The result is h times a sum of the values, so a step of h / rho
    integrates values / rho.  ``out``, when given, is a float array of
    ``values``' size that must not overlap it; the integral is written there
    and returned, and the only other array allocated is the convolution's.
    The result is bit-identical either way.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if out is None:
        out = np.empty(n)
    out[0] = 0.0
    if n < 4:  # the plain trapezoid
        np.add(v[1:], v[:-1], out=out[1:])
        out[1:] *= 0.5 * h
        np.cumsum(out[1:], out=out[1:])
        return out
    out[1] = 0.5 * h * (v[0] + v[1])
    out[2] = out[1] + 0.5 * h * (v[1] + v[2])
    # inc[j - 3] is the increment into node j; node 3's becomes its integral
    inc = np.convolve(v, _ADAMS_MOULTON * h, "valid")
    inc[0] = 0.375 * h * (v[0] + v[3] + 3.0 * (v[1] + v[2]))
    c = h / 24.0  # (h^2 / 12) times the stencils' 1 / (2h)
    for k in kinks:
        if 3 <= k <= n - 3:
            # split the correction at the kink: each side takes its own
            # one-sided derivative; at node k+1 the endpoint stencil also
            # straddles the kink (every touched node stays at or below the
            # endpoint, keeping every composite weight non-negative)
            back_k = 3.0 * v[k] - 4.0 * v[k - 1] + v[k - 2]
            back_k1 = 3.0 * v[k + 1] - 4.0 * v[k] + v[k - 1]
            fwd_k = -3.0 * v[k] + 4.0 * v[k + 1] - v[k + 2]
            inc[k - 2] += c * (back_k1 - back_k)
            inc[k - 1] += c * (fwd_k - back_k1)
    np.cumsum(inc, out=out[3:])
    return out


@dataclass(frozen=True)
class Piece:
    """Analytic segment ``level + sum_k a_k exp(r_k (x - x0_k))`` on (lo, hi]."""

    lo: float
    hi: float  # math.inf for the last segment
    level: float = 0.0
    terms: tuple[tuple[float, float, float], ...] = ()  # (a, rate, anchor)

    # The sum's limit where terms of both signs overflow (inf - inf = nan):
    # that of the fastest-growing term.  None when the signs agree, so such
    # a piece never overflows into a nan and its values pay no guard.
    _far_limit: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        limit = None
        if (any(a > 0.0 for a, _, _ in self.terms)
                and any(a < 0.0 for a, _, _ in self.terms)):
            a = max(self.terms, key=lambda term: term[1])[0]
            limit = math.copysign(math.inf, a)
        object.__setattr__(self, "_far_limit", limit)

    @staticmethod
    def constant(level: float, lo: float, hi: float) -> "Piece":
        return Piece(lo=lo, hi=hi, level=level)

    @staticmethod
    def exponential(a: float, rate: float, anchor: float,
                    lo: float, hi: float) -> "Piece":
        return Piece(lo=lo, hi=hi, terms=((a, rate, anchor),))

    def value(self, x):
        xa = np.asarray(x, dtype=float)
        if self._far_limit is None:
            out = self._sum(xa)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                out = self._sum(xa)
            out = np.where(np.isnan(out) & ~np.isnan(xa), self._far_limit,
                           out)
        return out if out.ndim else float(out)

    def _sum(self, xa: np.ndarray):
        out = np.full_like(xa, self.level)
        for a, r, x0 in self.terms:
            out = out + a * np.exp(r * (xa - x0))
        return out

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] intersected with (lo, hi]."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b <= a:
            return 0.0
        total = self.level * (b - a)
        for c, r, x0 in self.terms:
            total += (c / r) * (math.exp(r * (b - x0)) - math.exp(r * (a - x0)))
        return total

    def integrals(self, a: float, b: np.ndarray) -> np.ndarray:
        """:meth:`integral` over [a, b_i] for each b_i of an array, equal to
        it bit for bit.

        The exponentials are math.exp's, as in :meth:`integral`: np.exp
        rounds differently on some inputs, and the integrals reach 1e11 on
        the verification grid, where a last-bit change is 1e-5.
        """
        a = max(a, self.lo)
        b = np.minimum(b, self.hi)
        total = self.level * (b - a)
        for c, r, x0 in self.terms:
            grow = np.fromiter(map(math.exp, (r * (b - x0)).tolist()), float,
                               b.size)
            total += (c / r) * (grow - math.exp(r * (a - x0)))
        return np.where(b > a, total, 0.0)

    def crossing(self, target: float) -> float | None:
        """Smallest x in (lo, hi] with value(x) >= target, or None.

        Assumes the piece is non-decreasing.  Single-exponential pieces are
        inverted in closed form; sums fall back to bisection.
        """
        lo_val = self.value(np.nextafter(self.lo, math.inf))
        if lo_val >= target:
            return self.lo
        hi = self.hi
        if math.isinf(hi):
            hi = self.lo + 1.0
            while self.value(hi) < target:
                hi = 2.0 * hi - self.lo + 1.0
                if math.isinf(hi):
                    return None  # bounded below the target
        elif self.value(hi) < target:
            return None
        if self.level == 0.0 and len(self.terms) == 1:
            a, r, x0 = self.terms[0]
            return min(max(x0 + math.log(target / a) / r, self.lo), hi)
        lo = self.lo
        for _ in range(200):
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if self.value(mid) < target:
                lo = mid
            else:
                hi = mid
        return hi


@dataclass(frozen=True)
class GridSpec:
    """Snapped uniform grid over [x_min, 0]: positions (i - m) * h, i = 0..m."""

    x_min: float
    h: float
    m: int            # number of steps, position index of x = 0
    steps_per_unit: int

    @property
    def positions(self) -> np.ndarray:
        return (np.arange(self.m + 1) - self.m) * self.h


def make_grid(x_min: float, h: float) -> GridSpec:
    """The grid over [x_min, 0] whose step is h snapped to a whole number of
    steps per unit; ValueError unless it has at least 8 steps per unit, spans
    at least one unit and holds at most ``MAX_NODES`` nodes."""
    if not (h > 0 and x_min < 0 and math.isfinite(x_min / h)
            and math.isfinite(1.0 / h)):
        raise ValueError(f"need h > 0 and x_min < 0 with finitely many steps, "
                         f"got h={h}, x_min={x_min}")
    n = round(1.0 / h)
    if n < 8:
        raise ValueError(f"grid step {h} too coarse: fewer than 8 steps per unit")
    h = 1.0 / n
    m = round(-x_min / h)
    if m < n:
        raise ValueError(f"window [{x_min}, 0] must span at least one unit")
    if m + 1 > MAX_NODES:
        raise ValueError(f"grid of {m + 1} nodes exceeds the cap of "
                         f"{MAX_NODES}: use a larger h or a shorter window")
    return GridSpec(x_min=-m * h, h=h, m=m, steps_per_unit=n)


def _hermite_basis(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cubic Hermite basis at in-cell fractions u: the weights of the
    left value, left slope, right value and right slope (slopes in units of
    one cell)."""
    u2 = u * u
    u3 = u2 * u
    return (2.0 * u3 - 3.0 * u2 + 1.0, u3 - 2.0 * u2 + u,
            -2.0 * u3 + 3.0 * u2, u3 - u2)


class Lanes:
    """The points k + u of fixed lanes u in (0, 1], for integer k, on one grid.

    A unit holds ``steps_per_unit`` cells, so k + u lies in cell
    ``m + k * steps_per_unit + cell`` at the same in-cell fraction for
    every k.  The cells, the Hermite basis weights of the fractions (a
    node is the right end of its cell) and each ``e^{rate u}`` are
    computed once here; :meth:`GridFunction.lane_values` then evaluates a
    step k from them.
    """

    def __init__(self, grid: GridSpec, u: np.ndarray):
        t = u * grid.steps_per_unit
        cell = np.ceil(t) - 1.0
        self.grid = grid
        self.u = u
        self.u_min = float(u.min())
        self.weights = _hermite_basis(t - cell)
        self.cell = cell.astype(np.intp)
        self.cell_range = (int(self.cell.min()), int(self.cell.max()))
        self._growth: dict[float, np.ndarray] = {}

    def growth(self, rate: float) -> np.ndarray:
        """e^{rate u}, computed once per rate."""
        g = self._growth.get(rate)
        if g is None:
            g = self._growth[rate] = np.exp(rate * self.u)
        return g


@dataclass
class GridFunction:
    """A non-decreasing profile on the real line; immutable after creation.

    Below the window the tail ``tail_coeff * exp(tail_rate * (x - x_min))``
    continues the grid: ``tail_coeff`` is the first grid value.
    ``kink_nodes`` lists grid indices where the stored function has a
    derivative jump (profiles built from the delayed integral equation kink
    at x = -1 when the right part jumps at 0); integrals split the
    quadrature correction there.  Between nodes the function is modelled as
    a monotone cubic Hermite interpolant, so point evaluation, level
    crossings, and partial-cell integrals are all fourth-order accurate on
    smooth stretches.
    """

    grid: GridSpec
    left_values: np.ndarray
    right_pieces: tuple[Piece, ...]
    tail_rate: float
    kink_nodes: tuple[int, ...] = ()

    _cum: np.ndarray = field(init=False, repr=False)
    _slope_right: np.ndarray = field(init=False, repr=False)
    _slope_left: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.left_values = np.asarray(self.left_values, dtype=float)
        if self.left_values.shape != (self.grid.m + 1,):
            raise ValueError("left_values length does not match the grid")
        # corrected cumulative integral over the grid zone,
        # _cum[i] = int_{x_min}^{x_i}
        self._cum = cumulative_integral(self.left_values, self.grid.h,
                                        kinks=self.kink_nodes)
        # node slopes in units of one cell (derivative times h), as the
        # Hermite basis weighs them
        self._slope_right, self._slope_left = self._fit_slopes()
        self._slope_right *= self.h
        self._slope_left *= self.h

    @staticmethod
    def _segment_slopes(v: np.ndarray, h: float) -> np.ndarray:
        """Fourth-order derivative stencils on one smooth segment."""
        n = v.size
        d = np.empty_like(v)
        if n >= 5:
            d[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        if n >= 3:
            d[1] = (v[2] - v[0]) / (2.0 * h)
            d[-2] = (v[-1] - v[-3]) / (2.0 * h)
            d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        else:
            d[:] = (v[-1] - v[0]) / ((n - 1) * h) if n > 1 else 0.0
        return d

    def _fit_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell node derivatives, fitted per smooth segment.

        Returns (d_right, d_left): the slope to use at a node as the left
        end of its right cell, and as the right end of its left cell.  They
        differ only at declared kink nodes, where each side is fitted from
        its own segment.  Slopes are capped at three times the adjacent
        secants (Fritsch-Carlson condition), which never binds on smooth
        exponential data but keeps the Hermite model monotone.
        """
        v, h = self.left_values, self.grid.h
        n = v.size
        bounds = sorted({0, n - 1} | {k for k in self.kink_nodes
                                      if 0 < k < n - 1})
        d_right = np.empty_like(v)
        d_left = np.empty_like(v)
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = self._segment_slopes(v[a:b + 1], h)
            d_right[a:b + 1] = seg
            d_left[a + 1:b + 1] = seg[1:]
        d_left[0] = d_right[0]
        sec = np.diff(v) / h
        cap_r = 3.0 * np.concatenate((sec, [sec[-1]]))
        cap_l = 3.0 * np.concatenate(([sec[0]], sec))
        return (np.clip(d_right, 0.0, np.maximum(cap_r, 0.0)),
                np.clip(d_left, 0.0, np.maximum(cap_l, 0.0)))

    # -- basic geometry -------------------------------------------------

    @property
    def x_min(self) -> float:
        return self.grid.x_min

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def tail_coeff(self) -> float:
        """The tail's value at x_min: the first grid value."""
        return float(self.left_values[0])

    @property
    def tail_mass(self) -> float:
        """Closed-form mass below x_min: coeff / rate."""
        return self.tail_coeff / self.tail_rate

    def right_value_at_zero(self) -> float:
        """Right limit G(0+), from the first analytic piece."""
        first = self.right_pieces[0]
        return float(first.value(np.nextafter(0.0, 1.0)))

    # -- evaluation ------------------------------------------------------

    def _hermite(self, x: np.ndarray) -> np.ndarray:
        """Cubic Hermite model on the grid zone; x within (x_min, 0]."""
        t = (x - self.x_min) / self.h
        i = np.clip(t.astype(int), 0, self.grid.m - 1)
        weights = _hermite_basis(t - i)
        del t
        return self._hermite_sum(weights, i)

    def _hermite_sum(self, weights: tuple[np.ndarray, ...],
                     i: np.ndarray) -> np.ndarray:
        """The Hermite model at basis ``weights`` in cells ``i``: the four
        terms summed left to right with one node gather alive at a time."""
        w0, w1, w2, w3 = weights
        out = w0 * self.left_values[i]
        out += w1 * self._slope_right[i]
        out += w2 * self.left_values[1:][i]
        out += w3 * self._slope_left[1:][i]
        return out

    def _hermite_cell_integral(self, i: int, u: float) -> float:
        """Integral of the Hermite model over [x_i, x_i + u h], u in [0, 1]."""
        p0 = self.left_values[i]
        p1 = self.left_values[i + 1]
        m0 = self._slope_right[i]
        m1 = self._slope_left[i + 1]
        u2 = u * u
        u3 = u2 * u
        u4 = u3 * u
        val = ((0.5 * u4 - u3 + u) * p0 + (0.25 * u4 - 2.0 * u3 / 3.0 + 0.5 * u2) * m0
               + (-0.5 * u4 + u3) * p1 + (0.25 * u4 - u3 / 3.0) * m1)
        return val * self.h

    def value(self, x):
        """Evaluate G(x); left-continuous, vectorized.

        At grid nodes the stored value is returned (at x = 0 this is the
        left limit); between nodes the monotone cubic Hermite model.  A nan
        point lies in no zone and gives nan.
        """
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa)
        out = np.full_like(xa, np.nan)
        zone = xa <= self.x_min
        if zone.any():
            out[zone] = self.tail_coeff * np.exp(
                self.tail_rate * (xa[zone] - self.x_min))
        right = xa > 0.0
        zone = (xa > self.x_min) & ~right
        if zone.any():
            out[zone] = self._hermite(xa[zone])
        if right.any():
            for piece in self.right_pieces:
                zone = (xa > piece.lo) & (xa <= piece.hi)
                if zone.any():
                    out[zone] = piece.value(xa[zone])
        return float(out[0]) if scalar else out

    def lane_values(self, lanes: Lanes, k: int) -> np.ndarray:
        """G(k + u) for the ``lanes`` u, as ``value(k + lanes.u)`` up to
        rounding.

        A step whose points all lie in the grid zone is an index add, four
        gathers and a weighted sum; one whose points all lie on the last
        right piece is a scalar per term times ``e^{rate u}``.  A step that
        crosses a zone boundary or lands elsewhere calls :meth:`value`.
        """
        if lanes.grid != self.grid:
            raise ValueError("lanes were laid out on another grid")
        m = self.grid.m
        base = m + k * self.grid.steps_per_unit
        lo, hi = lanes.cell_range
        if base + lo >= 0 and base + hi < m:
            return self._hermite_sum(lanes.weights, lanes.cell + base)
        last = self.right_pieces[-1]
        if k + lanes.u_min > last.lo:
            out = np.full(lanes.u.size, last.level)
            for a, r, x0 in last.terms:
                out += lanes.growth(r) * (a * np.exp(r * (k - x0)))
            return out
        return self.value(k + lanes.u)

    def integral_to(self, x: float) -> float:
        """A(x) = integral of G over (-inf, x]; exact for the stored model."""
        if x <= self.x_min:
            return float(self.tail_mass * math.exp(self.tail_rate * (x - self.x_min)))
        total = self.tail_mass
        if x <= 0.0:
            pos = (x - self.x_min) / self.h
            i = min(int(pos), self.grid.m - 1)
            total += self._cum[i]
            u = pos - i
            if u > 0.0:
                total += self._hermite_cell_integral(i, u)
            return float(total)
        total += self._cum[self.grid.m]
        for piece in self.right_pieces:
            if x <= piece.lo:
                break
            total += piece.integral(piece.lo, x)
        return float(total)

    def integrals_right(self, x: np.ndarray) -> np.ndarray:
        """A(x) at every point of an array x > 0, as :meth:`integral_to`
        sums it one point at a time."""
        total = np.full(x.shape, self.tail_mass)
        total += self._cum[self.grid.m]
        for piece in self.right_pieces:
            total += piece.integrals(piece.lo, x)
        return total

    def tau(self, target: float) -> float:
        """sup { t : G(t) < target } for a positive finite target.

        Supremum semantics: a plateau at a value below ``target`` is included
        up to its right end; points where G equals ``target`` are excluded.
        Raises DomainError for any other target, or when G stays below
        ``target`` everywhere.
        """
        if not 0.0 < target < math.inf:
            raise DomainError(
                f"tau requires a positive finite target, got {target!r}")
        v = self.left_values
        if target <= v[0]:
            return self.x_min + math.log(target / v[0]) / self.tail_rate
        if target <= v[-1]:
            # v[i-1] < target <= v[i] with i >= 1: a crossing in (i-1, i]
            i = int(np.searchsorted(v, target, side="left"))
            # grid.positions[i - 1] and [i], without building the positions
            lo = (i - 1 - self.grid.m) * self.h
            hi = (i - self.grid.m) * self.h
            if v[i] == v[i - 1]:
                return hi
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(self._hermite(np.array([mid]))[0]) < target:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-16 * max(1.0, abs(hi)):
                    break
            return hi
        for piece in self.right_pieces:
            c = piece.crossing(target)
            if c is not None:
                return c
        raise DomainError(f"the profile never reaches the target {target!r}")

    # -- invariants -------------------------------------------------------

    def is_monotone(self, tol: float = 0.0,
                    junction_tol: float | None = None) -> bool:
        """No drop larger than ``tol`` anywhere, except at the x = 0
        junction of the grid and the right part, held to ``junction_tol``
        (default ``tol``)."""
        if np.any(np.diff(self.left_values) < -tol):
            return False
        prev = float(self.left_values[-1])
        drop_tol = tol if junction_tol is None else junction_tol
        for piece in self.right_pieces:
            lo_val = float(piece.value(np.nextafter(piece.lo, math.inf)))
            if lo_val < prev - drop_tol:
                return False
            drop_tol = tol
            hi = piece.hi if not math.isinf(piece.hi) else piece.lo + 50.0
            xs = np.linspace(piece.lo + 1e-12, hi, 257)
            vals = piece.value(xs)
            if np.any(np.diff(vals) < -tol * max(1.0, float(np.max(np.abs(vals))))):
                return False
            prev = float(vals[-1])
        return True

    def is_nonnegative(self) -> bool:
        """No negative values anywhere; underflowed-to-zero tails allowed."""
        return bool(np.all(self.left_values >= 0.0)) \
            and float(self.left_values[-1]) > 0.0
