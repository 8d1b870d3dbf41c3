"""Numerical representation of non-decreasing profile functions.

A :class:`GridFunction` stores a profile G in three zones:

* an analytic :class:`Tail` on ``(-inf, x_min)``: a short sum of
  exponential modes ``Re(c e^{lam (x - x_min)})``, one real and a few
  complex, each complex rate standing with its conjugate,
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

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import DomainError, _level_search

__all__ = ["Piece", "Tail", "GridFunction", "Lanes", "make_grid", "GridSpec",
           "cumulative_integral"]

# The most nodes a grid may hold: about 4000 times the default grid's 2 501.
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

        Assumes the piece is non-decreasing.  A single exponential inverts
        in closed form; a sum is bracketed (by doubling on an unbounded
        piece) and bisected by :func:`_level_search`.
        """
        if self.value(np.nextafter(self.lo, math.inf)) >= target:
            return self.lo
        single = self.level == 0.0 and len(self.terms) == 1
        hi = self.hi
        if math.isinf(hi) and not single:
            hi = self.lo + 1.0
            while self.value(hi) < target:
                hi = 2.0 * hi - self.lo + 1.0
                if math.isinf(hi):
                    return None  # bounded below the target
        elif self.value(hi) < target:
            return None
        if single:
            a, r, x0 = self.terms[0]
            return min(max(x0 + math.log(target / a) / r, self.lo), hi)
        return _level_search(self.value, target, self.lo, hi)


@dataclass(frozen=True)
class Tail:
    """A profile below its window: ``sum_j Re(c_j e^{lam_j t})`` at
    ``t = x - x_min < 0`` over the ``modes`` (lam_j, c_j).

    The first mode is real: its rate and coefficient are floats.  Each later
    one is complex and stands with its conjugate, so its c_j is twice the
    coefficient of e^{lam_j t} alone.  A tail of one mode is one
    exponential.  :meth:`terms` evaluates the modes at one t, for every
    scalar use, and :meth:`value` at an array of t, with numpy; every sum
    runs over the modes in order.
    """

    modes: tuple[tuple[complex, complex], ...]

    @staticmethod
    def exponential(rate: float, coeff: float) -> "Tail":
        return Tail(((rate, coeff),))

    @property
    def rate(self) -> float:
        """The real mode's rate."""
        return self.modes[0][0]

    @property
    def coeff(self) -> float:
        """The real mode's coefficient at t = 0."""
        return self.modes[0][1]

    @functools.cached_property
    def mass(self) -> float:
        """The integral over t < 0."""
        return self.integral(0.0)

    def terms(self, t: float, steps: int = 1) -> list[tuple[complex, complex]]:
        """(lam_j, z_j) for each mode: z_j = c_j e^{lam_j t}, or with
        ``steps`` its sum over the unit steps t, t + 1, ..., t + steps - 1,
        in closed form."""
        out = []
        for lam, c in self.modes:
            z = c * cmath.exp(lam * t)
            if steps > 1:
                z *= (cmath.exp(lam * steps) - 1.0) / (cmath.exp(lam) - 1.0)
            out.append((lam, z))
        return out

    def value(self, t: np.ndarray, integral: bool = False) -> np.ndarray:
        """The tail at an array of t, or with ``integral`` its integral
        from -inf to each t."""
        out = np.zeros(t.shape)
        for lam, c in self.modes:
            out += ((c / lam if integral else c) * np.exp(lam * t)).real
        return out

    def at(self, t: float) -> float:
        """:meth:`value` at one t."""
        return sum(z.real for _, z in self.terms(t))

    def integral(self, t: float) -> float:
        """The integral from -inf to t <= 0."""
        return sum((z / lam).real for lam, z in self.terms(t))

    def is_monotone(self) -> bool:
        """Whether the tail is certainly positive and increasing on t < 0:
        a positive real mode whose slope bounds the sum of the moduli of
        the others' (each complex mode decays faster than the real one,
        so their share is largest at t = 0)."""
        (r, c), *waves = self.modes
        return (0.0 < c * r < math.inf and all(
            lam.real > r for lam, _ in waves)
            and math.fsum(abs(lam * c) for lam, c in waves) <= c * r)


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


@functools.lru_cache(maxsize=64)
def _unit_table(lam: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts of e^{lam j/n}, j = 0..n."""
    e = np.exp(lam * (np.arange(n + 1) / n))
    return e.real.copy(), e.imag.copy()


def _unit_exp(lam: complex,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The real and imaginary parts of e^{lam u} at the points u of [0, 1];
    for a real lam, e^{lam u} and None.

    For a complex lam, with n = 16 ceil|Im lam|, it is e^{lam j/n} at
    j = floor(u n), from a table of n + 1, times e^{lam y} for the rest
    y = u - j/n < 1/n: e^{y Re lam} times the cos and sin of
    x = y Im lam, |x| < 1/16, by their series to x^7 (to 6e-15 relative).
    That is a real exp and a few real products per point, three times
    faster than numpy's complex exp, and no temporary is larger than u.
    """
    if not isinstance(lam, complex):
        return np.exp(lam * u), None
    n = 16 * max(1, math.ceil(abs(lam.imag)))
    j = (u * n).astype(np.intp)
    tr, ti = (part[j] for part in _unit_table(lam, n))  # e^{lam j/n}
    y = j / n
    del j
    np.subtract(u, y, out=y)
    x = y * lam.imag
    y *= lam.real
    e = np.exp(y, out=y)
    x2 = x * x
    # Horner in x^2, in place: sin to x^7, then cos to x^6 in x's array
    sin = x2 * (-1.0 / 5040.0)
    for c in (1.0 / 120.0, -1.0 / 6.0):
        sin += c
        sin *= x2
    sin += 1.0
    sin *= x
    cos = np.multiply(x2, -1.0 / 720.0, out=x)
    for c in (1.0 / 24.0, -0.5):
        cos += c
        cos *= x2
    cos += 1.0
    del x2
    cos *= e
    sin *= e
    re = np.multiply(tr, cos, out=e)  # times tr + i ti
    cos *= ti
    ti *= sin
    re -= ti
    sin *= tr
    sin += cos
    return re, sin


class Lanes:
    """The points k + u of fixed lanes u in (0, 1], for integer k, on one grid.

    A unit holds ``steps_per_unit`` cells, so k + u lies in cell
    ``m + k * steps_per_unit + cell`` at the same in-cell fraction for
    every k.  The cells, the Hermite basis weights of the fractions (a
    node is the right end of its cell) and each ``e^{rate u}`` are computed
    once here, the last two when first read; :meth:`GridFunction.lane_values`
    then evaluates a step k from them.  ``waves`` holds the ``e^{rate u}``
    by rate; a walk clears it once it leaves the tail.
    """

    def __init__(self, grid: GridSpec, u: np.ndarray):
        self.grid = grid
        self.u = u
        self.u_min = float(u.min())
        self.u_max = float(u.max())
        self.cell = (np.ceil(u * grid.steps_per_unit) - 1.0).astype(np.intp)
        self.cell_range = (int(self.cell.min()), int(self.cell.max()))
        self.waves: dict[complex, tuple] = {}

    @functools.cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """The Hermite basis weights of the fractions."""
        return _hermite_basis(self.u * self.grid.steps_per_unit - self.cell)

    def wave(self, rate: complex) -> tuple[np.ndarray, np.ndarray | None]:
        """The real and imaginary parts of e^{rate u} (:func:`_unit_exp`),
        computed once per rate."""
        w = self.waves.get(rate)
        if w is None:
            w = self.waves[rate] = _unit_exp(rate, self.u)
        return w


@dataclass(frozen=True)
class GridFunction:
    """A non-decreasing profile on the real line; immutable after creation:
    its fields cannot be assigned, and its arrays (``left_values``, a copy
    of the one given, and those derived from it) are read-only.

    Below the window, on x < x_min, the :class:`Tail` ``tail`` continues the
    grid, whose first node x_min it leaves to the grid zone.
    ``kink_nodes`` lists grid indices where the stored function has a
    derivative jump (profiles built from the delayed integral equation kink
    at x = -1 when the right part jumps at 0); integrals split the
    quadrature correction there.  Between nodes the function is modelled as
    a monotone cubic Hermite interpolant, so point evaluation, level
    crossings, and partial-cell integrals are all fourth-order accurate on
    smooth stretches.  The node slopes are fitted per segment between the
    kinks and the ``slope_breaks``: nodes where a higher derivative jumps
    (a delayed equation carries the jump at 0 on, one order smoother per
    unit, to x = -1, -2, ...), so that no slope stencil straddles one.
    """

    grid: GridSpec
    left_values: np.ndarray
    right_pieces: tuple[Piece, ...]
    tail: Tail
    kink_nodes: tuple[int, ...] = ()
    slope_breaks: tuple[int, ...] = ()

    _cum: np.ndarray = field(init=False, repr=False)
    _slope_right: np.ndarray = field(init=False, repr=False)
    _slope_left: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        left = np.array(self.left_values, dtype=float)
        if left.shape != (self.grid.m + 1,):
            raise ValueError("left_values length does not match the grid")
        # corrected cumulative integral over the grid zone,
        # _cum[i] = int_{x_min}^{x_i}
        cum = cumulative_integral(left, self.grid.h, kinks=self.kink_nodes)
        # node slopes in units of one cell (derivative times h), as the
        # Hermite basis weighs them
        right, left_slope = self._fit_slopes(left)
        right *= self.h
        left_slope *= self.h
        for name, a in (("left_values", left), ("_cum", cum),
                        ("_slope_right", right), ("_slope_left", left_slope)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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

    def _fit_slopes(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell node derivatives of the values ``v``, fitted per smooth
        segment.

        Returns (d_right, d_left): the slope to use at a node as the left
        end of its right cell, and as the right end of its left cell.  They
        differ only at kink nodes and slope breaks, where each side is
        fitted from its own segment.  Slopes are capped at three times the
        adjacent secants (Fritsch-Carlson condition), which never binds on
        smooth exponential data but keeps the Hermite model monotone.
        """
        h = self.grid.h
        n = v.size
        bounds = sorted({0, n - 1} | {k for k in (*self.kink_nodes,
                                                  *self.slope_breaks)
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
        zone = xa < self.x_min
        if zone.any():
            out[zone] = self.tail.value(xa[zone] - self.x_min)
        right = xa > 0.0
        zone = (xa >= self.x_min) & ~right
        if zone.any():
            out[zone] = self._hermite(xa[zone])
        if right.any():
            for piece in self.right_pieces:
                zone = (xa > piece.lo) & (xa <= piece.hi)
                if zone.any():
                    out[zone] = piece.value(xa[zone])
        return float(out[0]) if scalar else out

    def lane_values(self, lanes: Lanes, k: int,
                    last: int | None = None) -> np.ndarray:
        """G(k + u) for the ``lanes`` u, as ``value(k + lanes.u)`` up to
        rounding; with ``last``, the sum of G(j + u) over the steps
        j = k..last.

        A step whose points all lie in the grid zone is an index add, four
        gathers and a weighted sum.  A step or a run of steps whose points
        all lie on the tail (a run must; x_min itself counts as the grid's),
        and a step whose points all lie right of 0, is a scalar per mode or
        term (for the tail, :meth:`Tail.terms`) times ``lanes.wave`` of its
        rate; right of 0 each right piece the points reach takes the lanes
        of its (lo, hi], all of them without a mask where it holds them
        all.  A step that straddles x_min or 0 calls :meth:`value`.
        """
        if lanes.grid != self.grid:
            raise ValueError("lanes were laid out on another grid")
        last = k if last is None else last
        if last + lanes.u_max <= self.x_min:
            out = np.zeros(lanes.u.size)
            for lam, z in self.tail.terms(k - self.x_min, last - k + 1):
                re, im = lanes.wave(lam)
                out += re * z.real
                if im is not None:
                    out -= im * z.imag
            if last + lanes.u_max == self.x_min:  # x_min is a grid point
                on = last + lanes.u == self.x_min
                out[on] += self.left_values[0] - self.tail.at(0.0)
            return out
        if last > k:
            raise ValueError("a run of steps must lie below the window")
        m = self.grid.m
        base = m + k * self.grid.steps_per_unit
        lo, hi = lanes.cell_range
        if base + lo >= 0 and base + hi < m:
            return self._hermite_sum(lanes.weights, lanes.cell + base)
        first, end = k + lanes.u_min, k + lanes.u_max
        if first <= 0.0:
            return self.value(k + lanes.u)
        x = out = None
        for piece in self.right_pieces:
            if end <= piece.lo or first > piece.hi:
                continue
            vals = np.full(lanes.u.size, piece.level)
            for a, r, x0 in piece.terms:
                vals += lanes.wave(r)[0] * (a * np.exp(r * (k - x0)))
            if first > piece.lo and end <= piece.hi:  # it holds every lane
                return vals
            if x is None:
                x, out = k + lanes.u, np.empty(lanes.u.size)
            np.copyto(out, vals, where=(x > piece.lo) & (x <= piece.hi))
        return out

    def integral_to(self, x: float) -> float:
        """A(x) = integral of G over (-inf, x]; exact for the stored model."""
        if x <= self.x_min:
            return float(self.tail.integral(x - self.x_min))
        total = self.tail.mass
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

    def integrals(self, x: np.ndarray) -> np.ndarray:
        """A(x) at every point of an array x, as :meth:`integral_to` sums it
        one point at a time (a cell or piece it skips adds 0.0), on the
        tail by numpy's exp, so there to rounding."""
        total = np.full(x.shape, self.tail.mass)
        tail = x <= self.x_min
        if tail.any():
            total[tail] = self.tail.value(x[tail] - self.x_min, integral=True)
        left, right = (x > self.x_min) & (x <= 0.0), x > 0.0
        pos = (x[left] - self.x_min) / self.h
        i = np.minimum(pos.astype(np.intp), self.grid.m - 1)
        total[left] += self._cum[i]
        total[left] += self._hermite_cell_integral(i, pos - i)
        total[right] += self._cum[self.grid.m]
        for piece in self.right_pieces:
            total[right] += piece.integrals(piece.lo, x[right])
        return total

    def tau(self, target: float) -> float:
        """sup { t : G(t) < target } for a positive finite target.

        Supremum semantics: a plateau at a value below ``target`` is included
        up to its right end; points where G equals ``target`` are excluded.
        Raises DomainError for any other target, or when G stays below
        ``target`` everywhere.

        A one-mode tail inverts in closed form; :func:`_level_search`
        bisects a crossing on a tail of more modes, bracketed around its
        real mode's, and in the window's cell on the Hermite model (40-45
        calls).
        """
        if not 0.0 < target < math.inf:
            raise DomainError(
                f"tau requires a positive finite target, got {target!r}")
        v = self.left_values
        if target <= v[0]:
            return self._tail_tau(target)
        if target <= v[-1]:
            # v[i-1] < target <= v[i] with i >= 1: a crossing in (i-1, i]
            i = int(np.searchsorted(v, target, side="left"))
            return _level_search(lambda x: self._hermite(np.array([x]))[0],
                                 target, (i - 1 - self.grid.m) * self.h,
                                 (i - self.grid.m) * self.h)
        for piece in self.right_pieces:
            c = piece.crossing(target)
            if c is not None:
                return c
        raise DomainError(f"the profile never reaches the target {target!r}")

    def _tail_tau(self, target: float) -> float:
        """tau of a target at most G(x_min): x_min where the tail stays
        below it."""
        tail, x_min = self.tail, self.x_min

        def f(x: float) -> float:
            return tail.at(x - x_min)

        guess = x_min + math.log(target / tail.coeff) / tail.rate
        if len(tail.modes) == 1:
            return guess
        if f(x_min) < target:
            return x_min
        hi = min(guess + 1.0, x_min)
        if f(hi) < target:
            hi = x_min
        lo = min(guess, hi) - 1.0
        while f(lo) >= target:
            lo -= hi - lo
        return _level_search(f, target, lo, hi)

    # -- invariants -------------------------------------------------------

    def is_monotone(self, tol: float = 0.0,
                    junction_rel: float = 0.0) -> bool:
        """No drop larger than ``tol`` anywhere.  At the two junctions, of
        the tail with the grid at x_min and of the grid with the right part
        at 0, where the models meet only to their own accuracy, a drop may
        also reach ``junction_rel`` times the grid value there."""
        v = self.left_values
        if not self.tail.at(0.0) <= v[0] + max(tol, junction_rel * v[0]):
            return False
        if np.any(np.diff(v) < -tol):
            return False
        prev = float(v[-1])
        drop_tol = max(tol, junction_rel * prev)
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
