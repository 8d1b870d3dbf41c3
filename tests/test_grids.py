"""Grid function plumbing: quadrature, evaluation, level crossings."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import offnode_residual, weighted
from profile_lab import (build_excursion_profile, build_profile, s_star,
                         solve_sK, verify)
from profile_lab import grids
from profile_lab.analysis import DomainError
from profile_lab.grids import (MAX_NODES, GridFunction, Lanes, Piece, Tail,
                               cumulative_integral, make_grid)
from profile_lab.simulate import counter_uniforms


def test_grid_snapping():
    grid = make_grid(-30.0, 1e-3)
    assert grid.steps_per_unit == 1000
    assert grid.m == 30000
    assert grid.positions[0] == pytest.approx(-30.0)
    assert grid.positions[-1] == 0.0


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(-30.0, 0.3)  # too coarse
    with pytest.raises(ValueError):
        make_grid(-0.5, 1e-3)  # window shorter than one unit
    with pytest.raises(ValueError):
        make_grid(2.0, 1e-3)


@pytest.mark.parametrize("x_min, h", [(-1e12, 1e-3), (-10.0, 1e-9),
                                      (-MAX_NODES * 1e-3, 1e-3)])
def test_grid_rejects_more_nodes_than_the_cap(x_min, h):
    # 10^15, 10^10 and MAX_NODES + 1 nodes: refused before any array over
    # the window is allocated
    with pytest.raises(ValueError, match="exceeds the cap"):
        make_grid(x_min, h)


def test_grid_at_the_node_cap():
    assert make_grid(-(MAX_NODES - 1) * 1e-3, 1e-3).m + 1 == MAX_NODES


def _trapezoid_then_corrections(v, h, kinks=()):
    """The corrected trapezoid as the sums it is defined by: the composite
    trapezoid's cumulative sum, minus the endpoint term per entry from
    index 3 on, plus each kink's fix."""
    n = v.size
    out = np.zeros(n)
    out[1:] = np.cumsum(0.5 * (v[1:] + v[:-1]) * h)
    if n < 4:
        return out
    back = np.zeros(n)
    back[2:] = (3.0 * v[2:] - 4.0 * v[1:-1] + v[:-2]) / (2.0 * h)
    d0 = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    c = h * h / 12.0
    out[3:] -= c * (back[3:] - d0)
    for k in kinks:
        if 3 <= k <= n - 3:
            fwd_k = (-3.0 * v[k] + 4.0 * v[k + 1] - v[k + 2]) / (2.0 * h)
            out[k + 2:] += c * (fwd_k - back[k])
            out[k + 1] += c * (back[k + 1] - back[k])
    return out


def _integrands(n):
    """(values, kinks) on n nodes: smooth, rough and kinked, all positive."""
    rng = np.random.default_rng(n)
    x = np.arange(n) * 1e-2
    k = n // 2
    kinked = np.where(x <= x[k], np.exp(x),
                      np.exp(x[k]) * (1.0 + 3.0 * (x - x[k])))
    return [(np.exp(1.3 * x), ()), (np.cumsum(rng.random(n)), ()),
            (kinked, (k,)), (np.cumsum(rng.random(n)), (3, k, n - 3))]


class TestCumulativeIntegral:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 50, 2001])
    def test_matches_trapezoid_then_corrections(self, n):
        # one convolution and one cumulative sum give the same integral as
        # the trapezoid sums corrected afterwards, to roundoff
        for v, kinks in _integrands(n):
            want = _trapezoid_then_corrections(v, 1e-2, kinks)
            got = cumulative_integral(v, 1e-2, kinks=kinks)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 50])
    def test_out_buffer_any_length(self, n):
        for v, kinks in _integrands(n):
            buf = np.full(n, np.nan)
            assert cumulative_integral(v, 1e-2, kinks=kinks, out=buf) is buf
            assert buf.tobytes() == cumulative_integral(
                v, 1e-2, kinks=kinks).tobytes()

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving_to_roundoff(self, seed, n):
        # v <= w pointwise gives ordered integrals within 1e-15 relative,
        # on any length and with kinks anywhere
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.random(n))
        w = v + rng.random(n) * rng.integers(0, 2, n)
        kinks = tuple(int(k) for k in rng.integers(0, n, 3))
        cv = cumulative_integral(v, 0.01, kinks=kinks)
        cw = cumulative_integral(w, 0.01, kinks=kinks)
        assert np.all(cw - cv >= -1e-15 * np.abs(cw))

    def test_exact_for_smooth_exponential(self):
        h = 1e-2
        x = np.arange(301) * h
        cum = cumulative_integral(np.exp(x), h)
        exact = np.exp(x) - 1.0
        # entries 0-2 skip the endpoint correction by design
        assert np.max(np.abs(cum[3:] - exact[3:]) / exact[3:]) < 1e-9
        assert np.max(np.abs(cum[:3] - exact[:3])) < 1e-6

    def test_kink_splitting(self):
        # f(x) = x for x <= 1, 3x - 2 beyond: derivative jump at the node
        h = 1e-2
        x = np.arange(201) * h
        f = np.where(x <= 1.0, x, 3.0 * x - 2.0)
        exact = np.where(x <= 1.0, 0.5 * x * x,
                         0.5 + 1.5 * (x * x - 1.0) - 2.0 * (x - 1.0))
        plain = cumulative_integral(f, h)
        split = cumulative_integral(f, h, kinks=(100,))
        assert np.max(np.abs(split - exact)) <= np.max(np.abs(plain - exact))
        assert np.max(np.abs(split - exact)) < 1e-12

    @pytest.mark.parametrize("kinks", [(), (100,)])
    def test_out_buffer(self, kinks):
        x = np.arange(201) * 1e-2
        f = np.where(x <= 1.0, np.exp(x), np.exp(3.0 * x - 2.0))
        buf = np.full(f.size, np.nan)
        got = cumulative_integral(f, 1e-2, kinks=kinks, out=buf)
        assert got is buf
        assert buf.tobytes() == cumulative_integral(f, 1e-2,
                                                    kinks=kinks).tobytes()

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_order_preserving(self, seed):
        # all composite weights are non-negative, so A <= B pointwise
        # implies ordered cumulative integrals
        rng = np.random.default_rng(seed)
        n = 50
        a = np.cumsum(rng.random(n))
        b = a + np.cumsum(rng.random(n)) * 0.1
        kinks = (int(rng.integers(3, n - 3)),)
        ca = cumulative_integral(a, 0.01, kinks=kinks)
        cb = cumulative_integral(b, 0.01, kinks=kinks)
        assert np.all(cb - ca >= -1e-15)


class TestPiece:
    def test_constant(self):
        p = Piece.constant(2.0, 0.0, 1.5)
        assert p.value(1.0) == 2.0
        assert p.integral(0.0, 1.0) == pytest.approx(2.0)
        assert p.integral(-1.0, 3.0) == pytest.approx(3.0)  # clipped to (0, 1.5]

    def test_exponential(self):
        p = Piece.exponential(1.5, 0.8, 1.0, 1.0, math.inf)
        assert p.value(1.0) == pytest.approx(1.5)
        assert p.integral(1.0, 2.0) == pytest.approx(
            1.5 / 0.8 * (math.exp(0.8) - 1.0))

    def test_crossing_closed_form(self):
        p = Piece.exponential(1.0, 1.0, 0.0, 0.0, math.inf)
        assert p.crossing(math.e ** 2) == pytest.approx(2.0, abs=1e-14)

    def test_crossing_two_terms_by_bisection(self):
        p = Piece(lo=0.0, hi=math.inf, level=0.0,
                  terms=((1.0, 1.0, 0.0), (0.5, 0.3, 0.0)))
        target = 4.0
        x = p.crossing(target)
        assert p.value(x) == pytest.approx(target, rel=1e-12)

    def test_crossing_none_when_piece_too_low(self):
        p = Piece.constant(1.0, 0.0, 2.0)
        assert p.crossing(1.5) is None
        assert p.crossing(0.5) == 0.0  # whole piece already above
        assert Piece.constant(1.0, 0.0, math.inf).crossing(1.5) is None

    @pytest.mark.parametrize("w", [0.5, 2.0])
    def test_weighted_matches_quadrature(self, w):
        # e^{-w x} times a constant, a term of rate w (folds into level)
        # and a term of another rate
        p = Piece(lo=0.2, hi=1.0, level=1.5,
                  terms=((2.0, w, 1.0), (0.5, 0.3, 0.0)))
        q = weighted(p, w)
        assert all(r != 0.0 for _, r, _ in q.terms)
        xs = np.linspace(0.2, 1.0, 20001)
        ys = np.exp(-w * xs) * p.value(xs)
        expect = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        assert q.integral(0.0, 1.0) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("s", [0.2, solve_sK(), 0.9],
                             ids=["0.2", "sK", "0.9"])
    def test_terms_of_both_signs_tend_to_inf(self, s, excursion_profiles):
        # at s = 0.2 (K < 1) G- is M e^{-s} e^{2sx} + (K - M) e^{-s} e^{x/rho}
        # with K - M < 0: far right both terms overflow, and the sum is the
        # limit of the faster one, +inf, not inf - inf = nan
        g = excursion_profiles[s].g_minus
        piece, = g.right_pieces
        xs = np.array([3900.0, 3940.0, 4000.0, 1e6, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.value(math.inf) == math.inf
            with np.errstate(over="ignore"):  # a lone overflow is inf
                assert np.all(g.value(xs) == math.inf)
                assert g.value(4000.0) == math.inf
        assert math.isnan(piece.value(math.nan))
        assert 0.0 < g.value(50.0) < math.inf


@pytest.fixture()
def exp_grid_function():
    grid = make_grid(-10.0, 1e-3)
    vals = np.exp(grid.positions)
    return GridFunction(
        grid=grid, left_values=vals,
        right_pieces=(Piece.exponential(1.0, 1.0, 0.0, 0.0, math.inf),),
        tail=Tail.exponential(1.0, vals[0]))


class TestGridFunction:
    def test_value_zones(self, exp_grid_function):
        g = exp_grid_function
        for x in (-12.0, -5.5, -0.0007, 0.0, 0.3, 4.2):
            assert g.value(x) == pytest.approx(math.exp(x), rel=1e-10)

    def test_vectorized_matches_scalar(self, exp_grid_function):
        g = exp_grid_function
        xs = np.array([-12.0, -3.2, 0.0, 1.7])
        np.testing.assert_allclose(g.value(xs),
                                   [g.value(float(x)) for x in xs])

    @pytest.mark.parametrize("which", ["bidding", "plus", "minus"])
    def test_nan_points_give_nan(self, which):
        kw = dict(x_min=-12.0, h=1.0 / 128)
        g = (build_profile(0.5, **kw).g if which == "bidding" else
             getattr(build_excursion_profile(0.9, **kw), f"g_{which}"))
        assert math.isnan(g.value(math.nan))
        # a freed buffer of the same size must not show through
        finite = np.array([7.0, -1.0, 3.0, 0.5])
        g.value(finite)
        assert np.all(np.isnan(g.value(np.full(4, math.nan))))
        xs = np.array([math.nan, -13.0, math.nan, -0.5, 0.5, 7.0, math.nan])
        got = g.value(xs)
        nan = np.isnan(xs)
        assert np.all(np.isnan(got[nan]))
        assert got[~nan].tobytes() == g.value(xs[~nan]).tobytes()

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0,
                                        -1.0])
    def test_tau_rejects_a_non_finite_or_non_positive_target(
            self, exp_grid_function, target):
        with pytest.raises(DomainError, match="positive finite target"):
            exp_grid_function.tau(target)

    def test_integral(self, exp_grid_function):
        g = exp_grid_function
        for x in (-11.0, -2.345, 0.0, 2.5):
            assert g.integral_to(x) == pytest.approx(math.exp(x), rel=1e-9)

    def test_array_integrals_equal_scalar_ones(self, bidding_profiles,
                                               excursion_profiles):
        # verify's right-part residuals and the off-node probe read
        # integrals and its node residuals Piece.integrals; the costs read
        # integral_to and Piece.integral: each pair must agree bit for bit
        gs = [p.g for p in bidding_profiles.values()]
        gs += [g for p in excursion_profiles.values()
               for g in (p.g_plus, p.g_minus)]
        mismatches = 0
        for g in gs:
            xs = np.geomspace(max(g.h, 1e-4), 10.0, 400)  # verify's
            xs = np.concatenate([xs, xs + 1.0])
            ys = np.arange(g.grid.steps_per_unit + 1) * g.h
            for piece in g.right_pieces:
                for a, b in ((piece.lo, xs), (0.0, ys)):
                    scalar = [piece.integral(a, float(x)) for x in b]
                    mismatches += int(np.sum(
                        piece.integrals(a, b) != np.array(scalar)))
            # every node but x_min, points inside cells, x = 0 exactly
            # (integral_to reads the last cell's Hermite integral there, not
            # the node sum) and points in the last cell
            nodes = g.grid.positions[1:]
            inside = nodes - np.array([0.1, 0.5, 0.9])[:, None] * g.h
            last = -g.h * np.array([1.0, 0.75, 0.5, 0.25, 1e-9])
            for x in (xs, nodes, inside.ravel(), last, np.zeros(1)):
                scalar = [g.integral_to(float(y)) for y in x]
                mismatches += int(np.sum(g.integrals(x) != np.array(scalar)))
        assert mismatches == 0

    def test_tau_inverts(self, exp_grid_function):
        g = exp_grid_function
        for t in (1e-6, 0.01, 0.9999, 1.0, 5.0, 100.0):
            assert g.tau(t) == pytest.approx(math.log(t), abs=1e-9)

    def test_tau_plateau_supremum(self):
        # plateau at level 1 on (0, 2], then rising: tau(1) is the left end,
        # tau of anything in (1, value(2+)] lands at the plateau's right end
        grid = make_grid(-5.0, 1e-2)
        vals = np.exp(grid.positions)
        g = GridFunction(
            grid=grid, left_values=vals,
            right_pieces=(Piece.constant(1.0, 0.0, 2.0),
                          Piece.exponential(1.0, 1.0, 2.0, 2.0, math.inf)),
            tail=Tail.exponential(1.0, vals[0]))
        assert g.tau(1.0) == pytest.approx(0.0, abs=1e-9)
        assert g.tau(1.0001) == pytest.approx(2.0 + math.log(1.0001), abs=1e-9)

    def test_tau_rejects_unreached_target(self):
        grid = make_grid(-5.0, 1e-2)
        vals = np.exp(grid.positions)
        g = GridFunction(grid=grid, left_values=vals,
                         right_pieces=(Piece.constant(1.0, 0.0, math.inf),),
                         tail=Tail.exponential(1.0, vals[0]))
        assert g.tau(1.0) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(DomainError):
            g.tau(2.0)

    def test_monotonicity_probes(self, exp_grid_function):
        assert exp_grid_function.is_monotone()
        assert exp_grid_function.is_nonnegative()

    def test_a_falling_right_piece_is_not_monotone(self, exp_grid_function):
        g = dataclasses.replace(exp_grid_function, right_pieces=(
            Piece.exponential(1.0, 1.0, 0.0, 0.0, 1.0),
            Piece.exponential(math.e, -1.0, 1.0, 1.0, math.inf)))
        assert not g.is_monotone()

    def test_rejects_left_values_of_the_wrong_length(self, exp_grid_function):
        g = exp_grid_function
        with pytest.raises(ValueError, match="does not match the grid"):
            dataclasses.replace(g, left_values=g.left_values[1:])

    def test_tail_mass(self, exp_grid_function):
        g = exp_grid_function
        assert g.tail_mass == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_zero_first_value_has_no_tail(self):
        # the tail continues the grid from its first value: an underflowed
        # first value leaves no mass below the window, and every positive
        # level is first crossed inside the grid
        grid = make_grid(-5.0, 1e-2)
        vals = np.exp(grid.positions)
        vals[:50] = 0.0
        g = GridFunction(grid=grid, left_values=vals,
                         right_pieces=(Piece.exponential(
                             1.0, 1.0, 0.0, 0.0, math.inf),),
                         tail=Tail.exponential(1.0, vals[0]))
        assert g.tail_coeff == 0.0
        assert g.tail_mass == 0.0
        assert g.integral_to(-6.0) == 0.0
        assert g.value(-6.0) == 0.0
        assert grid.positions[49] <= g.tau(1e-300) <= grid.positions[50]


_TAU_COMPONENTS = ["G 0.5", "G 0.8", "G+ 0.2", "G- 0.2", "G+ sK", "G- sK",
                   "G+ 0.9", "G- 0.9"]


@functools.cache
def _pair(s):
    return build_excursion_profile(s)


def _component(name, bidding_profiles, excursion_profiles):
    """A built component by name: G at a bidding s, G+ or G- at a linear
    search s (G- at 0.2 is a sum of two exponentials right of 0), built
    once here when the session's profiles lack that s."""
    which, s = name.split()
    if which == "G":
        return bidding_profiles[float(s)].g
    s = solve_sK() if s == "sK" else float(s)
    p = excursion_profiles[s] if s in excursion_profiles else _pair(s)
    return p.g_plus if which == "G+" else p.g_minus


class TestTauSearch:
    def test_window_search_stops(self, bidding_profiles, monkeypatch):
        # the window's bisection ends at neighbouring doubles, or at a
        # 1e-16 bracket near 0, instead of halving a bracket that no longer
        # changes
        g = bidding_profiles[0.5].g
        targets = [g.value(x) for x in (-7.5, -2.3, -0.97, -0.64, -0.31)]
        targets.append(float(g.left_values[-1]))  # G(0-)
        calls = []
        hermite = GridFunction._hermite
        monkeypatch.setattr(GridFunction, "_hermite",
                            lambda self, x: calls.append(x) or hermite(self, x))
        counts = []
        for T in targets:
            calls.clear()
            g.tau(T)
            counts.append(len(calls))
        assert max(counts) <= 45, counts

    @pytest.mark.parametrize("name", _TAU_COMPONENTS)
    @settings(max_examples=60, deadline=None)
    @given(exponent=st.floats(-12.0, 8.0))
    def test_tau_is_the_sublevel_supremum(self, bidding_profiles,
                                          excursion_profiles, name, exponent):
        g = _component(name, bidding_profiles, excursion_profiles)
        T = 10.0 ** exponent
        t = g.tau(T)
        delta = 1e-12 * max(1.0, abs(t))
        assert g.value(t - delta) < T <= g.value(t + delta)
        piece = next((p for p in g.right_pieces if p.lo < t <= p.hi), None)
        if g.left_values[0] < T <= g.left_values[-1] \
                or piece is not None and len(piece.terms) > 1:
            assert g.value(t) >= T  # searched: hi always reaches the target

    # at linear search s = 0.7 the built G-(0-) exceeds G-(0+) by 1.5e-11
    # relative, so G- drops at 0 and tau(G-(0+)) is -1.1e-11 (ROADMAP
    # item 2, "G- at 0")
    @pytest.mark.parametrize("name", _TAU_COMPONENTS + [pytest.param(
        "G- 0.7", marks=pytest.mark.xfail(
            strict=True, reason="G- drops at 0: ROADMAP item 2"))])
    @settings(max_examples=30, deadline=None)
    @given(frac=st.floats(0.0, 1.0))
    def test_tau_in_the_jump_at_zero_is_zero(self, bidding_profiles,
                                             excursion_profiles, name, frac):
        g = _component(name, bidding_profiles, excursion_profiles)
        lo, hi = float(g.left_values[-1]), g.right_value_at_zero()
        T = min(max(lo + frac * (hi - lo), math.nextafter(lo, math.inf)), hi)
        assert g.tau(T) == 0.0


class TestSlopeBreaks:
    def test_fit_stops_at_a_break(self):
        # e^x plus (x+1)^2 right of -1: the second derivative jumps at -1
        grid = make_grid(-4.0, 1.0 / 64)
        f = lambda x: np.exp(x) + np.where(x > -1.0, (x + 1.0) ** 2, 0.0)
        xs = np.linspace(-3.9, -0.01, 10001)
        gs = [GridFunction(grid=grid, left_values=f(grid.positions),
                           right_pieces=(Piece.exponential(
                               2.0, 1.0, 0.0, 0.0, math.inf),),
                           tail=Tail.exponential(1.0, math.exp(-4.0)),
                           slope_breaks=breaks)
              for breaks in ((), (grid.m - grid.steps_per_unit,))]
        across, split = (np.max(np.abs(g.value(xs) - f(xs))) for g in gs)
        assert split < across / 20.0
        # the breaks shape the model between nodes, never the quadrature
        assert gs[0]._cum.tobytes() == gs[1]._cum.tobytes()

    def test_swept_builds_break_at_minus_one_and_two(self, bidding_profiles,
                                                      excursion_profiles):
        swept = [bidding_profiles[0.5].g, excursion_profiles[0.9].g_plus,
                 excursion_profiles[0.9].g_minus]
        exact = [bidding_profiles[1.0].g, excursion_profiles[s_star()].g_plus,
                 excursion_profiles[s_star()].g_minus]
        for g in swept:
            assert g.grid.positions[list(g.slope_breaks)].tolist() == [-2.0,
                                                                       -1.0]
        for g in exact:
            assert g.slope_breaks == () and g.kink_nodes == ()
        # the quadrature kinks only where a right part jumping at 0 enters
        # shifted by one unit: G and G- at -1, not G+
        kinks = [g.grid.positions[list(g.kink_nodes)].tolist() for g in swept]
        assert kinks == [[-1.0], [], [-1.0]]
        # a window that ends above -2 holds only the break at -1
        short = build_profile(0.5, x_min=-1.5, h=1.0 / 64).g
        assert short.grid.positions[list(short.slope_breaks)].tolist() == [-1.0]

    def test_two_node_segment_takes_the_secant(self):
        # m = 2n + 1 puts the break at -2 on node 1, so the first segment
        # is one cell, fitted by its secant
        p = build_profile(0.5, x_min=-2.0016)
        g = p.g
        assert g.grid.m == 2 * g.grid.steps_per_unit + 1
        assert g.slope_breaks[0] == 1
        v = g.left_values
        assert g._slope_right[0] == pytest.approx(v[1] - v[0], rel=1e-12)
        # the window verifies; its first unit holds the break at -2, so the
        # first modes overshoot G(x_min) by 3.1e-4 relative there and the
        # tail falls back to one exponential, which cannot carry a profile
        # below a window this short, and the tail check says so
        assert g.tail == Tail.exponential(g.tail_rate, v[0])
        rep = verify(p)
        (failure,) = rep.failures
        assert failure.startswith("robustness")
        assert float(failure.rsplit("x = ", 1)[1]) < g.x_min - 0.1
        assert rep.offset_ok and rep.monotone_ok
        assert abs(rep.consistency_gap) <= 1e-9

    @pytest.mark.parametrize("problem, s", [
        ("bidding", 0.3), ("bidding", 0.5), ("bidding", 0.8),
        ("bidding", 0.95), ("linsearch", 0.2), ("linsearch", solve_sK()),
        ("linsearch", 0.9), ("linsearch", 1.1), ("linsearch", 1.25)])
    def test_model_is_tight_between_nodes(self, bidding_profiles,
                                          excursion_profiles, problem, s):
        # the certify-curve anchors at the default grid; slopes fitted
        # across x = -1 and -2 put linear search 0.2 at 1.6e-5
        if problem == "bidding":
            p = bidding_profiles.get(s) or build_profile(s)
        else:
            p = excursion_profiles.get(s) or build_excursion_profile(s)
        worst, _ = offnode_residual(p)
        assert worst <= 5e-7


class TestLaneValues:
    # the extremes of Unif(0, 1], its midpoint and a block of the oracle's
    # draws
    U = np.concatenate(([2.0 ** -53, 0.5, 1.0], counter_uniforms(5, 0, 8192)))

    def test_agree_with_value_at_every_step(self, bidding_profiles,
                                            excursion_profiles, monkeypatch):
        # a window that is not a whole number of units: its first step
        # straddles x_min
        ragged = dict(x_min=-12.3, h=1.0 / 128)
        profiles = [bidding_profiles[0.5], bidding_profiles[1.0],
                    excursion_profiles[0.9], excursion_profiles[s_star()],
                    build_profile(0.5, **ragged),
                    build_excursion_profile(0.9, **ragged)]
        calls = []
        value = GridFunction.value
        monkeypatch.setattr(GridFunction, "value",
                            lambda g, x: calls.append(x) or value(g, x))
        for p in profiles:
            gs = (p.g,) if hasattr(p, "g") else (p.g_plus, p.g_minus)
            lanes = Lanes(gs[0].grid, self.U)
            for g in gs:
                lo = g.right_pieces[-1].lo
                for k in range(math.floor(g.x_min) - 8, math.ceil(lo) + 4):
                    before = len(calls)
                    got = g.lane_values(lanes, k)
                    fell_back = len(calls) > before
                    np.testing.assert_allclose(got, g.value(k + self.U),
                                               rtol=1e-13, atol=0.0)
                    # whole steps on the tail (U holds 1), inside the grid
                    # zone or past the last piece's lower end never locate
                    # their points again
                    if (k + 1 < g.x_min or math.ceil(g.x_min) <= k <= -1
                            or k >= lo + 1):
                        assert not fell_back, (g.x_min, k)
        # the step (-13, -12] straddles the ragged window's x_min = -12.3
        g = profiles[4].g
        before = len(calls)
        g.lane_values(Lanes(g.grid, self.U), -13)
        assert len(calls) > before

    def test_a_run_of_tail_steps_sums_its_steps(self, bidding_profiles,
                                                excursion_profiles):
        # a run of steps wholly below the window sums each mode over the
        # run in closed form; its last step may reach x_min itself, a grid
        # point, where the lane with U = 1 reads G(x_min)
        ragged = build_profile(0.5, x_min=-12.3, h=1.0 / 128)
        for g in (bidding_profiles[0.5].g, excursion_profiles[0.9].g_minus,
                  ragged.g):
            lanes = Lanes(g.grid, self.U)
            last = math.floor(g.x_min) - 1
            for first in (last - 6, last):
                got = g.lane_values(lanes, first, last)
                want = sum(g.value(k + self.U)
                           for k in range(first, last + 1))
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            assert not lanes.waves or len(lanes.waves) == len(g.tail.modes)
        # a run must lie below the window
        g = bidding_profiles[0.5].g
        with pytest.raises(ValueError):
            g.lane_values(Lanes(g.grid, self.U), -6, -4)

    def test_waves_agree_with_the_complex_exp(self):
        # every rate the tails reach, a slow one and one far beyond them
        u = self.U
        for lam in (complex(3.29, 7.44), complex(7.53, 21.4),
                    complex(0.3, 0.01), complex(1.0, 100.0)):
            re, im = grids._unit_exp(lam, u)
            want = np.exp(lam * u)
            assert np.max(np.abs(re + 1j * im - want) / np.abs(want)) <= 2e-14
        e, none = grids._unit_exp(1.75, u)
        assert none is None and np.array_equal(e, np.exp(1.75 * u))

    def test_rejects_lanes_of_another_grid(self, bidding_profiles):
        lanes = Lanes(make_grid(-12.0, 1.0 / 128), self.U)
        with pytest.raises(ValueError):
            bidding_profiles[0.5].g.lane_values(lanes, -1)
