"""Bidding profile construction, evaluation, and verification."""

import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (apply_F, build_profile_backward, check_bpb,
                     check_phi_lb, phi_pieces, right_pieces)
from profile_lab import bidding as bd
from profile_lab.analysis import (ConvergenceError, DomainError,
                                  bidding_tradeoff, conjugate_rate_bidding,
                                  conjugate_rate_linear, s_star, solve_sK)
from profile_lab.bidding import build_profile, expected_cost, tighten, verify
from profile_lab.excursion import (ExcursionProfile, build_excursion_profile,
                                   verify_excursion)
from profile_lab.grids import (GridFunction, Piece, Tail, cumulative_integral,
                               make_grid)

# Profile values read off the published representative-profile figure; its
# coordinates carry ~1e-4 generation noise (the exact anchors below are
# checked much tighter).
FIGURE_TABLE_05 = [
    (-3.0, 0.003017), (-2.5, 0.007206), (-2.0, 0.016955), (-1.5, 0.042129),
    (-1.0, 0.090296), (-0.5, 0.241837), (-0.1, 0.363143), (0.0, 0.393469),
]
FIGURE_TABLE_08 = [
    (-3.0, 0.017085), (-2.5, 0.031611), (-2.0, 0.058162), (-1.5, 0.108858),
    (-1.0, 0.192279), (-0.5, 0.371932), (-0.1, 0.520873), (0.0, 0.564255),
]


class TestApplyF:
    def test_zero_input_unit_phi(self):
        grid = make_grid(-5.0, 1e-2)
        phi = (Piece.constant(1.0, 0.0, 1.0),)
        out = apply_F(np.zeros(grid.m + 1), phi, 2.0, grid, s=1.0)
        expected = np.maximum(0.0, grid.positions + 1.0) / 2.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_exponential_fixed_point(self):
        # H = e^x with phi = e^x on (0,1] and rho = e reproduces itself
        grid = make_grid(-20.0, 1e-3)
        phi = (Piece.exponential(1.0, 1.0, 0.0, 0.0, 1.0),)
        H = np.exp(grid.positions)
        out = apply_F(H, phi, math.e, grid, s=1.0)
        assert np.max(np.abs(out - H) / H) < 1e-9

    def test_order_preserving(self):
        grid = make_grid(-5.0, 1e-2)
        phi = phi_pieces(0.6, bidding_tradeoff(0.6).chi)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = np.cumsum(rng.random(grid.m + 1)) * 1e-3
            b = a + np.cumsum(rng.random(grid.m + 1)) * 1e-3
            fa = apply_F(a, phi, 2.5, grid, s=0.8)
            fb = apply_F(b, phi, 2.5, grid, s=0.8)
            assert np.all(fb - fa >= -1e-15)


class TestBuildProfile:
    def test_classical_endpoint_is_exponential(self, bidding_profiles):
        g = bidding_profiles[1.0].g
        exact = np.exp(g.grid.positions)
        assert np.max(np.abs(g.left_values - exact)) <= 1e-8

    def test_G0_anchor(self, bidding_profiles):
        for s, p in bidding_profiles.items():
            assert abs(p.g.left_values[-1] - p.chi / p.rho) <= 1e-8

    def test_figure_values_s05(self, bidding_profiles):
        p = bidding_profiles[0.5]
        assert p.g.value(0.0) == pytest.approx(0.393469, abs=5e-7)
        for x, v in FIGURE_TABLE_05:
            assert p.g.value(x) == pytest.approx(v, abs=2e-4)

    def test_figure_values_s08(self, bidding_profiles):
        p = bidding_profiles[0.8]
        assert p.g.value(0.0) == pytest.approx(0.564255, abs=5e-7)
        for x, v in FIGURE_TABLE_08:
            assert p.g.value(x) == pytest.approx(v, abs=2e-4)

    def test_s08_right_part_structure(self, bidding_profiles):
        p = bidding_profiles[0.8]
        # plateau until x0 = 1 - ln(s chi)/s, then (s chi) e^{s(x-1)}
        schi = 0.8 * p.chi
        assert schi == pytest.approx(1.2557715, abs=1e-4)
        x0 = 1.0 - math.log(schi) / 0.8
        assert x0 == pytest.approx(0.715312, abs=1e-4)
        assert p.g.value(x0 - 1e-6) == pytest.approx(1.0, rel=1e-12)
        assert p.g.value(0.9) == pytest.approx(
            schi * math.exp(0.8 * (0.9 - 1.0)), rel=1e-12)

    def test_iterates_monotone_nondecreasing(self):
        s = 0.5
        chi = bidding_tradeoff(s).chi
        grid = make_grid(-10.0, 1e-2)
        phi = phi_pieces(s, chi)
        left = np.zeros(grid.m + 1)
        for _ in range(40):
            new = apply_F(left, phi, bidding_tradeoff(s).rho, grid, s=s)
            assert np.all(new >= left - 1e-15)
            left = new

    def test_fixed_point_residual(self, bidding_profiles):
        for s, p in bidding_profiles.items():
            if p.iterations == 0:
                continue  # closed-form endpoint
            out = apply_F(p.g.left_values, phi_pieces(p.s, p.chi), p.rho,
                          p.g.grid, p.s, kinks=p.g.kink_nodes)
            assert np.max(np.abs(out - p.g.left_values)) <= 10 * 1e-12

    @pytest.mark.parametrize("build", [build_profile, build_excursion_profile],
                             ids=["bidding", "linsearch"])
    def test_nonconvergence_reports_delta(self, build):
        with pytest.raises(ConvergenceError, match="sup-norm delta"):
            build(0.5, x_min=-30.0, h=1e-3, max_iter=3)


class TestFixedPointDriver:
    def test_affine_step_two_buffer_sets_and_a_jump(self):
        # F(x) = x / 2 + 1 contracts at exactly r = 0.5 towards 2, so the
        # ratio gate opens after nine sweeps and the jump lands on 2
        outs = set()

        def step(x, out):
            assert not any(np.shares_memory(a, b) for a in x for b in out)
            outs.add(tuple(id(c) for c in out))
            for c, o in zip(x, out):
                np.multiply(c, 0.5, out=o)
                o += 1.0

        start = (np.zeros(5), np.ones(3))
        (a, b), it, delta = bd._iterate_to_fixed_point(step, start, 100)
        assert len(outs) <= 2
        assert it < 20  # plain sweeps need about 40 to reach 1e-12
        assert delta <= 1e-12
        np.testing.assert_allclose(np.concatenate([a, b]), 2.0, atol=1e-12)
        assert np.all(start[0] == 0.0) and np.all(start[1] == 1.0)

    def test_builds_share_no_memory(self):
        kw = dict(x_min=-12.0, h=1.0 / 128)
        b1, b2 = build_profile(0.5, **kw), build_profile(0.5, **kw)
        assert not np.shares_memory(b1.g.left_values, b2.g.left_values)
        l1, l2 = (build_excursion_profile(0.9, **kw) for _ in range(2))
        arrays = [g.left_values for p in (l1, l2)
                  for g in (p.g_plus, p.g_minus)]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])


# Sweep ceilings 10% above the sweeps taken when they were set, at the
# window from -6: 188 for bidding 0.999 and 294-303 over the s ~ 1.25 band.
@pytest.mark.parametrize("build, check, s, max_sweeps", [
    (build_profile, verify, 0.999, 206),
    (build_excursion_profile, verify_excursion, 1.248, 323),
    (build_excursion_profile, verify_excursion, 1.25, 328),
    (build_excursion_profile, verify_excursion, 1.252, 324),
    (build_excursion_profile, verify_excursion, 1.27, 331),
    (build_excursion_profile, verify_excursion, s_star() - 1e-4, 333),
], ids=["bidding-0.999", "linsearch-1.248", "linsearch-1.25",
        "linsearch-1.252", "linsearch-1.27", "linsearch-s_star-1e-4"])
def test_near_resonant_default_builds(build, check, s, max_sweeps):
    # next to the doubly resonant endpoints the sweeps contract slowest;
    # the default window still converges there, and the build verifies
    p = build(s)
    assert p.iterations <= max_sweeps
    rep = check(p)
    assert rep.passed, rep.failures
    assert abs(rep.consistency_gap) <= 1e-8


# case ids read (sweep tolerance, max_iter)
@pytest.mark.parametrize("max_iter", [0], ids=[f"{bd.SWEEP_TOL}-0"])
@pytest.mark.parametrize("entry", ["driver", "bidding", "linsearch"])
def test_driver_rejects_bad_tolerance_before_sweeping(entry, max_iter):
    def no_sweep(x, out):
        raise AssertionError("swept with an invalid max_iter")

    with pytest.raises(DomainError, match="max_iter >= 1"):
        if entry == "driver":
            bd._iterate_to_fixed_point(no_sweep, (np.zeros(3),), max_iter)
        elif entry == "bidding":
            build_profile(0.5, x_min=-12.0, h=1.0 / 128, max_iter=max_iter)
        else:
            build_excursion_profile(0.9, x_min=-12.0, h=1.0 / 128,
                                    max_iter=max_iter)


class TestBackwardConstruction:
    def test_matches_exponential(self):
        p = build_profile_backward(1.0, x_min=-10.0)
        exact = np.exp(p.g.grid.positions)
        assert np.max(np.abs(p.g.left_values - exact)) <= 1e-6

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.0])
    def test_matches_forward(self, s, bidding_profiles):
        # the backward march runs deeper than the default window
        pb = build_profile_backward(s, x_min=-10.0)
        pf = bidding_profiles.get(s) or build_profile(s)
        top = pb.g.left_values[-(pf.g.grid.m + 1):]
        assert np.max(np.abs(top - pf.g.left_values)) <= 1e-5

    @pytest.mark.parametrize("s", [0.95, 0.999])
    def test_matches_forward_on_the_default_grid(self, s):
        pb, pf = build_profile_backward(s), build_profile(s)
        assert pb.g.grid == pf.g.grid
        assert np.max(np.abs(pf.g.left_values - pb.g.left_values)) <= 1e-9


class TestEvaluation:
    def test_eval_jump_convention(self, bidding_profiles):
        p = bidding_profiles[0.5]
        assert p.g.value(0.0) == pytest.approx(0.393469, abs=5e-7)
        assert p.g.value(1e-9) == pytest.approx(1.0, rel=1e-12)

    def test_eval_no_jump_at_endpoint(self, bidding_profiles):
        p = bidding_profiles[1.0]
        assert p.g.value(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_tail_positive(self, bidding_profiles):
        p = bidding_profiles[0.5]
        assert 0.0 < p.g.value(p.g.x_min - 5.0) < p.g.value(p.g.x_min)

    def test_integral_anchors(self, bidding_profiles):
        p = bidding_profiles[1.0]
        assert p.g.integral_to(0.0) == pytest.approx(1.0, rel=1e-9)
        for s, p in bidding_profiles.items():
            assert p.g.integral_to(1.0) == pytest.approx(p.chi, rel=1e-6)

    def test_tail_robustness_bound(self, bidding_profiles):
        p = bidding_profiles[0.5]
        assert p.g.integral_to(p.g.x_min) <= p.rho * p.g.value(
            p.g.x_min - 1.0) * (1 + 1e-6)


class TestTau:
    def test_exponential_inverse(self, bidding_profiles):
        p = bidding_profiles[1.0]
        assert p.g.tau(math.e ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_unit_target(self, bidding_profiles):
        for p in bidding_profiles.values():
            assert p.g.tau(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_right_piece_inverse(self, bidding_profiles):
        p = bidding_profiles[0.5]
        assert p.g.tau(1.5) == pytest.approx(1.0 + math.log(1.5) / 0.5,
                                             rel=1e-12)

    def test_tau_upper_bound(self, bidding_profiles):
        for p in bidding_profiles.values():
            for T in np.geomspace(1e-3, 1e3, 60):
                assert p.g.tau(float(T)) <= p.rho * T - 1.0 + p.g.h + 1e-9

    def test_tau_is_strict_sublevel_supremum(self, bidding_profiles):
        # G(tau - eps) < T <= G just right of tau, at any target scale
        p = bidding_profiles[0.8]
        for T in np.geomspace(1e-4, 1e4, 80):
            t = p.g.tau(float(T))
            eps = max(1e-9, 1e-9 * abs(t))
            assert p.g.value(t - eps) < T
            assert p.g.value(t + 10 * eps) >= T * (1 - 1e-9)


class TestCost:
    def test_endpoint_cost_is_e_T(self, bidding_profiles):
        p = bidding_profiles[1.0]
        for T in np.geomspace(1e-2, 1e2, 50):
            assert expected_cost(p, float(T)) / T == pytest.approx(
                math.e, abs=1e-9)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf,
                                        -math.inf])
    def test_rejects_bad_target(self, target, bidding_profiles):
        with pytest.raises(DomainError):
            expected_cost(bidding_profiles[0.5], target)

    def test_consistency_cost(self, bidding_profiles):
        for p in bidding_profiles.values():
            assert expected_cost(p, 1.0) == pytest.approx(p.chi, rel=1e-5)

    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_robustness_sweep(self, s, bidding_profiles):
        p = bidding_profiles[s]
        for T in np.geomspace(1e-3, 1e3, 200):
            assert expected_cost(p, float(T)) / T <= p.rho * (1 + 1e-4)


def scaled(tail: Tail, f: float) -> Tail:
    """The tail times f: the one that left values times f project to."""
    return Tail(tuple((lam, f * c) for lam, c in tail.modes))


class TestVerify:
    def test_built_profiles_pass(self, bidding_profiles):
        for p in bidding_profiles.values():
            rep = verify(p)
            assert rep.passed, rep.failures
            assert abs(rep.consistency_gap) <= 1e-6

    def test_tightness_is_the_operator_residual(self, bidding_profiles):
        p = bidding_profiles[0.5]
        g = p.g
        F = apply_F(g.left_values, phi_pieces(p.s, p.chi), p.rho, g.grid,
                    p.s, g.kink_nodes)
        expect = float(np.max(np.abs(p.rho * (F - g.left_values))))
        assert verify(p).tightness_residual == pytest.approx(expect, rel=0,
                                                             abs=1e-14)

    def test_endpoint_tightness(self, bidding_profiles):
        rep = verify(bidding_profiles[1.0])
        assert rep.tightness_residual <= 1e-10

    def test_constant_function_fails(self):
        grid = make_grid(-20.0, 1e-2)
        g = GridFunction(grid=grid, left_values=np.ones(grid.m + 1),
                         right_pieces=(Piece.constant(1.0, 0.0, math.inf),),
                         tail=Tail.exponential(1.0, 1.0))
        fake = bd.BiddingProfile(s=0.5, rho=2.0, chi=1.5, g=g)
        rep = verify(fake)
        assert not rep.passed
        assert any("robustness" in f for f in rep.failures)
        assert not rep.offset_ok

    def test_deflated_left_part_fails_robustness_only(self, bidding_profiles):
        p = bidding_profiles[0.5]
        g = p.g
        # the tail deflated with the window, as it projects from it
        shrunk = GridFunction(grid=g.grid, left_values=g.left_values * 0.9,
                              right_pieces=g.right_pieces,
                              tail=scaled(g.tail, 0.9),
                              kink_nodes=g.kink_nodes)
        rep = verify(bd.BiddingProfile(s=p.s, rho=p.rho, chi=p.chi, g=shrunk))
        assert not rep.passed
        assert any("robustness" in f for f in rep.failures)
        assert rep.offset_ok and rep.monotone_ok

    def test_right_part_that_falls_inside_a_piece_fails_monotone(
            self, bidding_profiles):
        # e^{-x} on (0, 1] meets G(0-) at the junction and G(1+) = 1 above
        # it, so only the drop inside the piece breaks monotonicity
        p = bidding_profiles[0.5]
        falling = Piece.exponential(1.0, -1.0, 0.0, 0.0, 1.0)
        rep = verify(dataclasses.replace(p, g=dataclasses.replace(
            p.g, right_pieces=(falling, *p.g.right_pieces[1:]))))
        assert not rep.monotone_ok
        assert ("monotone: G must be non-decreasing and positive"
                in rep.failures)

    def test_robustness_failure_names_the_condition_and_x(
            self, bidding_profiles):
        # one node at x = -3 lowered by 1e-2: the worst relative residual
        # is there, in the one condition
        p = bidding_profiles[0.8]
        g = p.g
        left = g.left_values.copy()
        left[g.grid.m - 3 * g.grid.steps_per_unit] *= 1.0 - 1e-2
        rep = verify(dataclasses.replace(
            p, g=dataclasses.replace(g, left_values=left)))
        assert rep.max_relative_residual == pytest.approx(1.01e-2, rel=1e-2)
        assert (f"robustness: relative residual "
                f"{rep.max_relative_residual:.3e} > 0.0001 in "
                f"A(x+1) <= rho G at x = -3") in rep.failures

    def test_raised_left_part_fails_consistency_only(self, bidding_profiles):
        # the left part and its tail raised by 1e-3 relative stay robust at
        # the nodes and on (0, 10] (worst relative residual about 5.2e-10);
        # on the tail both sides of the row scale with them, so it is as
        # robust as the built profile there; but its C(0) exceeds chi by
        # about 2.97e-4
        p = bidding_profiles[0.5]
        raised = dataclasses.replace(p, g=dataclasses.replace(
            p.g, left_values=p.g.left_values * (1.0 + 1e-3),
            tail=scaled(p.g.tail, 1.0 + 1e-3)))
        rep = verify(raised)
        assert rep.consistency_gap == pytest.approx(2.97e-4, rel=1e-2)
        assert rep.failures == (
            f"consistency: C(0) exceeds chi by {rep.consistency_gap:.3e}",)
        (cond,) = p.conditions

        def worst(q, xs):
            # verify's relative residual at xs, or at the nodes for None
            c = bd._delayed_integral(q, cond, xs)
            gx = q.g.left_values if xs is None else q.g.value(xs)
            return float(np.max((c - q.rho * gx) / (
                q.rho * np.maximum(gx, 0.0) + bd.ATOL_FLOOR / bd.TOL_REL)))

        g = p.g
        assert worst(raised, None) < 1e-8
        assert worst(raised, np.geomspace(max(g.h, 1e-4), 10.0, 400)) < 1e-8
        tail = np.linspace(g.x_min - 3.0, g.x_min, 100, endpoint=False)
        assert worst(raised, tail) <= (1.0 + 1e-3) * worst(p, tail)

    def test_each_component_is_the_right_of_one_condition(
            self, bidding_profiles, excursion_profiles):
        # verify checks positivity per condition on x > 0, so each profile
        # type names every component and puts each on the right of exactly
        # one condition
        for p in (bidding_profiles[0.5], excursion_profiles[0.9]):
            assert len(p.names) == len(p.components)
            assert (sorted(c.right for c in p.conditions)
                    == list(range(len(p.components))))

    @pytest.mark.parametrize("terms", [((1, 0), (0, 1)), ((0, 2),),
                                       ((0, 1), (1, 1)), ((0, -1),)])
    def test_a_row_the_node_evaluator_misreads_is_refused(self, terms):
        # _at_nodes reads the shift of a row's first term only
        with pytest.raises(ValueError, match="only the first term shifted"):
            bd.Condition("C <= rho G", terms, 0, tight=False)


class TestTailClosure:
    """The mass below x_min from the closure over the window's first unit,
    the modes projected from that unit, and verify's check of the tail."""

    @pytest.mark.parametrize("kind", [bd.BiddingProfile, ExcursionProfile])
    def test_weights_are_the_corrected_trapezoid(self, kind):
        # w . G is the corrected trapezoid of scale (e^{root(1-u)} - 1) G
        # over the first unit and, by parts, of
        # scale root e^{root(1-u)} C, C the integral of G from x_min
        grid = make_grid(-6.0, bd.DEFAULT_H)
        s, rho = 0.7, 3.1
        root, scale = kind.closure(s, rho)
        u = np.arange(grid.steps_per_unit + 1) * grid.h
        G = np.exp(2.0 * u) + u * u
        w = bd._closure(kind, s, rho, grid)
        assert np.all(w[:-1] > 0.0) and w[-1] == 0.0
        trapezoid = cumulative_integral(scale * np.expm1(root * (1.0 - u))
                                        * G, grid.h)[-1]
        assert float(w @ G) == pytest.approx(trapezoid, rel=1e-14)
        C = cumulative_integral(G, grid.h)
        by_parts = cumulative_integral(scale * root * np.exp(root * (1.0 - u))
                                       * C, grid.h)[-1]
        assert float(w @ G) == pytest.approx(by_parts, rel=1e-10)

    @pytest.mark.parametrize("build, s", [
        *[(build_profile, s) for s in (0.5, 0.8, 0.95)],
        *[(build_excursion_profile, s) for s in (0.9, 1.1, 1.25)]])
    def test_closure_recovers_the_mass_of_a_deeper_build(self, build, s):
        # read at x0 = -6 and -4 from a build from -10, the closure over
        # [x0, x0 + 1] gives the mass that build holds below x0
        p = build(s, x_min=-10.0)
        g, grid = p.components[0], p.components[0].grid
        w = bd._closure(type(p), s, p.rho, grid)
        for x0 in (-6.0, -4.0):
            i = grid.m - round(-x0 * grid.steps_per_unit)
            below = sum(c.integral_to(x0) for c in p.components)
            assert float(w @ g.left_values[i:i + w.size]) == pytest.approx(
                below, rel=1e-8)

    @pytest.mark.parametrize("build, s", [(build_profile, 0.5),
                                          (build_excursion_profile, 1.1)])
    def test_the_tail_coefficients_are_the_correctly_rounded_projection(
            self, build, s, monkeypatch):
        # every coefficient comes from the correctly rounded sums of the
        # closure's and J's products, which no reduction order (a BLAS
        # kernel, a pairwise sum) changes, so a saved file reloads on any
        # machine: summing them exactly in Fractions gives the same tail
        p = build(s)
        lefts = tuple(c.left_values for c in p.components)
        monkeypatch.setattr(math, "fsum",
                            lambda xs: float(sum(map(Fraction, xs))))
        exact = bd._tails(type(p), s, p.rho, lefts, p.components[0].grid)
        for c, tail in zip(p.components, exact):
            assert len(c.tail.modes) == 1 + bd.TAIL_PAIRS
            assert c.tail == tail

    @pytest.mark.parametrize("build, s", [
        *[(build_profile, s) for s in (0.3, 0.5, 0.8, 0.95, 0.05, 0.1, 0.99)],
        *[(build_excursion_profile, s)
          for s in (0.2, solve_sK(), 0.9, 1.1, 1.25, 0.05, 0.1, 0.99,
                    s_star() - 1e-3)]])
    def test_default_builds_pass_the_tail_check(self, build, s):
        rep = verify(build(s))
        assert rep.passed, rep.failures

    @pytest.mark.parametrize("build, s, field", [
        (build_profile, 0.5, "g"), (build_excursion_profile, 0.9, "g_plus")])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("f", [0.5, 1.435, 2.0])
    def test_a_wrong_tail_rate_is_rejected_on_the_tail(self, build, s, field,
                                                       part, f):
        # the real mode's rate (part 0) or coefficient (part 1) times f: the
        # tail no longer matches its projection, with no help from
        # ATOL_FLOOR (G+(x_min) is 4.1e-7 at linear search 0.9)
        p = build(s)
        g = getattr(p, field)
        real = list(g.tail.modes[0])
        real[part] *= f
        g = dataclasses.replace(g, tail=Tail((tuple(real),)
                                             + g.tail.modes[1:]))
        rep = verify(dataclasses.replace(p, **{field: g}))
        name = p.names[0]
        (failure,) = [f for f in rep.failures if f.startswith("tail")]
        assert failure.startswith(f"tail: {name} is ")
        assert float(failure.rsplit("x = ", 1)[1]) < g.x_min
        assert not rep.passed

    @pytest.mark.parametrize("build, s", [
        *[(build_excursion_profile, s) for s in (0.05, 0.1, 0.2, 0.3)],
        (build_profile, 0.3)])
    def test_the_deep_tail_is_exact(self, build, s):
        # every stored mode solves the characteristic equation, and G-'s
        # is rho lam - 1 times G+'s, so each row holds on the stored tail
        # below x_min - 1 up to rounding
        p = build(s)
        rho, pair = p.rho, len(p.components) == 2
        for j, (lam, c) in enumerate(p.components[0].tail.modes):
            lhs, rhs = (((rho * lam - 1.0) ** 2, cmath.exp(lam)) if pair
                        else (cmath.exp(lam), rho * lam))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
            if pair:
                assert p.g_minus.tail.modes[j] == (lam, (rho * lam - 1.0) * c)
        xs = p.components[0].x_min - np.linspace(5.0, 20.0, 61)
        for cond in p.conditions:
            g = p.components[cond.right]
            assert np.all(bd._delayed_integral(p, cond, xs)
                          <= rho * g.value(xs) * (1.0 + 1e-12))

    @pytest.mark.parametrize("build, s", [
        *[(build_profile, s) for s in (0.3, 0.5, 0.8, 0.95)],
        *[(build_excursion_profile, s) for s in (0.2, 1.25)]])
    def test_a_default_build_matches_a_deeper_one(self, build, s):
        # the window where G >= 1e-9, and at bidding 0.3, the anchor whose
        # window lies farthest from its deep decay, the tail on
        # [x_min - 3, x_min) (7.1e-6 there; one exponential read 9.5e-3).
        # Linear search s_K and 0.9 miss the window bound on the first
        # unit, by 1.1e-7 and 3.3e-8 relative (4e-16 absolute)
        p, deep = build(s), build(s, x_min=-12.0)
        xs = np.linspace(p.components[0].x_min - 3.0, 0.0, 1201)
        for g, ref in zip(p.components, deep.components):
            got, want = g.value(xs), ref.value(xs)
            rel = np.abs(got / want - 1.0)
            assert np.max(rel[(xs >= g.x_min) & (want >= 1e-9)]) <= 1e-8
            if s == 0.3:
                assert np.max(rel[xs < g.x_min]) <= 2e-5

    def test_a_tail_not_certainly_increasing_is_one_exponential(self):
        # a first unit that wobbles by 20% projects to modes whose slopes
        # outweigh the real one's, so the tail falls back to one
        # exponential from G(x_min) at the first value over the mass
        p = build_profile(0.5)
        g, n = p.g, p.g.grid.steps_per_unit
        left = g.left_values.copy()
        left[:n + 1] *= 1.0 + 0.2 * np.sin(4.0 * np.pi * np.arange(n + 1) / n)
        (tail,) = bd._tails(type(p), p.s, p.rho, (left,), g.grid)
        w = bd._closure(type(p), p.s, p.rho, g.grid)
        mass = math.fsum((w * left[:n + 1]).tolist())
        assert tail == Tail.exponential(left[0] / mass, left[0])
        assert g.tail.is_monotone()
        # the check: the real mode's slope bounds the others' moduli
        assert Tail(((1.0, 1.0), (complex(2.0, 7.0), 0.13))).is_monotone()
        assert not Tail(((1.0, 1.0), (complex(2.0, 7.0), 0.14))).is_monotone()

    @pytest.mark.parametrize("problem, s", [
        ("bidding", 0.3), ("bidding", 0.5), ("bidding", 0.8),
        ("bidding", 0.95), ("linsearch", 0.2), ("linsearch", solve_sK()),
        ("linsearch", 0.9), ("linsearch", 1.1), ("linsearch", 1.25)])
    def test_the_tail_meets_the_window_at_x_min(self, bidding_profiles,
                                                excursion_profiles, problem,
                                                s):
        # at the nine anchors every tail keeps its modes and meets G(x_min)
        # within the monotone tolerance: the pair's overshoots by at most
        # 3.1e-8 relative (G- at 0.9), bidding's stay below
        if problem == "bidding":
            p = bidding_profiles.get(s) or build_profile(s)
        else:
            p = excursion_profiles.get(s) or build_excursion_profile(s)
        for g in p.components:
            first = g.left_values[0]
            assert len(g.tail.modes) == 1 + bd.TAIL_PAIRS
            assert g.tail.at(0.0) <= first + max(bd.MONOTONE_TOL,
                                                 bd.TOL_REL * first)
            assert g.is_monotone(bd.MONOTONE_TOL, junction_rel=bd.TOL_REL)

    def test_a_tail_above_the_window_is_not_monotone(self, bidding_profiles):
        g = bidding_profiles[0.5].g
        first = g.left_values[0]
        (r, c), *waves = g.tail.modes
        for jump, monotone in ((1e-14, True), (2e-12, False)):
            up = dataclasses.replace(g, tail=Tail(
                ((r, c + (first - g.tail.at(0.0)) + jump), *waves)))
            assert up.is_monotone(bd.MONOTONE_TOL) is monotone
        # a relative allowance at the junction lets the larger jump pass
        assert up.is_monotone(bd.MONOTONE_TOL, junction_rel=1e-8)

    @pytest.mark.parametrize("build, s, rate", [
        *[(build_profile, s, conjugate_rate_bidding)
          for s in (1e-300, 1e-9, 1e-4)],
        (build_excursion_profile, 1e-6, conjugate_rate_linear)])
    def test_an_underflowed_tail_takes_the_conjugate_rate(self, build, s,
                                                         rate):
        # G(x_min) and the closure's mass both round to 0 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = build(s)
            rep = verify(p)
        assert rep.passed, rep.failures
        for g in p.components:
            assert g.tail_coeff == 0.0 and g.tail_rate == rate(s)

    def test_sweeps_from_zero_rise_until_the_first_jump(self):
        # from -6, where more than 50 sweeps precede the first jump
        p = build_profile(0.8, x_min=-6.0)
        step = bd._sweep((p.g.right_pieces,), p.rho, p.g.grid, p.s,
                         (p.g.kink_nodes,))
        rises, last, jumped = [], None, False

        def watched(x, out):
            nonlocal last, jumped
            jumped = jumped or (last is not None and x[0] is not last)
            step(x, out)
            last = out[0]
            if not jumped:
                rises.append(float(np.min(out[0] - x[0])))

        zero = (np.zeros(p.g.grid.m + 1),)
        (left,), sweeps, _ = bd._iterate_to_fixed_point(watched, zero,
                                                         bd.DEFAULT_MAX_ITER)
        assert sweeps == p.iterations and np.array_equal(left,
                                                         p.g.left_values)
        assert 50 < len(rises) < p.iterations
        assert min(rises) >= -1e-15


class TestTighten:
    def test_the_returned_tail_is_derived(self, bidding_profiles):
        # tighten derives the tail from its left part as a build does,
        # whatever tail g carried, so verify's node rows read the mass of
        # the modes of the tightened profile
        p = bidding_profiles[0.5]
        g2 = tighten(dataclasses.replace(p.g, tail=Tail.exponential(
            2.0 * p.g.tail_rate, p.g.tail_coeff)), p.rho)
        assert len(g2.tail.modes) == len(p.g.tail.modes)
        for (lam2, c2), (lam, c) in zip(g2.tail.modes, p.g.tail.modes):
            assert lam2 == pytest.approx(lam, rel=1e-12)
            assert c2 == pytest.approx(c, rel=1e-9)
        assert verify(dataclasses.replace(p, g=g2)).tightness_residual < 1e-10

    def test_rho_below_e_is_refused(self, bidding_profiles):
        # e^s = rho s has no real root below rho = e, the least rho a
        # bidding profile has
        with pytest.raises(DomainError, match="rho >= e"):
            tighten(bidding_profiles[0.5].g, 2.7)

    def test_optimal_profile_is_already_tight(self, bidding_profiles):
        p = bidding_profiles[0.5]
        g2 = tighten(p.g, p.rho)
        assert np.max(np.abs(g2.left_values - p.g.left_values)) <= 1e-8

    def test_inflated_profile_tightens_down(self, bidding_profiles):
        p = bidding_profiles[0.5]
        g = p.g
        inflated = GridFunction(grid=g.grid,
                                left_values=np.minimum(g.left_values * 1.05,
                                                       1.0 - 1e-9),
                                right_pieces=g.right_pieces,
                                tail=g.tail, kink_nodes=g.kink_nodes)
        chi_inflated = inflated.integral_to(1.0)
        before = inflated.left_values.copy()
        g2 = tighten(inflated, p.rho)
        assert inflated.left_values.tobytes() == before.tobytes()
        assert g2.integral_to(1.0) <= chi_inflated + 1e-12
        assert np.all(g2.left_values <= inflated.left_values + 1e-12)

    def test_iterates_nonincreasing(self, bidding_profiles):
        # seed from the exponential super-solution K e^{cx}: a valid but
        # loose profile, so sweeps must come down monotonically
        p = bidding_profiles[0.5]
        g = p.g
        c = 0.5 * (p.s + 1.0)
        left = 2.0 * np.exp(c * g.grid.positions)
        for _ in range(25):
            new = apply_F(left, phi_pieces(p.s, p.chi), p.rho, g.grid,
                          s=p.s, kinks=g.kink_nodes)
            assert np.all(new <= left + 1e-15)
            left = new


class TestOptimalityChecks:
    def test_bpb_equality_s05(self, bidding_profiles):
        lhs, rhs = check_bpb(bidding_profiles[0.5])
        assert rhs == pytest.approx((math.exp(0.5) - 1.0) / 0.5, rel=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_bpb_equality_s08(self, bidding_profiles):
        lhs, rhs = check_bpb(bidding_profiles[0.8])
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_bpb_equality_endpoint(self, bidding_profiles):
        lhs, rhs = check_bpb(bidding_profiles[1.0])
        assert rhs == pytest.approx(math.e, rel=1e-9)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_phi_bound_attained(self, bidding_profiles):
        for p in bidding_profiles.values():
            assert check_phi_lb(p) <= 1e-10

    def test_phi_bound_violated_by_flat_phi(self):
        # phi == 1 cannot induce a tight profile at s = 0.9's optimum chi:
        # the bound s chi e^{s(x-1)} exceeds 1 near x = 1
        s = 0.9
        pt = bidding_tradeoff(s)
        grid = make_grid(-5.0, 1e-2)
        g = GridFunction(
            grid=grid,
            left_values=np.full(grid.m + 1, 0.5),
            right_pieces=(Piece.constant(1.0, 0.0, 1.0),
                          Piece.exponential(1.0, s, 1.0, 1.0, math.inf)),
            tail=Tail.exponential(1.0, 0.5))
        fake = bd.BiddingProfile(s=s, rho=pt.rho, chi=pt.chi, g=g)
        violation = check_phi_lb(fake)
        assert violation == pytest.approx(s * pt.chi - 1.0, abs=1e-9)
        assert violation > 0.5


class TestDominationBound:
    def test_iterates_below_exponential_bound(self):
        # H(x) = K e^{cx} with c = (s+1)/2 dominates the operator sweeps
        s = 0.5
        pt = bidding_tradeoff(s)
        grid = make_grid(-30.0, 1e-3)
        c = 0.5 * (s + 1.0)
        phi = phi_pieces(s, pt.chi)
        xs = grid.positions[grid.positions >= -1.0]
        phi_mass = np.array(
            [sum(p.integral(0.0, x + 1.0) for p in phi) for x in xs])
        need = np.max(phi_mass / (pt.rho * (np.exp(c * xs) - 1.0 / (pt.rho * c))))
        K = 1.1 * max(need, 1.0)
        H = K * np.exp(c * grid.positions)
        kinks = (grid.m - grid.steps_per_unit,)
        FH = apply_F(H, phi, pt.rho, grid, s=s, kinks=kinks)
        assert np.all(FH <= H * (1 + 1e-12))
        left = np.zeros(grid.m + 1)
        for _ in range(60):
            left = apply_F(left, phi, pt.rho, grid, s=s, kinks=kinks)
            assert np.all(left <= H * (1 + 1e-12))


def test_grid_refinement_order():
    # chi estimate converges at empirical order >= 1.8 under h-halving, and
    # each halving moves it by less than 4x the h^2 trapezoid error model
    # (|G''| integrates to at most G'(0-) = phi(1)/rho)
    s = 0.8
    pt = bidding_tradeoff(s)
    chis, hs = [], [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512]
    for h in hs:
        p = build_profile(s, x_min=-20.0, h=h)
        chis.append(p.g.integral_to(1.0))
    errs = [abs(c - pt.chi) for c in chis]
    order = math.log2(errs[0] / errs[-1]) / (len(hs) - 1)
    assert order >= 1.8, (errs, order)
    model = max(1.0, s * pt.chi) / pt.rho / 12.0
    for h, c1, c2 in zip(hs, chis, chis[1:]):
        assert abs(c1 - c2) <= 4.0 * h * h * model


def test_tail_extension_consistent_with_window(bidding_profiles):
    # the stored tail, extended upward into the lowest decile of the
    # window, tracks the computed values (they only drift once magnitudes
    # fall to the iteration's resolution floor)
    for s, rel_tol in ((0.8, 1e-4), (0.5, 5e-2)):
        g = bidding_profiles[s].g
        n = g.grid.m // 10
        xs = g.grid.positions[:n]
        ext = g.tail.value(xs - g.x_min)
        rel = np.abs(ext / g.left_values[:n] - 1.0)
        assert float(np.max(rel)) <= rel_tol


def test_bpb_tail_term_vanishes(bidding_profiles):
    # e^{-s x} A(x) is negligible next to chi deep in the tail (at x = -30,
    # below the default window, where the model is the analytic tail), so
    # the consistency identity of check_bpb holds with equality
    x = -30.0
    for s in (0.3, 0.5, 0.8):
        p = bidding_profiles[s]
        proxy = math.exp(-s * x) * p.g.integral_to(x)
        assert proxy <= 1e-6 * p.chi


def test_right_pieces_continuous_at_one():
    for s in (0.3, 0.8, 1.0):
        chi = bidding_tradeoff(s).chi
        pieces = right_pieces(s, chi)
        below = [p for p in pieces if p.hi <= 1.0][-1].value(1.0)
        above = pieces[-1].value(1.0 + 1e-15)
        assert below == pytest.approx(above, rel=1e-12)


def test_right_part_matches_closed_form(bidding_profiles):
    xs = np.linspace(1e-9, 1.0, 513)
    for s, p in bidding_profiles.items():
        expect = np.maximum(1.0, s * p.chi * np.exp(s * (xs - 1.0)))
        np.testing.assert_allclose(p.g.value(xs), expect, rtol=1e-12)
