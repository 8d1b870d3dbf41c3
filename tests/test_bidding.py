"""Bidding profile construction, evaluation, and verification."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import (apply_F, build_profile_backward, check_bpb,
                     check_phi_lb, phi_pieces, right_pieces)
from profile_lab import bidding as bd
from profile_lab.analysis import (ConvergenceError, DomainError,
                                  bidding_tradeoff, s_star)
from profile_lab.bidding import build_profile, expected_cost, tighten, verify
from profile_lab.excursion import build_excursion_profile, verify_excursion
from profile_lab.grids import GridFunction, Piece, make_grid

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
        out = apply_F(np.zeros(grid.m + 1), phi, 2.0, grid, tail_rate=1.0)
        expected = np.maximum(0.0, grid.positions + 1.0) / 2.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_exponential_fixed_point(self):
        # H = e^x with phi = e^x on (0,1] and rho = e reproduces itself
        grid = make_grid(-20.0, 1e-3)
        phi = (Piece.exponential(1.0, 1.0, 0.0, 0.0, 1.0),)
        H = np.exp(grid.positions)
        out = apply_F(H, phi, math.e, grid, tail_rate=1.0)
        assert np.max(np.abs(out - H) / H) < 1e-9

    def test_order_preserving(self):
        grid = make_grid(-5.0, 1e-2)
        phi = phi_pieces(0.6, bidding_tradeoff(0.6).chi)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = np.cumsum(rng.random(grid.m + 1)) * 1e-3
            b = a + np.cumsum(rng.random(grid.m + 1)) * 1e-3
            fa = apply_F(a, phi, 2.5, grid, tail_rate=0.8)
            fb = apply_F(b, phi, 2.5, grid, tail_rate=0.8)
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
            new = apply_F(left, phi, bidding_tradeoff(s).rho, grid,
                          tail_rate=0.75)
            assert np.all(new >= left - 1e-15)
            left = new

    def test_fixed_point_residual(self, bidding_profiles):
        for s, p in bidding_profiles.items():
            if p.iterations == 0:
                continue  # closed-form endpoint
            out = apply_F(p.g.left_values, phi_pieces(p.s, p.chi), p.rho,
                          p.g.grid, p.g.tail_rate, kinks=p.g.kink_nodes)
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


# Sweep ceilings 10% above the sweeps taken when they were set (790 over
# the s ~ 1.25 band's 689-718).  In the band a build needs a second
# extrapolation jump; Jacobi pair sweeps took 1039-1107 there, and over
# 3100 without the second jump.
@pytest.mark.parametrize("build, check, s, max_sweeps", [
    (build_profile, verify, 0.999, 322),
    (build_excursion_profile, verify_excursion, 1.248, 790),
    (build_excursion_profile, verify_excursion, 1.25, 790),
    (build_excursion_profile, verify_excursion, 1.252, 790),
    (build_excursion_profile, verify_excursion, 1.27, 793),
    (build_excursion_profile, verify_excursion, s_star() - 1e-4, 793),
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
        pb = build_profile_backward(s, x_min=-10.0)
        pf = bidding_profiles.get(s) or build_profile(s)
        tail = pf.g.left_values[-(pb.g.grid.m + 1):]
        assert np.max(np.abs(tail - pb.g.left_values)) <= 1e-5

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
                    g.tail_rate, g.kink_nodes)
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
                         tail_rate=1.0)
        fake = bd.BiddingProfile(s=0.5, rho=2.0, chi=1.5, g=g)
        rep = verify(fake)
        assert not rep.passed
        assert any("robustness" in f for f in rep.failures)
        assert not rep.offset_ok

    def test_deflated_left_part_fails_robustness_only(self, bidding_profiles):
        p = bidding_profiles[0.5]
        g = p.g
        shrunk = GridFunction(grid=g.grid, left_values=g.left_values * 0.9,
                              right_pieces=g.right_pieces,
                              tail_rate=g.tail_rate, kink_nodes=g.kink_nodes)
        rep = verify(bd.BiddingProfile(s=p.s, rho=p.rho, chi=p.chi, g=shrunk))
        assert not rep.passed
        assert any("robustness" in f for f in rep.failures)
        assert rep.offset_ok and rep.monotone_ok

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
        # the left part raised by 1e-3 relative stays robust (worst relative
        # residual about 9.8e-10) but its C(0) exceeds chi by about 2.97e-4
        p = bidding_profiles[0.5]
        rep = verify(dataclasses.replace(p, g=dataclasses.replace(
            p.g, left_values=p.g.left_values * (1.0 + 1e-3))))
        assert rep.consistency_gap == pytest.approx(2.97e-4, rel=1e-2)
        assert rep.max_relative_residual < 1e-8
        assert rep.failures == (
            f"consistency: C(0) exceeds chi by {rep.consistency_gap:.3e}",)

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


class TestTighten:
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
                                tail_rate=g.tail_rate,
                                kink_nodes=g.kink_nodes)
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
                          tail_rate=c, kinks=g.kink_nodes)
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
            tail_rate=1.0)
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
        FH = apply_F(H, phi, pt.rho, grid, tail_rate=c, kinks=kinks)
        assert np.all(FH <= H * (1 + 1e-12))
        left = np.zeros(grid.m + 1)
        for _ in range(60):
            left = apply_F(left, phi, pt.rho, grid, tail_rate=c, kinks=kinks)
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
        ext = g.tail_coeff * np.exp(g.tail_rate * (xs - g.x_min))
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
