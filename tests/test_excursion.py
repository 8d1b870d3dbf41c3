"""Excursion profile construction and verification for linear search."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import apply_F_pair, psi_pieces, weighted_psi_integral
from profile_lab import bidding as bd
from profile_lab import excursion as ex
from profile_lab.analysis import (DomainError, linear_tradeoff, rho_ls_star,
                                  s_star, solve_K, solve_sK)
from profile_lab.excursion import (C_minus, C_plus, build_excursion_profile,
                                   strategy_cost_linear, verify_excursion)
from profile_lab.grids import GridFunction, Piece, make_grid

S_K = solve_sK()
S_STAR = s_star()


class TestApplyFPair:
    def test_zero_input_unit_psi(self):
        grid = make_grid(-5.0, 1e-2)
        psi = psi_pieces(0.3, 0.5)  # K < 1 so psi == 1 on (0, 1]
        zero = np.zeros(grid.m + 1)
        new_p, new_m = apply_F_pair(zero, zero, psi, 2.0, grid, s=0.3)
        np.testing.assert_allclose(new_p, 0.0, atol=1e-15)
        expected = np.maximum(0.0, grid.positions + 1.0) / 2.0
        np.testing.assert_allclose(new_m, expected, atol=1e-14)

    def test_order_preserving(self):
        grid = make_grid(-5.0, 1e-2)
        s = 0.5
        exc, _ = linear_tradeoff(s)
        psi = psi_pieces(s, solve_K(s))
        rng = np.random.default_rng(11)
        for _ in range(20):
            ap = np.cumsum(rng.random(grid.m + 1)) * 1e-3
            am = np.cumsum(rng.random(grid.m + 1)) * 1e-3
            bp = ap + np.cumsum(rng.random(grid.m + 1)) * 1e-3
            bm = am + np.cumsum(rng.random(grid.m + 1)) * 1e-3
            fa = apply_F_pair(ap, am, psi, exc.rho, grid, s=s)
            fb = apply_F_pair(bp, bm, psi, exc.rho, grid, s=s)
            assert np.all(fb[0] - fa[0] >= -1e-15)
            assert np.all(fb[1] - fa[1] >= -1e-15)

    @pytest.mark.parametrize("s", [0.5, S_STAR])
    def test_dominating_pair_mapped_below_itself(self, s):
        # W+ = L e^{2cx}, W- = L eta e^{2cx} with eta = e^{2c}/(2 c rho - 1)
        # is a super-solution for c in [s, s_*]; at s = s_* it is the exact
        # exponential fixed point, so equality holds up to quadrature noise
        exc, _ = linear_tradeoff(s)
        K = solve_K(s)
        c = 0.5 * (s + S_STAR)
        eta = math.exp(2.0 * c) / (2.0 * c * exc.rho - 1.0)
        L = 1.02 * max(1.0, K)
        grid = make_grid(-30.0, 1e-3)
        Wp = L * np.exp(2.0 * c * grid.positions)
        Wm = eta * Wp
        kinks = (grid.m - grid.steps_per_unit,)
        FWp, FWm = apply_F_pair(Wp, Wm, psi_pieces(s, K), exc.rho, grid,
                                s=s, minus_kinks=kinks)
        assert np.all(FWp <= Wp * (1 + 1e-8))
        assert np.all(FWm <= Wm * (1 + 1e-8))

    def test_iterates_monotone_and_bounded(self):
        s = 0.4
        exc, _ = linear_tradeoff(s)
        K = solve_K(s)
        c = 0.5 * (s + S_STAR)
        eta = math.exp(2.0 * c) / (2.0 * c * exc.rho - 1.0)
        L = 1.02 * max(1.0, K)
        grid = make_grid(-10.0, 1e-2)
        Wp = L * np.exp(2.0 * c * grid.positions)
        Wm = eta * Wp
        psi = psi_pieces(s, K)
        kinks = (grid.m - grid.steps_per_unit,)
        P = np.zeros(grid.m + 1)
        Q = np.zeros(grid.m + 1)
        for _ in range(40):
            new_P, new_Q = apply_F_pair(P, Q, psi, exc.rho, grid,
                                        s=s, minus_kinks=kinks)
            assert np.all(new_P >= P - 1e-15)
            assert np.all(new_Q >= Q - 1e-15)
            assert np.all(new_P <= Wp * (1 + 1e-10))
            assert np.all(new_Q <= Wm * (1 + 1e-10))
            P, Q = new_P, new_Q


def _gs_step(p):
    """The build's Gauss-Seidel sweep on the grid, tail and kinks of ``p``."""
    return ex._pair_sweep((psi_pieces(p.s, p.K),), p.rho, p.g_plus.grid, p.s,
                          tuple(g.kink_nodes for g in p.components))


def _from_zero(p, step):
    """``step`` driven from zero as a build drives its sweep."""
    zero = np.zeros(p.g_plus.grid.m + 1)
    return bd._iterate_to_fixed_point(step, (zero, zero), bd.DEFAULT_MAX_ITER)


class TestPairSweep:
    # at s = 1.1 the iteration jumps once, after 136 of 277 sweeps
    def test_carried_integral_matches_recomputed_across_a_jump(self):
        p = build_excursion_profile(1.1)
        carried = _gs_step(p)
        last, fresh = None, []

        def watched(x, out):
            nonlocal last
            fresh.append(x[0] is not last)  # A+ is recomputed
            carried(x, out)
            last = out[0]

        def uncarried(x, out):  # a new step has written no pair yet
            _gs_step(p)(x, out)

        (plus, minus), sweeps, delta = _from_zero(p, watched)
        assert fresh[0] and sum(fresh) >= 2  # the first sweep and a jump
        (ref_plus, ref_minus), ref_sweeps, ref_delta = _from_zero(p, uncarried)
        assert sweeps == ref_sweeps == p.iterations
        assert delta == ref_delta == p.final_delta
        for got, ref, built in ((plus, ref_plus, p.g_plus),
                                (minus, ref_minus, p.g_minus)):
            assert np.array_equal(got, ref)
            assert np.array_equal(got, built.left_values)

    def test_sweeps_from_zero_rise_until_the_first_jump(self):
        # from -6, where more than 100 sweeps precede the first jump
        p = build_excursion_profile(1.1, x_min=-6.0)
        step, rises = _gs_step(p), []
        last, jumped = None, False

        def watched(x, out):
            nonlocal last, jumped
            jumped = jumped or (last is not None and x[0] is not last)
            step(x, out)
            last = out[0]
            if not jumped:
                rises.append(min(float(np.min(new - old))
                                 for new, old in zip(out, x)))

        _from_zero(p, watched)
        assert 100 < len(rises) < p.iterations
        assert min(rises) >= -1e-15

    @pytest.mark.parametrize("s", [0.9, 1.25])
    def test_matches_jacobi_sweeps(self, s):
        p = build_excursion_profile(s)

        def jacobi(x, out):
            for o, f in zip(out, apply_F_pair(*x, psi_pieces(p.s, p.K), p.rho,
                                              p.g_plus.grid, p.s,
                                              p.g_minus.kink_nodes)):
                o[...] = f

        (plus, minus), sweeps, _ = _from_zero(p, jacobi)
        assert p.iterations < sweeps
        assert np.max(np.abs(plus - p.g_plus.left_values)) <= 1e-9
        assert np.max(np.abs(minus - p.g_minus.left_values)) <= 1e-9


class TestBuild:
    def test_endpoint_is_classical_exponential(self, excursion_profiles):
        p = excursion_profiles[S_STAR]
        pos = p.g_plus.grid.positions
        np.testing.assert_allclose(p.g_plus.left_values,
                                   np.exp(2.0 * S_STAR * pos), rtol=1e-10)
        np.testing.assert_allclose(p.g_minus.left_values,
                                   math.exp(S_STAR) * np.exp(2.0 * S_STAR * pos),
                                   rtol=1e-10)
        assert p.chi == pytest.approx(p.rho, abs=1e-4)

    def test_low_branch_chi(self, excursion_profiles):
        p = excursion_profiles[0.2]
        s = 0.2
        expected = (math.exp(2 * s) - 1.0 - 2 * s) / (2 * s * (1 + math.exp(s)))
        assert p.chi == pytest.approx(expected, rel=1e-12)
        assert C_plus(p, 0.0) == pytest.approx(expected, abs=1e-4)

    def test_high_branch_chi(self, excursion_profiles):
        p = excursion_profiles[0.9]
        assert p.K == pytest.approx(solve_K(0.9), rel=1e-12)
        assert p.K > 1.0
        assert C_plus(p, 0.0) == pytest.approx(p.chi, abs=1e-4)

    def test_minus_right_part_closed_form(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            xs = np.linspace(1e-6, 3.0, 50)
            expect = (p.M * math.exp(s) * np.exp(2 * s * (xs - 1.0))
                      + (p.K - p.M) * math.exp(-s) * np.exp(xs / p.rho))
            np.testing.assert_allclose(p.g_minus.value(xs), expect, rtol=1e-12)

    def test_minus_value_at_zero(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            assert p.g_minus.right_value_at_zero() == pytest.approx(
                p.K * math.exp(-s), rel=1e-10)
            # G- is continuous through 0 (no jump, unlike G+)
            assert p.g_minus.value(0.0) == pytest.approx(
                p.K * math.exp(-s), abs=1e-8)

    def test_minus_monotone_despite_negative_correction(self):
        # K < 1 makes the e^{x/rho} term negative; 1/rho < 2s keeps the sum
        # increasing
        p = build_excursion_profile(0.3)
        assert p.K < 1.0
        xs = np.linspace(1e-9, 5.0, 2001)
        vals = p.g_minus.value(xs)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals > 0.0)

    def test_fixed_point_residual(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            if p.iterations == 0:
                continue
            psi = psi_pieces(p.s, p.K)
            kinks = p.g_minus.kink_nodes
            FP, FM = apply_F_pair(p.g_plus.left_values, p.g_minus.left_values,
                                  psi, p.rho, p.g_plus.grid, p.s,
                                  minus_kinks=kinks)
            assert np.max(np.abs(FP - p.g_plus.left_values)) <= 1e-11
            assert np.max(np.abs(FM - p.g_minus.left_values)) <= 1e-11


class TestCumulativeCosts:
    def test_consistency_at_zero(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            assert C_plus(p, 0.0) == pytest.approx(p.chi, abs=1e-5)

    def test_minus_boundary_value(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            assert C_minus(p, 0.0) == pytest.approx(
                p.rho * p.K * math.exp(-s), rel=1e-8)

    def test_tail_decay(self, excursion_profiles):
        p = excursion_profiles[0.9]
        assert C_plus(p, -25.0) < 1e-9
        assert C_minus(p, -25.0) < 1e-8

    def test_K_ge_one_plateau_end(self, excursion_profiles):
        # C+(1) = rho K = rho G+(1) on the K >= 1 branch
        p = excursion_profiles[0.9]
        assert C_plus(p, 1.0) == pytest.approx(p.rho * p.K, rel=1e-8)
        assert p.g_plus.value(1.0) == pytest.approx(p.K, rel=1e-12)

    def test_K_lt_one_slack_identity(self, excursion_profiles):
        # for s < s_K: rho G+' - C+' = (1 - K) e^{-s} e^{x/rho} on x >= 1
        p = excursion_profiles[0.2]
        s = 0.2
        d = 1e-5
        for x in (1.2, 2.0, 3.5):
            dGp = (p.g_plus.value(x + d) - p.g_plus.value(x - d)) / (2 * d)
            dCp = (C_plus(p, x + d) - C_plus(p, x - d)) / (2 * d)
            expect = (1.0 - p.K) * math.exp(-s) * math.exp(x / p.rho)
            assert p.rho * dGp - dCp == pytest.approx(expect, rel=1e-4)


class TestVerify:
    @pytest.mark.parametrize("s", [0.2, S_K, 0.9, S_STAR])
    def test_built_profiles_pass(self, s, excursion_profiles):
        rep = verify_excursion(excursion_profiles[s])
        assert rep.passed, rep.failures

    def test_tightness_is_the_operator_residual(self, excursion_profiles):
        p = excursion_profiles[0.9]
        gp, gm = p.g_plus, p.g_minus
        FP, FM = apply_F_pair(gp.left_values, gm.left_values,
                              psi_pieces(p.s, p.K), p.rho, gp.grid, p.s,
                              gm.kink_nodes)
        expect = max(float(np.max(np.abs(p.rho * (F - g.left_values))))
                     for F, g in ((FP, gp), (FM, gm)))
        assert verify_excursion(p).tightness_residual == pytest.approx(
            expect, rel=0, abs=1e-14)

    def test_raised_minus_value_at_zero_fails(self, excursion_profiles):
        # the x = 0 junction is held to tol_rel: a G- left value at 0 that
        # overshoots the right limit K e^{-s} by 1e-3 is not monotone
        p = excursion_profiles[0.9]
        gm = p.g_minus
        left = gm.left_values.copy()
        left[-1] *= 1.0 + 1e-3
        raised = dataclasses.replace(
            p, g_minus=GridFunction(grid=gm.grid, left_values=left,
                                    right_pieces=gm.right_pieces,
                                    tail=gm.tail,
                                    kink_nodes=gm.kink_nodes))
        rep = verify_excursion(raised)
        assert not rep.monotone_ok
        assert any(f.startswith("monotone") for f in rep.failures)

    def test_robustness_failure_names_the_condition_and_x(
            self, excursion_profiles):
        # G-'s node at x = -3 lowered by 1e-2 breaks C- <= rho G- there
        # (relative residual about 9.4e-3) and leaves C+ <= rho G+ tight
        p = excursion_profiles[0.9]
        gm = p.g_minus
        left = gm.left_values.copy()
        left[gm.grid.m - 3 * gm.grid.steps_per_unit] *= 1.0 - 1e-2
        rep = verify_excursion(dataclasses.replace(
            p, g_minus=dataclasses.replace(gm, left_values=left)))
        assert rep.max_relative_residual == pytest.approx(9.4e-3, rel=1e-2)
        assert (f"robustness: relative residual "
                f"{rep.max_relative_residual:.3e} > 0.0001 in "
                f"C- <= rho G- at x = -3") in rep.failures

    def test_raised_minus_right_part_is_not_tight(self, excursion_profiles):
        # G-'s right part raised by 1e-3 relative leaves C- = rho G- short
        # on x > 0 and at 0+, where the boundary identity fails
        p = excursion_profiles[0.9]
        gm = p.g_minus
        (right,) = gm.right_pieces
        raised = dataclasses.replace(right, terms=tuple(
            (a * (1.0 + 1e-3), rate, anchor)
            for a, rate, anchor in right.terms))
        rep = verify_excursion(dataclasses.replace(
            p, g_minus=dataclasses.replace(gm, right_pieces=(raised,))))
        assert ("tightness: C- <= rho G- is not tight on x > 0, relative "
                "residual 9.982e-04") in rep.failures
        assert ("tightness: C- <= rho G- is not tight at x = 0+, residual "
                "1.812e-03 > 1e-5") in rep.failures

    def test_offset_failure_names_G_plus(self, excursion_profiles):
        p = excursion_profiles[0.9]
        gp = p.g_plus
        left = gp.left_values.copy()
        left[-1] = 1.0 + 1e-6
        rep = verify_excursion(dataclasses.replace(
            p, g_plus=dataclasses.replace(gp, left_values=left)))
        assert not rep.offset_ok
        assert ("offset: G+ must be < 1 left of 0 and >= 1 right of 0"
                in rep.failures)

    def test_one_verify_for_both_problems(self):
        assert verify_excursion is bd.verify

    def test_vanishing_minus_right_part_fails(self):
        # a G- whose right part is 0: the relative tightness on x > 0 is
        # undefined, so verify must fail it on positivity
        p = build_excursion_profile(ex.S_MIN)
        zero = (Piece.constant(0.0, 0.0, math.inf),)
        rep = verify_excursion(dataclasses.replace(
            p, g_minus=dataclasses.replace(p.g_minus, right_pieces=zero)))
        assert rep.passed is False
        assert any(f.startswith("positivity: G-") for f in rep.failures)

    @pytest.mark.parametrize("s", np.geomspace(1e-10, 1e-2, 41).tolist(),
                             ids="{:.3g}".format)
    def test_small_s_default_builds_verify(self, s):
        # five s per decade from the lower end of the domain up
        rep = verify_excursion(build_excursion_profile(s))
        assert rep.passed, rep.failures

    def test_below_the_lower_end_raises(self):
        with pytest.raises(DomainError, match="s >= 1e-10"):
            build_excursion_profile(math.nextafter(ex.S_MIN, 0.0))

    @pytest.mark.parametrize("s, factor", [(1e-6, 1 - 1e-3),
                                           (0.05, 1 - 1e-3),
                                           (0.9, math.nan)])
    def test_chi_below_realized_consistency_fails(self, s, factor):
        # chi 0.1% below C(0), far under TOL_ABS since chi is about s/2, or
        # not a number
        p = build_excursion_profile(s)
        rep = verify_excursion(dataclasses.replace(p, chi=p.chi * factor))
        assert rep.passed is False
        assert any(f.startswith("consistency: ") for f in rep.failures)

    def test_boundary_identity(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            psi_mass = sum(piece.integral(0.0, 1.0)
                           for piece in psi_pieces(p.s, p.K))
            lhs = C_plus(p, 0.0) + psi_mass
            assert lhs == pytest.approx(p.rho * p.K * math.exp(-s), abs=1e-5)

    def test_chi_identity(self, excursion_profiles):
        # converged consistency equals the weighted psi integral
        for s, p in excursion_profiles.items():
            ident = weighted_psi_integral(s, psi_pieces(p.s, p.K))
            assert C_plus(p, 0.0) == pytest.approx(ident, abs=1e-5)
            assert p.chi == pytest.approx(ident, rel=1e-10)

    def test_minimality_mixtures(self, excursion_profiles):
        # affine mixtures of the minimal extension with the dominating
        # super-solution stay valid and can only lose consistency
        s = 0.2
        p = excursion_profiles[s]
        grid = p.g_plus.grid
        c = 0.5 * (s + S_STAR)
        eta = math.exp(2.0 * c) / (2.0 * c * p.rho - 1.0)
        L = 1.02 * max(1.0, p.K)
        Wp = L * np.exp(2.0 * c * grid.positions)
        Wm = eta * Wp
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.uniform(0.05, 0.95)
            mix_p = (1 - t) * p.g_plus.left_values + t * Wp
            mix_m = (1 - t) * p.g_minus.left_values + t * Wm
            FP, FM = apply_F_pair(mix_p, mix_m, psi_pieces(p.s, p.K), p.rho,
                                  grid, s=s, minus_kinks=p.g_minus.kink_nodes)
            assert np.all(FP <= mix_p * (1 + 1e-8))  # still a valid profile
            assert np.all(FM <= mix_m * (1 + 1e-8))
            assert np.all(mix_p >= p.g_plus.left_values - 1e-12)
            # consistency of the mixture can only exceed the minimal one
            mix_chi = (FP[-1]) * p.rho  # C+(0) of the mixture
            assert mix_chi >= C_plus(p, 0.0) - 1e-10


class TestStrategyCost:
    def test_consistency(self, excursion_profiles):
        for s, p in excursion_profiles.items():
            assert strategy_cost_linear(p, 1.0) == pytest.approx(
                1.0 + 2.0 * p.chi, abs=1e-4)

    @pytest.mark.parametrize("s", [0.2, 0.9])
    def test_robustness_sweep(self, s, excursion_profiles):
        p = excursion_profiles[s]
        bound = 1.0 + 2.0 * p.rho + 1e-4
        for t in np.geomspace(1e-3, 1e3, 120):
            assert strategy_cost_linear(p, float(t)) / t <= bound
            assert strategy_cost_linear(p, -float(t)) / t <= bound

    def test_endpoint_tight_everywhere(self, excursion_profiles):
        p = excursion_profiles[S_STAR]
        star = rho_ls_star()
        for t in (0.03, 0.7, 1.0, 12.5):
            assert strategy_cost_linear(p, t) / t == pytest.approx(
                star, abs=1e-4)
            assert strategy_cost_linear(p, -t) / t == pytest.approx(
                star, abs=1e-4)

    def test_robust_where_the_slopes_break(self, excursion_profiles):
        # tau+ of this target lies next to x = -1, where G+'' jumps; slopes
        # fitted across that node put the cost 1.23e-6 above the bound
        p = excursion_profiles[S_K]
        t = 0.0028714115397318932
        assert strategy_cost_linear(p, t) <= (1.0 + 2.0 * p.rho) * t * (1.0 + 1e-6)

    @pytest.mark.parametrize("target", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_target(self, target, excursion_profiles):
        with pytest.raises(DomainError):
            strategy_cost_linear(excursion_profiles[0.2], target)


def test_asymptotic_overhead_near_zero():
    # at s = 0.01 the strategy pair satisfies
    # rho_LS - 2/(chi_LS - 1) = 7/3 + O(s)
    _, strat = linear_tradeoff(0.01)
    assert strat.rho - 2.0 / (strat.chi - 1.0) == pytest.approx(7 / 3, abs=0.05)
