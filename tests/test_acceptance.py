"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Each criterion is a separate test so failures are attributable;
stated runtime budgets are asserted alongside the numeric tolerances.
"""

import math
import time

import numpy as np
import pytest

from oracles import (apply_F, apply_F_pair, check_bpb, check_phi_lb,
                     invert_linear_strategy_chi, phi_pieces, psi_pieces,
                     weighted_psi_integral)
from profile_lab import analysis
from profile_lab.analysis import (bidding_tradeoff, bisect,
                                  linear_lower_bound, linear_tradeoff,
                                  rho_ls_star, s_star, solve_K, solve_sK,
                                  solve_xi_bidding)
from profile_lab.bidding import build_profile, expected_cost, verify
from profile_lab.excursion import (C_plus, build_excursion_profile,
                                   strategy_cost_linear, verify_excursion)
from profile_lab.grids import make_grid
from profile_lab.reduction import cost_dominance_check
from profile_lab.simulate import simulate_bidding, simulate_linear
from test_reduction import fixture_targets, random_strategy


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_endpoint_exactness():
    start = time.perf_counter()
    p = build_profile(1.0, x_min=-30.0, h=1e-3)
    sup = float(np.max(np.abs(p.g.left_values - np.exp(p.g.grid.positions))))
    worst = max(abs(expected_cost(p, float(T)) / T - math.e)
                for T in np.geomspace(1e-2, 1e2, 50))
    elapsed = time.perf_counter() - start
    check(1, sup <= 1e-8 and worst <= 1e-9 and elapsed < 5.0,
          f"sup|G-e^x|={sup:.2e} (<=1e-8), max|cost/T-e|={worst:.2e} "
          f"(<=1e-9), runtime={elapsed:.2f}s (<5s)")


def test_criterion_2_pareto_curve_verification():
    start = time.perf_counter()
    worst_rel = 0.0
    all_pass = True
    for s in [round(0.1 * k, 1) for k in range(1, 11)]:
        p = build_profile(s, x_min=-30.0 / max(s, 0.5), h=1e-3)
        rep = verify(p)
        all_pass &= rep.passed
        rel = abs(p.g.integral_to(1.0) - p.chi) / p.chi
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    check(2, all_pass and worst_rel <= 1e-4 and elapsed < 120.0,
          f"verify pass at tol_rel=1e-4 for s=0.1..1.0, max rel chi error "
          f"{worst_rel:.2e} (<=1e-4), runtime={elapsed:.1f}s (<2min)")


def test_criterion_3_golden_roots():
    xi = solve_xi_bidding(0.8)
    sk = solve_sK()
    _, strat = linear_tradeoff(s_star())
    ok = (abs(xi - 1.2557715) <= 1e-4 and abs(sk - 0.5878) <= 1e-4
          and abs(strat.rho - 4.59112) <= 1e-4
          and abs(strat.chi - 4.59112) <= 1e-4)
    check(3, ok,
          f"xi(0.8)={xi:.7f} (1.2557715±1e-4), s_K={sk:.5f} (0.5878±1e-4), "
          f"endpoint=({strat.rho:.5f},{strat.chi:.5f}) (4.59112±1e-4)")


def test_criterion_4_equalities_at_optimum(bidding_profiles):
    worst_gap = 0.0
    worst_violation = -math.inf
    for s in (0.3, 0.5, 0.8):
        p = bidding_profiles.get(s) or build_profile(s)
        lhs, rhs = check_bpb(p)
        worst_gap = max(worst_gap, abs(lhs - rhs))
        worst_violation = max(worst_violation, check_phi_lb(p))
    check(4, worst_gap <= 1e-6 and worst_violation <= 1e-10,
          f"max |chi - e^s int e^(-sx) phi| = {worst_gap:.2e} (<=1e-6), "
          f"max phi-bound violation = {worst_violation:.2e} (<=1e-10)")


def test_criterion_5_linear_search_verification(excursion_profiles):
    start = time.perf_counter()
    all_pass = True
    worst_boundary = 0.0
    for s, p in excursion_profiles.items():
        rep = verify_excursion(p)
        all_pass &= rep.passed
        psi_mass = sum(piece.integral(0.0, 1.0)
                       for piece in psi_pieces(p.s, p.K))
        resid = abs(C_plus(p, 0.0) + psi_mass - p.rho * p.K * math.exp(-p.s))
        worst_boundary = max(worst_boundary, resid)
    elapsed = time.perf_counter() - start
    check(5, all_pass and worst_boundary <= 1e-5 and elapsed < 120.0,
          f"verify pass at tol_rel=1e-4 for s in {{0.2, s_K, 0.9, s_*}}, "
          f"boundary identity residual {worst_boundary:.2e} (<=1e-5), "
          f"runtime={elapsed:.1f}s (<2min)")


def test_criterion_6_chi_identity(excursion_profiles):
    worst = max(abs(C_plus(p, 0.0)
                    - weighted_psi_integral(s, psi_pieces(p.s, p.K)))
                for s, p in excursion_profiles.items())
    check(6, worst <= 1e-5,
          f"max |C+(0) - weighted psi integral| = {worst:.2e} (<=1e-5)")


def test_criterion_7_monte_carlo_oracle(bidding_profiles, excursion_profiles):
    n = 10 ** 6
    cases = []
    for s, T, seed in [(1.0, 2.0, 11), (1.0, 0.37, 12), (0.5, 1.0, 13),
                       (0.5, 17.3, 14), (0.8, 2.5, 15), (0.3, 0.08, 16)]:
        p = bidding_profiles.get(s) or build_profile(s)
        cases.append(("bid", p, T, seed, expected_cost(p, T)))
    for s, T, seed in [(s_star(), 3.0, 21), (s_star(), -1.2, 22),
                       (0.2, 1.0, 23), (0.2, -0.05, 24),
                       (0.9, 25.0, 25), (0.9, -0.7, 26)]:
        p = excursion_profiles.get(s) or build_excursion_profile(s)
        cases.append(("lin", p, T, seed, strategy_cost_linear(p, T)))
    hits = 0
    slowest = 0.0
    for kind, p, T, seed, exact in cases:
        t0 = time.perf_counter()
        rep = (simulate_bidding(p, T, n, seed) if kind == "bid"
               else simulate_linear(p, T, n, seed))
        slowest = max(slowest, time.perf_counter() - t0)
        hits += abs(rep.mean - exact) <= 4.0 * rep.stderr
    check(7, hits >= 11 and slowest < 60.0,
          f"{hits}/12 runs within 4 stderr of the analytic cost (need >=11), "
          f"slowest pair {slowest:.1f}s (<60s)")


def test_criterion_8_dominance_property():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = -math.inf
    for _ in range(100):
        ds = random_strategy(rng)
        rep = cost_dominance_check(ds, fixture_targets(ds, rng, count=20))
        worst = max(worst, rep.max_violation)
        assert rep.all_ok
    elapsed = time.perf_counter() - start
    check(8, worst <= 1e-10 and elapsed < 30.0,
          f"100 fixtures x 20 targets, max profile-minus-direct gap "
          f"{worst:.2e} (<=1e-10), runtime={elapsed:.1f}s (<30s)")


def test_criterion_9_curve_dominance():
    strict_ok = True
    for chi_ls in np.linspace(1.001, 4.0, 50):
        s = invert_linear_strategy_chi(float(chi_ls))
        rho_ub = linear_tradeoff(s)[1].rho
        t = bisect(lambda t: linear_lower_bound(t).chi_ls - chi_ls, 1e-9, 1.0)
        rho_lb = linear_lower_bound(t).rho_ls
        strict_ok &= rho_ub > rho_lb
    check(9, strict_ok,
          "upper-bound rho strictly dominates the clamped lower bound at 50 "
          "matched chi_LS values in (1, 4]")


def test_criterion_10_asymptotics():
    _, strat = linear_tradeoff(0.01)
    upper = strat.rho - 2.0 / (strat.chi - 1.0)
    lb = linear_lower_bound(0.01)
    lower = lb.rho_ls_raw - 2.0 / (lb.chi_ls - 1.0)
    ok = abs(upper - 7.0 / 3.0) <= 0.05 and abs(lower - 1.5) <= 0.05
    check(10, ok,
          f"s=0.01 upper overhead {upper:.4f} (7/3±0.05), "
          f"t=0.01 lower overhead {lower:.4f} (3/2±0.05)")


def test_criterion_11_property_suite():
    rng = np.random.default_rng(7)
    # order preservation, both operators, 50 random monotone inputs
    grid = make_grid(-5.0, 1e-2)
    s = 0.6
    pt = bidding_tradeoff(s)
    phi = phi_pieces(s, pt.chi)
    exc, _ = linear_tradeoff(s)
    psi = psi_pieces(s, solve_K(s))
    order_ok = True
    for _ in range(50):
        a = np.cumsum(rng.random(grid.m + 1)) * 1e-3
        b = a + np.cumsum(rng.random(grid.m + 1)) * 1e-3
        fa = apply_F(a, phi, pt.rho, grid, s=s)
        fb = apply_F(b, phi, pt.rho, grid, s=s)
        order_ok &= bool(np.all(fb - fa >= -1e-15))
        am = np.cumsum(rng.random(grid.m + 1)) * 1e-3
        bm = am + np.cumsum(rng.random(grid.m + 1)) * 1e-3
        fpa = apply_F_pair(a, am, psi, exc.rho, grid, s=s)
        fpb = apply_F_pair(b, bm, psi, exc.rho, grid, s=s)
        order_ok &= bool(np.all(fpb[0] - fpa[0] >= -1e-15))
        order_ok &= bool(np.all(fpb[1] - fpa[1] >= -1e-15))

    # monotone iteration bounded by the dominating exponential
    s = 0.5
    pt = bidding_tradeoff(s)
    grid = make_grid(-20.0, 1e-3)
    c = 0.5 * (s + 1.0)
    phi = phi_pieces(s, pt.chi)
    H = 2.0 * np.exp(c * grid.positions)
    kinks = (grid.m - grid.steps_per_unit,)
    left = np.zeros(grid.m + 1)
    bounded_ok = bool(np.all(
        apply_F(H, phi, pt.rho, grid, s=s, kinks=kinks)
        <= H * (1 + 1e-12)))
    for _ in range(50):
        new = apply_F(left, phi, pt.rho, grid, s=s, kinks=kinks)
        bounded_ok &= bool(np.all(new >= left - 1e-15))
        bounded_ok &= bool(np.all(new <= H * (1 + 1e-12)))
        left = new

    # grid refinement: chi converges at empirical order >= 1.8
    s = 0.8
    chi = bidding_tradeoff(s).chi
    hs = [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512]
    errs = [abs(build_profile(s, x_min=-20.0, h=h).g.integral_to(1.0) - chi)
            for h in hs]
    order = math.log2(errs[0] / errs[-1]) / (len(hs) - 1)

    check(11, order_ok and bounded_ok and order >= 1.8,
          f"order preservation 50/50, bounded monotone iteration ok, "
          f"chi refinement order {order:.2f} (>=1.8)")
