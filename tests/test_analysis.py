"""Closed-form curves, root solvers, and their analytic identities."""

import decimal
import math

import numpy as np
import pytest

from oracles import invert_linear_strategy_chi
from profile_lab import analysis
from profile_lab.analysis import (DomainError, bidding_tradeoff, bisect,
                                  conjugate_rate_bidding,
                                  conjugate_rate_linear, lambert_w0,
                                  linear_lower_bound, linear_tradeoff,
                                  rho_ls_star, s_star, solve_K, solve_sK,
                                  solve_xi_bidding)

LN2 = math.log(2.0)
# the s of the ulp checks against a 700-digit reference
ULP_S = [1e-300, 1e-200, 1e-20, 1e-9, 1e-4, 1e-2, 0.0415, 0.1, 0.3, 0.5,
         LN2, 0.7, 0.8, 0.95, 1.0]


def ulps_off(got, want):
    """How many ulp of ``want``, a ``decimal.Decimal``, the float ``got`` is
    off it, at 700 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        return (abs(decimal.Decimal(got) - want)
                / decimal.Decimal(math.ulp(float(want))))


def at_700_digits(f, s):
    """``f(d)`` evaluated at 700 digits, d the double s as a Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        return f(decimal.Decimal(s))


def bisection_oracle(f, lo, hi, iters=200):
    """Plain bisection, independent of the library's solver internals."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_against_bisection_oracle(self):
        # oracle: w e^w = 1/e on [0, 1]
        expected = bisection_oracle(
            lambda w: w * math.exp(w) - math.exp(-1.0), 0.0, 1.0)
        assert lambert_w0(math.exp(-1.0)) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.278464542, abs=1e-9)

    @pytest.mark.parametrize("z", [1e-6, 0.1, 0.5, 2.0, 50.0, -0.3, -1 / math.e])
    def test_defining_residual(self, z):
        w = lambert_w0(z)
        assert w >= -1.0
        assert abs(w * math.exp(w) - z) <= 1e-14 * max(1.0, abs(z))

    def test_domain_error(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                lambert_w0(bad)

    @pytest.mark.parametrize("z", [1e250, 1e300, 1.7e308])
    def test_huge_z(self, z):
        # w e^w moves by (1 + 1/w) z per unit of w, so even the nearest
        # double can leave half an ulp of w times z: 5.7e-14 z near w = 700
        w = lambert_w0(z)
        assert abs(w * math.exp(w) - z) <= math.ulp(w) * z

    @pytest.mark.parametrize("z", [1e-300, 1e-20])
    def test_tiny_z_is_its_own_root(self, z):
        assert lambert_w0(z) == z


class TestXiBidding:
    def test_endpoints(self):
        assert solve_xi_bidding(LN2) == pytest.approx(1.0, abs=1e-12)
        assert solve_xi_bidding(1.0) == pytest.approx(math.e, rel=1e-12)

    def test_golden_value(self):
        # right-part coefficient of the s = 0.8 profile
        assert solve_xi_bidding(0.8) == pytest.approx(1.2557715, abs=1e-4)

    @pytest.mark.parametrize("s", np.linspace(LN2, 1.0, 9).tolist())
    def test_residual(self, s):
        xi = solve_xi_bidding(s)
        assert 1.0 <= xi <= math.e + 1e-12
        assert abs(xi * (2.0 - math.log(xi)) - math.exp(s)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_xi_bidding(0.5)


class TestBiddingTradeoff:
    def test_classical_endpoint(self):
        pt = bidding_tradeoff(1.0)
        assert pt.rho == pytest.approx(math.e, rel=1e-14)
        assert pt.chi == pytest.approx(math.e, rel=1e-12)

    def test_closed_form_below_branch(self):
        pt = bidding_tradeoff(0.5)
        assert pt.rho == pytest.approx(2.0 * math.exp(0.5), rel=1e-14)
        assert pt.chi == pytest.approx(2.0 * (math.exp(0.5) - 1.0), rel=1e-14)
        assert pt.rho == pytest.approx(3.29744254, abs=1e-7)
        assert pt.chi == pytest.approx(1.29744254, abs=1e-7)

    def test_branches_agree_at_ln2(self):
        lo = (math.exp(LN2) - 1.0) / LN2
        hi = solve_xi_bidding(LN2) / LN2
        assert abs(lo - hi) <= 1e-12
        pt = bidding_tradeoff(LN2)
        assert pt.rho == pytest.approx(2.0 / LN2, rel=1e-14)
        assert pt.chi == pytest.approx(1.0 / LN2, rel=1e-12)

    def test_monotone_along_curve(self):
        ss = np.linspace(1e-3, 1.0, 200)
        pts = [bidding_tradeoff(float(s)) for s in ss]
        rhos = np.array([p.rho for p in pts])
        chis = np.array([p.chi for p in pts])
        assert np.all(np.diff(rhos) < 0.0)
        assert np.all(np.diff(chis) > 0.0)

    def test_fact_s_chi(self):
        # s > ln 2 exactly when s chi(s) > 1; then the plateau end is in [0, 1)
        for s in np.linspace(0.01, 1.0, 50):
            chi = bidding_tradeoff(float(s)).chi
            assert (s > LN2) == (s * chi > 1.0 + 1e-14) or abs(s - LN2) < 1e-12
            if s * chi > 1.0:
                x0 = 1.0 - math.log(s * chi) / s
                assert 0.0 <= x0 < 1.0

    def test_domain(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                bidding_tradeoff(bad)

    @pytest.mark.parametrize("s", ULP_S)
    def test_rho_and_chi_at_700_digits(self, s):
        # chi = (e^s - 1)/s below ln 2, else xi/s with xi (2 - ln xi) = e^s,
        # xi found by Newton from 1 (the map is concave and increasing, so
        # the iterates rise to xi); at s = 1 the root is double, xi = e
        def xi(d):
            if d == 1:
                return d.exp()
            x = decimal.Decimal(1)
            for _ in range(100):
                step = (x * (2 - x.ln()) - d.exp()) / (1 - x.ln())
                x -= step
                if abs(step) < decimal.Decimal("1e-690"):
                    return x
            raise AssertionError(f"Newton for xi did not settle at s={s}")

        pt = bidding_tradeoff(s)
        rho = at_700_digits(lambda d: d.exp() / d, s)
        chi = at_700_digits(lambda d: ((d.exp() - 1) / d
                                       if d < decimal.Decimal(2).ln()
                                       else xi(d) / d), s)
        assert ulps_off(pt.rho, rho) <= 4, (pt.rho, rho)
        assert ulps_off(pt.chi, chi) <= 4, (pt.chi, chi)


class TestLinearSearchCurve:
    def test_s_star_value(self):
        ss = s_star()
        assert ss == pytest.approx(1.278464542761074, abs=1e-12)
        # robustness at the endpoint is 1/(2 W0(1/e))
        exc, strat = linear_tradeoff(ss)
        w = lambert_w0(math.exp(-1.0))
        assert exc.rho == pytest.approx(1.0 / (2.0 * w), rel=1e-12)
        assert 1.0 + 2.0 * exc.rho == pytest.approx(4.59112, abs=1e-4)
        assert rho_ls_star() == pytest.approx(4.591121476668622, rel=1e-12)

    def test_sK(self):
        sk = solve_sK()
        assert sk == pytest.approx(0.5878, abs=1e-4)
        es = math.exp(sk)
        assert abs(es * (es * es - 1 + 2 * sk * es) - (1 + es) ** 2) <= 1e-12
        # the closed-form branch reaches exactly 1 there
        assert analysis._K_closed_form(sk) == pytest.approx(1.0, abs=1e-10)

    def test_K_branches_agree(self):
        sk = solve_sK()
        assert solve_K(sk - 1e-12) == pytest.approx(solve_K(sk + 1e-12),
                                                    abs=1e-9)

    def test_K_small_s(self):
        assert 0.09 < solve_K(0.1) < 0.13

    def test_K_boundary_at_s_star(self):
        ss = s_star()
        # F_s(e^{2s}) = 2 e^s (1 + (1-s) e^s) vanishes at s_*; the root is
        # the bracket endpoint itself
        assert solve_K(ss) == pytest.approx(math.exp(2.0 * ss), rel=1e-12)
        assert abs(1.0 + (1.0 - ss) * math.exp(ss)) < 1e-12

    def test_K_monotone(self):
        sk = solve_sK()
        grid = np.linspace(0.01, sk, 200)
        vals = [analysis._K_closed_form(float(s)) for s in grid]
        assert np.all(np.diff(vals) > 0.0)
        # and across the branch point
        grid = np.linspace(0.05, s_star(), 120)
        vals = [solve_K(float(s)) for s in grid]
        assert np.all(np.diff(vals) > 0.0)

    def test_strategy_endpoint(self):
        _, strat = linear_tradeoff(s_star())
        assert strat.rho == pytest.approx(4.59112, abs=1e-4)
        assert strat.chi == pytest.approx(4.59112, abs=1e-4)
        assert strat.rho == pytest.approx(4.591121476668622, rel=1e-10)

    def test_chi_branches_agree_at_sK(self):
        sk = solve_sK()
        lo, _ = linear_tradeoff(sk - 1e-12)
        hi, _ = linear_tradeoff(sk + 1e-12)
        assert abs(lo.chi - hi.chi) <= 1e-9

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, solve_sK()])
    def test_low_branch_identity(self, s):
        # chi = rho K(s) e^{-s} - 1 on the closed-form branch
        exc, _ = linear_tradeoff(s)
        K = solve_K(s)
        assert exc.chi == pytest.approx(exc.rho * K * math.exp(-s) - 1.0,
                                        abs=1e-12)

    @pytest.mark.parametrize("s", [1e-300, 1e-20, 1e-9, 1e-4, 1e-2,
                                   math.nextafter(analysis._SMALL_S, 0.0)])
    def test_chi_and_K_at_small_s(self, s):
        # e^{2s} - 1 - 2s and e^{2s} - 1 cancel as s -> 0; the closed forms
        # at 700 digits from the double s exactly (at 60 digits chi(1e-300)
        # still reads -0.5, since e^{2s} - 1 - 2s is about 2e-600 there)
        exc, strat = linear_tradeoff(s)
        chi = at_700_digits(lambda d: (d.exp() ** 2 - 1 - 2 * d)
                            / (2 * d * (1 + d.exp())), s)
        K = at_700_digits(lambda d: d.exp() * (d.exp() ** 2 - 1
                                               + 2 * d * d.exp())
                          / (1 + d.exp()) ** 2, s)
        for got, want in ((exc.chi, chi), (solve_K(s), K)):
            assert ulps_off(got, want) <= 4, (got, want)
        assert exc.chi > 0.0 and strat.chi >= 1.0

    @pytest.mark.parametrize("s", ULP_S + [s_star()])
    def test_rho_at_700_digits(self, s):
        exc, strat = linear_tradeoff(s)
        rho = at_700_digits(lambda d: (1 + d.exp()) / (2 * d), s)
        assert ulps_off(exc.rho, rho) <= 4, (exc.rho, rho)
        assert ulps_off(strat.rho, 1 + 2 * rho) <= 4, (strat.rho, rho)

    def test_upper_asymptotics(self):
        _, strat = linear_tradeoff(0.01)
        assert strat.rho - 2.0 / (strat.chi - 1.0) == pytest.approx(
            7.0 / 3.0, abs=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            linear_tradeoff(0.0)
        with pytest.raises(DomainError):
            linear_tradeoff(s_star() + 0.01)


class TestLowerBound:
    def test_t_one(self):
        pt = linear_lower_bound(1.0)
        assert pt.chi_ls == pytest.approx(4.0, rel=1e-14)
        assert pt.rho_ls_raw == pytest.approx(3.0, rel=1e-14)
        assert pt.rho_ls == pytest.approx(4.59112, abs=1e-4)

    def test_t_02(self):
        pt = linear_lower_bound(0.2)
        assert pt.chi_ls == pytest.approx(1.42161, abs=1e-5)
        assert pt.rho_ls == pytest.approx(6.4007, abs=1e-4)
        assert pt.rho_ls == pt.rho_ls_raw  # above the clamp here

    def test_chi_monotone_in_t(self):
        ts = np.linspace(0.01, 1.0, 100)
        chis = [linear_lower_bound(float(t)).chi_ls for t in ts]
        assert np.all(np.diff(chis) > 0.0)

    def test_asymptotics(self):
        pt = linear_lower_bound(0.01)
        assert pt.rho_ls_raw - 2.0 / (pt.chi_ls - 1.0) == pytest.approx(
            1.5, abs=0.05)

    def test_upper_curve_dominates(self):
        for chi_ls in np.linspace(1.001, 4.0, 50):
            s = invert_linear_strategy_chi(float(chi_ls))
            rho_ub = linear_tradeoff(s)[1].rho
            # matching lower-bound point at the same consistency
            t = bisect(lambda t: linear_lower_bound(t).chi_ls - chi_ls,
                       1e-9, 1.0)
            rho_lb = linear_lower_bound(t).rho_ls
            assert rho_ub >= rho_lb - 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0001, -1.0):
            with pytest.raises(DomainError):
                linear_lower_bound(bad)


class TestRates:
    def test_bidding_conjugate_is_characteristic(self):
        for s in (0.1, 0.5, 0.9):
            lam = conjugate_rate_bidding(s)
            assert lam > 1.0
            assert abs(lam * math.exp(-lam) - s * math.exp(-s)) <= 1e-12

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e-155])
    def test_bidding_conjugate_at_tiny_s(self, s):
        # in logs, lam e^{-lam} = s e^{-s} stays far from underflow
        lam = conjugate_rate_bidding(s)
        assert abs((math.log(lam) - lam) - (math.log(s) - s)) <= 1e-13 * lam

    def test_bidding_conjugate_double_root(self):
        assert conjugate_rate_bidding(1.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("s", [0.0, -0.5, 1.0000001, math.nan])
    def test_bidding_conjugate_outside_its_domain(self, s):
        with pytest.raises(DomainError):
            conjugate_rate_bidding(s)

    def test_linear_conjugate_is_characteristic(self):
        for s in (0.2, 0.6, 1.0):
            lam = conjugate_rate_linear(s)
            rho = (1.0 + math.exp(s)) / (2.0 * s)
            assert lam > 2.0 * s
            assert abs(rho * lam - 1.0 - math.exp(lam / 2.0)) <= 1e-10 * rho

    def test_linear_conjugate_endpoint(self):
        assert conjugate_rate_linear(s_star()) == pytest.approx(
            2.0 * s_star(), abs=1e-9)

    @pytest.mark.parametrize("s", [1e-300, 1e-305, 1e-306, 1e-308, 5.6e-309])
    def test_linear_conjugate_at_tiny_s(self, s):
        # beyond lam = 1418, where e^{lam/2} overflows a double: the root of
        # ln(rho lam - 1) = lam/2 at 60 digits, from the double s exactly
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = decimal.Decimal(s)
            rho = (1 + d.exp()) / (2 * d)
            lo, hi = decimal.Decimal(1000), decimal.Decimal(1500)
            for _ in range(200):
                mid = (lo + hi) / 2
                if (rho * mid - 1).ln() > mid / 2:
                    lo = mid
                else:
                    hi = mid
            want = float(lo)
        assert conjugate_rate_linear(s) == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("s", [5.5e-309, 1e-310, 5e-324])
    def test_linear_conjugate_where_rho_overflows(self, s):
        with pytest.raises(DomainError):
            conjugate_rate_linear(s)


@pytest.mark.parametrize("curve, rho, last", [
    (bidding_tradeoff, lambda pt: pt.rho, 5.6e-309),
    (linear_tradeoff, lambda pts: pts[1].rho, 1.12e-308),
    (linear_lower_bound, lambda pt: pt.rho_ls_raw, 5.6e-309),
], ids=["bidding", "linear", "lower-bound"])
def test_curves_where_rho_overflows(curve, rho, last):
    # rho grows as 1/s (the lower bound's as 1/t, the linear-search
    # strategy's 1 + 2 rho as 2/s): finite at ``last``, past the largest
    # double below it
    assert math.isfinite(rho(curve(last)))
    for s in (0.99 * last, 5.5e-309, 1e-310, 5e-324):
        with pytest.raises(DomainError, match="rho overflows"):
            curve(s)


class TestInversion:
    def test_linear_roundtrip(self):
        for s in (0.2, 0.7, 1.1):
            chi = linear_tradeoff(s)[1].chi
            assert invert_linear_strategy_chi(chi) == pytest.approx(s, abs=1e-9)


def test_bisect_requires_straddle():
    # ends of one sign, or a nan at either end, bracket no root
    for f in (lambda x: x * x + 1.0, lambda x: math.nan if x < 0.0 else x,
              lambda x: x if x < 0.0 else math.nan):
        with pytest.raises(analysis.ConvergenceError):
            bisect(f, -1.0, 1.0)


def _root_equations():
    """(label, root, f, lo, hi): each analysis root, the float equation its
    solver bisects (written out independently) and a bracket of the root."""
    for s in (0.7, 0.8, 0.9, 0.99):
        e_s = math.exp(s)
        yield (f"xi@{s}", solve_xi_bidding(s),
               lambda xi, e_s=e_s: xi * (2.0 - math.log(xi)) - e_s, 1.0, math.e)

    def sk_equation(s):
        es = math.exp(s)
        return es * (es * es - 1.0 + 2.0 * s * es) - (1.0 + es) ** 2

    yield "s_K", solve_sK(), sk_equation, 1e-8, 1.0
    for s in (0.6, 0.8, 1.0, 1.1, 1.2, s_star() - 0.05):
        yield (f"K@{s:.4g}", solve_K(s),
               lambda xi, s=s: analysis._K_equation(s, xi), 1.0,
               math.exp(2.0 * s))
    for s in (1e-300, 1e-9, 0.1, 0.3, 0.8, 0.95):
        t = s * math.exp(-s)
        yield (f"lam_bidding@{s}", conjugate_rate_bidding(s),
               lambda lam, t=t: t - lam * math.exp(-lam), 1.0, 1024.0)
    for s in (0.05, 0.2, 0.6, 0.9, 1.1, s_star() - 0.05):
        rho = (1.0 + math.exp(s)) / (2.0 * s)
        yield (f"lam_linear@{s:.4g}", conjugate_rate_linear(s),
               lambda lam, rho=rho: rho * lam - 1.0 - math.exp(0.5 * lam),
               2.0 * s_star(), 1000.0)
    z = math.exp(-1.0)
    yield ("W0(1/e)", lambert_w0(z), lambda w: w * math.exp(w) - z, 0.0, 1.0)


@pytest.mark.parametrize("x, f, lo, hi", [
    pytest.param(*case, id=label) for label, *case in _root_equations()])
def test_root_is_bisected_to_its_sign_change(x, f, lo, hi):
    # the root ends a bracket whose other end, about one double below, is
    # still on f(lo)'s side: no tolerance stops the search short of that
    below = x - 2e-16 * max(1.0, abs(x))
    side = math.copysign(1.0, f(hi))
    assert f(x) * side >= 0.0
    assert f(below) * side < 0.0
    assert math.copysign(1.0, f(lo)) == -side


class TestPointInvariants:
    def test_bidding_points_ordered(self):
        for s in np.linspace(0.01, 1.0, 40):
            pt = bidding_tradeoff(float(s))
            assert pt.rho >= pt.chi >= 1.0

    def test_strategy_points_ordered(self):
        for s in np.linspace(0.01, s_star(), 40):
            _, strat = linear_tradeoff(float(s))
            assert strat.rho >= strat.chi >= 1.0

    def test_lower_bound_ranges(self):
        star = rho_ls_star()
        for t in np.linspace(0.01, 1.0, 40):
            pt = linear_lower_bound(float(t))
            assert 1.0 < pt.chi_ls <= 4.0
            assert pt.rho_ls >= star - 1e-12
