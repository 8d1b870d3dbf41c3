"""Monte Carlo oracles: counter-based uniforms, lane blocks, and agreement
with the analytic costs."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profile_lab
from profile_lab import bidding, excursion, grids, simulate
from profile_lab.analysis import DomainError, rho_ls_star, s_star
from profile_lab.bidding import expected_cost
from profile_lab.excursion import strategy_cost_linear
from profile_lab.simulate import (SimReport, counter_uniforms,
                                  simulate_bidding, simulate_linear)


class TestCounterUniforms:
    def test_deterministic(self):
        a = counter_uniforms(42, 0, 1000)
        b = counter_uniforms(42, 0, 1000)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2 ** 63 - 1),
           st.integers(min_value=0, max_value=256),
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_range_splitting_anywhere(self, seed, cut, total_extra):
        total = cut + total_extra
        full = counter_uniforms(seed, 0, total)
        parts = np.concatenate([counter_uniforms(seed, 0, cut),
                                counter_uniforms(seed, cut, total - cut)])
        np.testing.assert_array_equal(full, parts)

    def test_support(self):
        u = counter_uniforms(1, 0, 10 ** 5)
        assert u.min() > 0.0
        assert u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_seeds_differ(self):
        assert not np.array_equal(counter_uniforms(1, 0, 10),
                                  counter_uniforms(2, 0, 10))


class TestSimulateBidding:
    N = 10 ** 5

    def test_classical_endpoint(self, bidding_profiles):
        p = bidding_profiles[1.0]
        rep = simulate_bidding(p, 2.0, self.N, seed=42)
        assert abs(rep.mean - 2.0 * math.e) <= 4.0 * rep.stderr

    def test_consistency_point(self, bidding_profiles):
        p = bidding_profiles[0.5]
        rep = simulate_bidding(p, 1.0, self.N, seed=7)
        assert abs(rep.mean - expected_cost(p, 1.0)) <= 4.0 * rep.stderr

    def test_generic_target(self, bidding_profiles):
        p = bidding_profiles[0.8]
        rep = simulate_bidding(p, 2.5, self.N, seed=3)
        assert abs(rep.mean - expected_cost(p, 2.5)) <= 4.0 * rep.stderr

    def test_start_in_the_tail(self, bidding_profiles):
        # at a small target the summation starts below the grid window, so
        # the first steps evaluate the analytic tail
        p, target = bidding_profiles[0.5], 0.3
        assert p.g.tau(1e-9 * target) < p.g.x_min
        rep = simulate_bidding(p, target, 2 * 10 ** 5, seed=11)
        assert (abs(rep.mean - expected_cost(p, target))
                <= 4.0 * rep.stderr + rep.bias_bound)

    def test_bit_identical_reports(self, bidding_profiles):
        p = bidding_profiles[0.5]
        r1 = simulate_bidding(p, 1.3, 10 ** 4, seed=5)
        r2 = simulate_bidding(p, 1.3, 10 ** 4, seed=5)
        assert r1.line() == r2.line()

    def test_bias_bound_reported(self, bidding_profiles):
        rep = simulate_bidding(bidding_profiles[0.5], 2.0, 100, seed=0)
        assert 0.0 < rep.bias_bound <= 1e-8 * rep.mean

    def test_unbiased_across_seeds(self, bidding_profiles):
        p = bidding_profiles[0.5]
        exact = expected_cost(p, 1.7)
        hits = 0
        for seed in range(20):
            rep = simulate_bidding(p, 1.7, self.N, seed=seed)
            hits += abs(rep.mean - exact) <= 4.0 * rep.stderr
        assert hits >= 19


class TestSimulateLinear:
    N = 10 ** 5

    def test_endpoint(self, excursion_profiles):
        p = excursion_profiles[s_star()]
        rep = simulate_linear(p, 3.0, self.N, seed=1)
        assert abs(rep.mean - 3.0 * rho_ls_star()) <= 4.0 * rep.stderr

    def test_positive_target(self, excursion_profiles):
        p = excursion_profiles[0.2]
        rep = simulate_linear(p, 1.0, self.N, seed=2)
        assert abs(rep.mean - strategy_cost_linear(p, 1.0)) <= 4.0 * rep.stderr

    def test_negative_target(self, excursion_profiles):
        p = excursion_profiles[0.9]
        rep = simulate_linear(p, -0.7, self.N, seed=4)
        assert abs(rep.mean - strategy_cost_linear(p, -0.7)) <= 4.0 * rep.stderr

    def test_deterministic(self, excursion_profiles):
        p = excursion_profiles[0.2]
        assert (simulate_linear(p, 1.0, 10 ** 4, seed=6).line()
                == simulate_linear(p, 1.0, 10 ** 4, seed=6).line())


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("oracle", ["bidding", "linear"])
def test_oracles_reject_non_finite_target(oracle, target, bidding_profiles,
                                          excursion_profiles):
    if oracle == "bidding":
        sim, p = simulate_bidding, bidding_profiles[0.5]
    else:
        sim, p = simulate_linear, excursion_profiles[0.9]
    with pytest.raises(DomainError):
        sim(p, target, 100, seed=0)


@pytest.mark.parametrize("oracle", ["bidding", "linear"])
def test_oracles_need_a_sample(oracle, bidding_profiles, excursion_profiles):
    if oracle == "bidding":
        sim, p = simulate_bidding, bidding_profiles[0.5]
    else:
        sim, p = simulate_linear, excursion_profiles[0.9]
    with pytest.raises(ValueError):
        sim(p, 2.0, 0, seed=0)


class TestLaneBlocks:
    @pytest.mark.parametrize("n", [23, 20_000])
    def test_reports_do_not_depend_on_block_size(self, n, monkeypatch,
                                                 bidding_profiles,
                                                 excursion_profiles):
        # one block of every lane is the unblocked loop; n = 23 runs in
        # blocks of 7 lanes, n = 20 000 in the default blocks, the last
        # block ragged in both
        bid, lin = bidding_profiles[0.5], excursion_profiles[0.9]

        def reports():
            return [simulate_bidding(bid, 2.5, n, 11).line(),
                    simulate_linear(lin, 2.5, n, 12).line(),
                    simulate_linear(lin, -2.5, n, 13).line()]

        lanes = 7 if n == 23 else simulate._LANES
        assert n > 2 * lanes and n % lanes
        monkeypatch.setattr(simulate, "_LANES", 1 << 30)
        whole = reports()
        monkeypatch.setattr(simulate, "_LANES", lanes)
        assert reports() == whole

    def test_memory_is_the_samples_plus_one_megabyte(self, bidding_profiles,
                                                     excursion_profiles):
        n = 200_000
        cases = [(simulate_bidding, bidding_profiles[0.5], 2.5),
                 (simulate_linear, excursion_profiles[0.9], 2.5),
                 (simulate_linear, excursion_profiles[0.9], -2.5)]
        for sim, p, target in cases:
            tracemalloc.start()
            try:
                sim(p, target, n, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the uniforms and the costs, 8 bytes per sample each
            assert peak < 2 * 8 * n + (1 << 20), (sim.__name__, target)


def test_oracles_call_no_analytic_cost(monkeypatch, bidding_profiles,
                                       excursion_profiles):
    # the oracle checks the analytic cost path, so it must not run it
    bid, lin = bidding_profiles[0.5], excursion_profiles[0.9]

    def reports():
        return [simulate_bidding(bid, 2.5, 20_000, 11),
                simulate_linear(lin, 2.5, 20_000, 12),
                simulate_linear(lin, -2.5, 20_000, 13)]

    before = reports()

    def forbidden(*args, **kwargs):
        raise AssertionError("the Monte Carlo oracle called an analytic cost")

    monkeypatch.setattr(grids.GridFunction, "integral_to", forbidden)
    for name, module in (("expected_cost", bidding),
                         ("strategy_cost_linear", excursion),
                         ("C_plus", excursion), ("C_minus", excursion)):
        for owner in (module, simulate, profile_lab):
            monkeypatch.setattr(owner, name, forbidden, raising=False)
    assert reports() == before


def test_oracle_module_reads_no_analytic_path():
    # the source itself, so that a path no test sample reaches is caught
    # too: no integral or cost is read anywhere in the module, and tau only
    # where _lane_costs finds the summation window
    analytic = {"integral_to", "integrals", "_delayed_integral",
                "cumulative_integral", "expected_cost",
                "strategy_cost_linear", "C_plus", "C_minus"}
    tree = ast.parse(Path(simulate.__file__).read_text(encoding="utf-8"))
    loads = []  # (top-level definition, name) of every name or attribute read
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                loads += [(scope, alias.name) for alias in node.names]
            elif isinstance(getattr(node, "ctx", None), ast.Load):
                name = getattr(node, "id", getattr(node, "attr", None))
                loads.append((scope, name))
    assert not [load for load in loads if load[1] in analytic]
    assert {scope for scope, name in loads if name == "tau"} <= {"_lane_costs"}


class TestReportsAndText:
    def test_simreport_roundtrip(self):
        rep = SimReport(mean=1.234567890123, stderr=0.00123, n=1000, seed=42,
                        target=2.5, bias_bound=1e-9)
        back = SimReport.parse(rep.line())
        assert back == rep
