"""Monte Carlo oracles, truncation, and the discrete conversion machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profile_lab
from profile_lab import bidding, excursion, grids, simulate
from profile_lab.analysis import DomainError, rho_ls_star, s_star
from profile_lab.bidding import expected_cost
from profile_lab.excursion import strategy_cost_linear
from profile_lab.simulate import (AlgorithmBids, DiscreteStrategy, SimReport,
                                  aggregate_measure, cost_dominance_check,
                                  counter_uniforms, inverse_profile,
                                  simulate_bidding, simulate_linear,
                                  truncate_to_algorithm)


def random_strategy(rng) -> DiscreteStrategy:
    """Dyadic fixture: powers-of-two bids, sixteenths probabilities."""
    n_out = int(rng.integers(2, 6))
    weights = rng.multinomial(16, np.ones(n_out) / n_out)
    while np.any(weights == 0):
        weights = rng.multinomial(16, np.ones(n_out) / n_out)
    outcomes = []
    for w in weights:
        a = int(rng.integers(-6, 1))
        length = int(rng.integers(2, 8))
        bids = tuple(float(2.0 ** (a + j)) for j in range(length))
        outcomes.append((w / 16.0, bids))
    return DiscreteStrategy(outcomes=tuple(outcomes))


def fixture_targets(ds: DiscreteStrategy, rng, count: int = 20) -> list[float]:
    values = sorted({b for _, bids in ds.outcomes for b in bids
                     if b <= ds.t_max})
    targets = list(values[:count // 2])
    while len(targets) < count:
        targets.append(float(rng.uniform(ds.t_min / 2.0, ds.t_max)))
    return targets[:count]


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


class TestTruncation:
    def test_closed_form_bids(self, bidding_profiles):
        # ties count: at cutoff 1 with U = 1 the first kept bid is e^0 = 1
        alg = truncate_to_algorithm(bidding_profiles[1.0], 1.0, 1.0)
        np.testing.assert_allclose(alg.take(3), [1.0, math.e, math.e ** 2],
                                   rtol=1e-12)

    def test_algorithm_never_beats_strategy(self, bidding_profiles):
        p = bidding_profiles[0.8]
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = float(rng.uniform(0.01, 1.0))
            u = float(rng.uniform(1e-9, 1.0))
            alg = truncate_to_algorithm(p, c, u)
            prefix = alg.discarded_prefix()
            assert prefix >= 0.0
            for T in (c, 2.0 * c, 1.0, 5.0):
                if T < c:
                    continue
                alg_cost = sum(alg.bids_until(T))
                # strategy cost for the same shift: prefix + algorithm bids
                assert alg_cost <= alg_cost + prefix + 1e-12
                k = alg.first_index
                strat_cost = alg_cost + prefix
                # and the strategy cost recomputed from far below agrees
                direct = 0.0
                j = k - 60
                while True:
                    b = float(p.g.value(j + u))
                    direct += b
                    if b >= T:
                        break
                    j += 1
                assert direct == pytest.approx(strat_cost, rel=1e-10)

    def test_small_cutoff_prefix_bound(self, bidding_profiles):
        p = bidding_profiles[0.5]
        alg = truncate_to_algorithm(p, 1e-6, 0.37)
        # the discarded mass is at most the strategy cost at the cutoff
        assert alg.discarded_prefix() <= p.rho * 1e-6 * (1.0 + 1e-6)


class TestAggregateMeasure:
    def test_single_outcome(self):
        ds = DiscreteStrategy(outcomes=((1.0, (0.5, 1.0, 2.0)),))
        assert aggregate_measure(ds) == {0.5: 1.0, 1.0: 1.0, 2.0: 1.0}

    def test_overlapping_outcomes(self):
        ds = DiscreteStrategy(outcomes=((0.5, (1.0, 2.0)), (0.5, (2.0, 4.0))))
        assert aggregate_measure(ds) == {1.0: 0.5, 2.0: 1.0, 4.0: 0.5}

    def test_total_mass(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ds = random_strategy(rng)
            mu = aggregate_measure(ds)
            expected = sum(p * len(bids) for p, bids in ds.outcomes)
            assert sum(mu.values()) == pytest.approx(expected, abs=1e-12)


class TestInverseProfile:
    def test_unit_masses_to_unit_steps(self):
        sp = inverse_profile({1.0: 1.0, 2.0: 1.0})
        assert sp.value(0.5) == 1.0
        assert sp.value(1.0) == 1.0
        assert sp.value(1.5) == 2.0
        assert sp.value(2.0) == 2.0

    def test_mass_below_anchor(self):
        sp = inverse_profile({0.5: 1.0, 1.0: 1.0, 2.0: 1.0})
        assert sp.value(-0.5) == 0.5
        assert sp.value(0.0) == 0.5
        assert sp.value(-1.5) == 0.0  # below the finite support

    def test_pushforward_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = random_strategy(rng)
            mu = aggregate_measure(ds)
            sp = inverse_profile(mu)
            values = sorted(mu)
            for lo in values[::2]:
                for hi in values[1::2]:
                    if hi < lo:
                        continue
                    expected = sum(w for v, w in mu.items() if lo <= v <= hi)
                    assert sp.pushforward_mass(lo, hi) == pytest.approx(
                        expected, abs=1e-12)

    def test_pushforward_against_dense_scan(self):
        mu = {0.25: 0.5, 0.5: 1.25, 1.0: 1.0, 2.0: 0.75, 4.0: 1.0}
        sp = inverse_profile(mu)
        lo_x, hi_x = -2.0, 3.0
        xs = np.linspace(lo_x, hi_x, 200001)
        gv = np.array([sp.value(float(x)) for x in xs])
        dx = xs[1] - xs[0]
        for lo, hi in ((0.25, 0.5), (0.5, 2.0), (1.0, 4.0)):
            mass = np.count_nonzero((gv >= lo) & (gv <= hi)) * dx
            assert mass == pytest.approx(sp.pushforward_mass(lo, hi),
                                         abs=5 * dx)


class TestDominance:
    def test_deterministic_doubling_is_its_own_profile(self):
        bids = tuple(2.0 ** k for k in range(-6, 5))
        ds = DiscreteStrategy(outcomes=((1.0, bids),))
        rep = cost_dominance_check(ds, [0.5, 1.0, 3.0, 10.0])
        assert rep.all_ok
        for _, direct, prof in rep.rows:
            assert prof == pytest.approx(direct, abs=1e-10)

    def test_strict_improvement_with_overlapping_supports(self):
        ds = DiscreteStrategy(outcomes=((0.5, (3.0,)), (0.5, (1.0, 2.0))))
        rep = cost_dominance_check(ds, [1.0])
        assert rep.all_ok
        t, direct, prof = rep.rows[0]
        assert prof < direct - 0.25  # strictly better repacking

    def test_random_fixtures(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            ds = random_strategy(rng)
            rep = cost_dominance_check(ds, fixture_targets(ds, rng))
            assert rep.all_ok, rep.rows

    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=15),
                  st.integers(min_value=-6, max_value=0),
                  st.integers(min_value=2, max_value=7)),
        min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_dominance_holds_for_generated_strategies(self, raw):
        total = sum(w for w, _, _ in raw)
        outcomes = tuple(
            (w / total, tuple(float(2.0 ** (a + j)) for j in range(length)))
            for w, a, length in raw)
        # probabilities w/total need not be dyadic; allow float slack
        if abs(sum(p for p, _ in outcomes) - 1.0) > 1e-12:
            return
        ds = DiscreteStrategy(outcomes=outcomes)
        targets = sorted({b for _, bids in ds.outcomes for b in bids
                          if b <= ds.t_max})
        rep = cost_dominance_check(ds, targets)
        assert rep.max_violation <= 1e-9, rep.rows


class TestReportsAndText:
    def test_simreport_roundtrip(self):
        rep = SimReport(mean=1.234567890123, stderr=0.00123, n=1000, seed=42,
                        target=2.5, bias_bound=1e-9)
        back = SimReport.parse(rep.line())
        assert back == rep

    def test_strategy_text_roundtrip(self):
        ds = DiscreteStrategy(outcomes=((0.25, (0.5, 1.0)),
                                        (0.75, (0.125, 4.0, 8.0))))
        back = DiscreteStrategy.from_text(ds.to_text())
        assert back == ds

    def test_strategy_text_comments(self):
        text = "# fixture\n0.5 1 2\n\n0.5 2 4\n"
        ds = DiscreteStrategy.from_text(text)
        assert len(ds.outcomes) == 2

    def test_strategy_file_roundtrip(self, tmp_path):
        ds = DiscreteStrategy(outcomes=((0.5, (1.0, 2.0)), (0.5, (2.0, 4.0))))
        path = str(tmp_path / "fixture.txt")
        ds.save(path)
        assert DiscreteStrategy.load(path) == ds

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((0.5, (1.0, 2.0)),))  # mass != 1
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((1.0, (2.0, 1.0)),))  # not increasing
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((1.0, (-1.0, 2.0)),))  # negative bid
