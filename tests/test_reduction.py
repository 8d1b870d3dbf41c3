"""The strategy-to-profile reduction: discrete strategies, their aggregate
measure and inverse step profile, cost dominance, and truncation of a
profile-driven strategy to an algorithm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pushforward_mass
from profile_lab.reduction import (DiscreteStrategy, aggregate_measure,
                                   cost_dominance_check, inverse_profile,
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
        t_min = min(bids[0] for _, bids in ds.outcomes)
        targets.append(float(rng.uniform(t_min / 2.0, ds.t_max)))
    return targets[:count]


class TestDiscreteStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((0.5, (1.0, 2.0)),))  # mass != 1
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((1.0, (2.0, 1.0)),))  # not increasing
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=((1.0, (-1.0, 2.0)),))  # negative bid
        with pytest.raises(ValueError):
            DiscreteStrategy(outcomes=())

    def test_cost_only_up_to_t_max(self):
        ds = DiscreteStrategy(outcomes=((0.5, (1.0, 2.0)), (0.5, (4.0,))))
        assert ds.t_max == 2.0
        assert ds.expected_cost(2.0) == 0.5 * 3.0 + 0.5 * 4.0
        for target in (math.nextafter(2.0, math.inf), 0.0):
            with pytest.raises(ValueError):
                ds.expected_cost(target)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: DiscreteStrategy(outcomes=((NAN, (1.0, 2.0)),)),
    lambda: DiscreteStrategy(outcomes=((1.0, (0.5, NAN, 2.0)),)),
    lambda: DiscreteStrategy(outcomes=((1.0, (0.5, 1.0, INF)),)),
    lambda: inverse_profile({0.5: NAN, 2.0: 1.0}),
    lambda: inverse_profile({0.5: 1.0, INF: 1.0}),
    lambda: inverse_profile({1.0: 1.0, 2.0: 1.0}).tau(NAN),
    lambda: inverse_profile({1.0: 1.0, 2.0: 1.0}).tau(INF),
    lambda: inverse_profile({0.5: 1.0, 2.0: 1.0}).value(NAN),
    lambda: inverse_profile({0.5: 1.0, 2.0: 1.0}).integral_to(NAN),
], ids=["nan-probability", "nan-bid", "inf-bid", "nan-mass", "inf-value",
        "tau-nan", "tau-inf", "value-nan", "integral-nan"])
def test_rejects_non_finite_input(build):
    # each of these used to build a strategy or profile whose costs are nan
    # or inf, or to return a number (an IndexError for value(nan))
    with pytest.raises(ValueError):
        build()


class TestTruncation:
    @pytest.mark.parametrize("cutoff, u", [(0.0, 0.5), (-1.0, 0.5),
                                           (0.01, 0.0), (0.01, 1.5),
                                           (0.01, math.nan)])
    def test_rejects_bad_cutoff_or_shift(self, bidding_profiles, cutoff, u):
        with pytest.raises(ValueError):
            truncate_to_algorithm(bidding_profiles[0.5], cutoff, u)

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
                    assert pushforward_mass(sp, lo, hi) == pytest.approx(
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
            assert mass == pytest.approx(pushforward_mass(sp, lo, hi),
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
