"""The strategy-to-profile reduction at finite scale.

A randomized bidding strategy given as finitely many weighted bid sequences
is collapsed value-wise into an aggregate measure, the measure is unfolded
into a left-continuous step profile by the quantile construction around the
prediction at 1, and the profile-driven strategy is certified to cost no
more than the original at every target.  In the other direction, dropping
every bid below a cutoff from a profile-driven strategy gives a bidding
algorithm that pays the strategy cost minus the discarded prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bidding import BiddingProfile

__all__ = [
    "DiscreteStrategy",
    "aggregate_measure",
    "StepProfile",
    "inverse_profile",
    "DominanceReport",
    "cost_dominance_check",
    "AlgorithmBids",
    "truncate_to_algorithm",
]


@dataclass(frozen=True)
class DiscreteStrategy:
    """Finite randomized bidding strategy: weighted increasing bid lists.

    ``t_max`` is the largest target every outcome can reach (the smallest
    final bid across outcomes); costs are only defined for targets in
    (0, t_max].
    """

    outcomes: tuple[tuple[float, tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("strategy needs at least one outcome")
        total = 0.0
        for prob, bids in self.outcomes:
            if not 0.0 < prob < math.inf:
                raise ValueError("outcome probabilities must be positive "
                                 "and finite")
            if not bids or any(not 0.0 < b < math.inf for b in bids):
                raise ValueError("bids must be positive, finite and non-empty")
            if any(b2 <= b1 for b1, b2 in zip(bids, bids[1:])):
                raise ValueError("bids must be strictly increasing")
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def t_max(self) -> float:
        return min(bids[-1] for _, bids in self.outcomes)

    def expected_cost(self, target: float) -> float:
        """Enumerated expected cost: bids below the target plus the
        stopping bid, per outcome."""
        if not (0.0 < target <= self.t_max):
            raise ValueError(f"target must lie in (0, {self.t_max}]")
        total = 0.0
        for prob, bids in self.outcomes:
            run = 0.0
            for b in bids:
                run += b
                if b >= target:
                    break
            total += prob * run
        return total


def aggregate_measure(ds: DiscreteStrategy) -> dict[float, float]:
    """Value-wise accumulation of bid mass: each bid value receives the
    total probability of the outcomes containing it."""
    mu: dict[float, float] = {}
    for prob, bids in ds.outcomes:
        for b in bids:
            mu[b] = mu.get(b, 0.0) + prob
    return dict(sorted(mu.items()))


@dataclass
class StepProfile:
    """Left-continuous step function from the quantile construction.

    Values below the prediction 1 stack leftward from 0 in decreasing
    order (width = mass); values at or above 1 stack rightward in
    increasing order.  G is 0 below the stacked support and has no bids
    above it; costs are defined for targets the unit-mass packing can
    cover.
    """

    below: tuple[tuple[float, float], ...]  # (value, width), decreasing values
    above: tuple[tuple[float, float], ...]  # (value, width), increasing values

    _below_edges: np.ndarray = field(init=False, repr=False)
    _above_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._below_edges = np.concatenate(
            ([0.0], -np.cumsum([w for _, w in self.below])))
        self._above_edges = np.concatenate(
            ([0.0], np.cumsum([w for _, w in self.above])))

    def value(self, x: float) -> float:
        """G(x); 0 below the support, inf past the last packed bid."""
        if math.isnan(x):
            raise ValueError("G is undefined at nan")
        if x <= self._below_edges[-1]:
            return 0.0
        if x <= 0.0:
            i = int(np.searchsorted(-self._below_edges, -x, side="left"))
            return self.below[i - 1][0]
        if x > self._above_edges[-1]:
            return math.inf
        i = int(np.searchsorted(self._above_edges, x, side="left"))
        return self.above[i - 1][0]

    def tau(self, target: float) -> float:
        """sup { t : G(t) < target } for a positive finite target."""
        if not 0.0 < target < math.inf:
            raise ValueError(
                f"tau requires a positive finite target, got {target!r}")
        pos = self._below_edges[-1]
        for value, width in (*reversed(self.below), *self.above):
            if value >= target:
                return pos
            pos += width
        return pos

    def integral_to(self, x: float) -> float:
        """Integral of G over (-inf, x]; x must not exceed the packed range."""
        if not x <= self._above_edges[-1] + 1e-12:
            raise ValueError(f"the integral is defined up to the packed "
                             f"support, not to {x!r}")
        total = 0.0
        lo = self._below_edges[-1]
        for value, width in (*reversed(self.below), *self.above):
            hi = lo + width
            if x <= lo:
                return total
            total += value * (min(x, hi) - lo)
            lo = hi
        return total

    def expected_cost(self, target: float) -> float:
        """Cost of the profile-driven strategy: integral to tau(target) + 1."""
        return self.integral_to(self.tau(target) + 1.0)


def inverse_profile(mu: dict[float, float]) -> StepProfile:
    """Quantile construction of the profile equivalent to a bid measure.

    Around the prediction 1: for x < 0 the profile takes the largest value
    v < 1 whose accumulated mass from above reaches -x; for x >= 0 the
    smallest value v >= 1 whose accumulated mass from 1 reaches x.  The
    pushforward of Lebesgue measure under the result is exactly ``mu``.
    """
    if not mu or any(not (0.0 < v < math.inf and 0.0 < w < math.inf)
                     for v, w in mu.items()):
        raise ValueError("measure must carry positive finite mass on "
                         "positive finite values")
    items = sorted(mu.items())
    below = tuple((v, w) for v, w in reversed(items) if v < 1.0)
    above = tuple((v, w) for v, w in items if v >= 1.0)
    return StepProfile(below=below, above=above)


@dataclass(frozen=True)
class DominanceReport:
    """Per-target comparison of a discrete strategy against its inverse
    profile; the profile may only improve, up to 1e-10 of rounding."""

    rows: tuple[tuple[float, float, float], ...]  # (target, direct, profile)

    @property
    def max_violation(self) -> float:
        return max((prof - direct for _, direct, prof in self.rows),
                   default=-math.inf)

    @property
    def all_ok(self) -> bool:
        return self.max_violation <= 1e-10


def cost_dominance_check(ds: DiscreteStrategy,
                         targets: list[float]) -> DominanceReport:
    """Certify that the inverse-profile strategy never costs more than the
    discrete strategy it was derived from, at each requested target."""
    profile = inverse_profile(aggregate_measure(ds))
    rows = []
    for t in targets:
        direct = ds.expected_cost(t)
        prof = profile.expected_cost(t)
        rows.append((t, direct, prof))
    return DominanceReport(rows=tuple(rows))


@dataclass
class AlgorithmBids:
    """Suffix of a profile-driven bid sequence, starting at the first bid
    of value at least the cutoff; lazily extensible."""

    profile: BiddingProfile
    shift: float
    first_index: int

    def bid(self, i: int) -> float:
        """i-th bid of the algorithm (0-based from the cutoff)."""
        return float(self.profile.g.value(self.first_index + i + self.shift))

    def take(self, count: int) -> list[float]:
        return [self.bid(i) for i in range(count)]

    def bids_until(self, target: float) -> list[float]:
        """All bids up to and including the first one of value >= target."""
        out = []
        i = 0
        while True:
            b = self.bid(i)
            out.append(b)
            if b >= target:
                return out
            i += 1

    def discarded_prefix(self) -> float:
        """Sum of the strategy bids below the cutoff (all positive).

        The prefix decays geometrically (robustness bound), so the sum is
        truncated once terms stop contributing at 1e-15 relative.
        """
        total = 0.0
        i = self.first_index - 1
        while True:
            b = float(self.profile.g.value(i + self.shift))
            total += b
            if b <= 1e-15 * max(total, 1e-300) or b == 0.0:
                return total
            i -= 1


def truncate_to_algorithm(p: BiddingProfile, cutoff: float,
                          u: float) -> AlgorithmBids:
    """Algorithm obtained by dropping all strategy bids below ``cutoff``.

    For any target T >= cutoff the algorithm pays exactly the strategy cost
    minus the (positive) discarded prefix, so all guarantees carry over.
    """
    if cutoff <= 0.0 or not (0.0 < u <= 1.0):
        raise ValueError("need cutoff > 0 and u in (0, 1]")
    k = math.floor(p.g.tau(cutoff) - u) + 1
    while p.g.value(k + u) < cutoff:
        k += 1
    while k > -10_000 and p.g.value(k - 1 + u) >= cutoff:
        k -= 1
    return AlgorithmBids(profile=p, shift=u, first_index=k)
