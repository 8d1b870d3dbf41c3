"""Monte Carlo oracles, strategy truncation, and discrete strategy conversion.

The simulators draw the shared shift U ~ Unif(0, 1] from a counter-based
generator keyed by (seed, sample index): sample i is a pure function of the
key, so disjoint index ranges can be evaluated concurrently and reassembled
deterministically, and identical seeds give bit-identical reports.  The
oracles run the lanes (samples) in fixed blocks of ``_LANES``, each block
over its own range of bid steps, so their memory is the samples and the
costs plus one block's temporaries; a lane's cost is the same sum in the
same order for any block size.  A unit step moves every bid position k + U
by a whole number of grid cells, so a block locates its lanes once (cell
and Hermite basis weights, :class:`~profile_lab.grids.Lanes`) and every
later step on the grid is an index shift and a weighted sum of four
gathered node values; the oracles read profiles only through point
evaluation and ``tau``, never through the analytic integrals and costs
they check.

The discrete machinery realizes the strategy-to-profile reduction at finite
scale: a randomized strategy given as finitely many weighted bid sequences
is collapsed value-wise into an aggregate measure, the measure is unfolded
into a left-continuous step profile by the quantile construction around the
prediction at 1, and the profile-driven strategy is certified to cost no
more than the original at every target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import DomainError
from .bidding import BiddingProfile
from .excursion import ExcursionProfile
from .grids import GridSpec, Lanes

__all__ = [
    "SimReport",
    "DiscreteStrategy",
    "counter_uniforms",
    "simulate_bidding",
    "simulate_linear",
    "AlgorithmBids",
    "truncate_to_algorithm",
    "aggregate_measure",
    "StepProfile",
    "inverse_profile",
    "DominanceReport",
    "cost_dominance_check",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# Lanes per block of a simulation: every per-step temporary of a block is
# at most 64 KB, small enough for the allocator to reuse instead of
# returning it to the system and faulting it in again at the next step.
_LANES = 8192


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output function of the uint64 array ``z``, in place."""
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform(0, 1] samples at positions start .. start+count-1.

    Counter-based: sample i is splitmix64 applied to the mixed key
    (seed, i), mapped to the top 53 bits, so any index range can be
    produced independently of any other.
    """
    base = _splitmix64(np.array([seed % (1 << 64)], dtype=np.uint64))
    # mixed in place: the samples are a simulation's largest array
    h = np.arange(start, start + count, dtype=np.uint64)
    h ^= base[0]
    _splitmix64(h)
    # (k+1) * 2^-53 for k in [0, 2^53): exactly Unif(0, 1]
    h >>= np.uint64(11)
    h += np.uint64(1)
    return h * (2.0 ** -53)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary; ``bias_bound`` bounds the truncated prefix mass."""

    mean: float
    stderr: float
    n: int
    seed: int
    target: float
    bias_bound: float = 0.0

    def line(self) -> str:
        return (f"mean={self.mean!r} stderr={self.stderr!r} n={self.n} "
                f"seed={self.seed} target={self.target!r} "
                f"bias_bound={self.bias_bound!r}")

    @staticmethod
    def parse(line: str) -> "SimReport":
        fields = dict(part.split("=", 1) for part in line.split())
        return SimReport(mean=float(fields["mean"]),
                         stderr=float(fields["stderr"]),
                         n=int(fields["n"]), seed=int(fields["seed"]),
                         target=float(fields["target"]),
                         bias_bound=float(fields.get("bias_bound", "0.0")))


def _report(costs: np.ndarray, seed: int, target: float,
            bias_bound: float) -> SimReport:
    n = costs.size
    stderr = float(costs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimReport(mean=float(costs.mean()), stderr=stderr, n=n, seed=seed,
                     target=target, bias_bound=bias_bound)


def _lane_costs(n: int, seed: int, grid: GridSpec, x_lo: float, k_stop: int,
                add_step, failure: str) -> np.ndarray:
    """Per-lane sums of ``add_step`` over the steps k of each lane.

    Lane i draws U_i = counter_uniforms(seed, 0, n)[i] and runs the steps
    k >= k_start_i, the first integer with k + U_i > x_lo, up to k_stop or
    until the lane is settled.  Lanes run in blocks of ``_LANES``, each from
    its own smallest k_start, and a block lays its U out on ``grid`` once
    (:class:`~profile_lab.grids.Lanes`).  ``add_step(lanes, k, started,
    alive, costs)`` evaluates the profile at k + U by
    ``lane_values(lanes, k)``: a unit step keeps every lane's in-cell
    fraction, so a step on the grid is an index shift and four gathers
    under the block's Hermite weights, and a step on the last right piece
    one scalar per term times the block's ``e^{rate U}``.  It adds step
    k's cost to the block's ``costs`` where ``started`` and clears the
    settled lanes from ``alive``.  A lane sums the same terms in the same
    order for any block size.
    """
    u = counter_uniforms(seed, 0, n)
    costs = np.zeros(n)
    for lo in range(0, n, _LANES):
        lanes = Lanes(grid, u[lo:lo + _LANES])
        cb = costs[lo:lo + _LANES]
        k_start = np.floor(x_lo - lanes.u).astype(int) + 1
        alive = np.ones(lanes.u.size, dtype=bool)
        for k in range(int(k_start.min()), k_stop + 1):
            if not alive.any():
                break
            add_step(lanes, k, alive & (k >= k_start), alive, cb)
        if alive.any():
            raise RuntimeError(failure)
        del lanes  # before the next block lays its lanes out
    return costs


def _add_where(costs: np.ndarray, vals: np.ndarray, mask: np.ndarray) -> None:
    """costs += vals where ``mask``, overwriting ``vals``: the other lanes
    add +0.0 (zeroed, not multiplied by the mask, which would turn an
    infinite bid into a nan), which leaves their costs bit for bit at a
    fraction of the price of a gather and a scatter."""
    np.putmask(vals, ~mask, 0.0)
    costs += vals


def simulate_bidding(p: BiddingProfile, target: float, n: int,
                     seed: int) -> SimReport:
    """Empirical mean cost of the profile-driven bidding strategy at ``target``.

    Each sample draws U, then sums the bids G(k+U) for ascending k until the
    first bid reaches the target.  Summation starts where the neglected
    prefix is provably below 1e-9 rho T (by the robustness bound applied at
    the start position); that bound is reported, not silently dropped.
    """
    if not 0.0 < target < math.inf:
        raise DomainError(f"target must be positive and finite, got {target!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    eps = 1e-9 * target
    x_lo = p.g.tau(eps)
    bias_bound = p.rho * eps
    k_stop = int(math.ceil(p.g.tau(target) + 2.0))

    def bid(lanes, k, pay, alive, costs):
        vals = p.g.lane_values(lanes, k)
        alive &= ~(pay & (vals >= target))
        _add_where(costs, vals, pay)

    costs = _lane_costs(n, seed, p.g.grid, x_lo, k_stop, bid,
                        "bidding simulation failed to terminate; "
                        "profile right part does not reach the target")
    return _report(costs, seed, target, bias_bound)


def simulate_linear(p: ExcursionProfile, target: float, n: int,
                    seed: int) -> SimReport:
    """Empirical mean cost of the excursion strategy at signed ``target``.

    Excursions alternate +G+(k+U), -G-(k+U) in increasing k; every failed
    excursion costs twice its length and the successful one costs |target|.
    """
    x = abs(target)
    if not 0.0 < x < math.inf:
        raise DomainError(f"target must be nonzero and finite, got {target!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    eps = 1e-9 * x
    x_lo = min(g.tau(eps) for g in (p.g_plus, p.g_minus))
    bias_bound = 4.0 * p.rho * eps
    stop_tau = p.g_plus.tau(x) if target > 0 else p.g_minus.tau(x)
    k_stop = int(math.ceil(stop_tau + 2.0))

    def excursion(lanes, k, started, alive, costs):
        gp = p.g_plus.lane_values(lanes, k)
        if target > 0.0:
            found = started & (gp >= x)
            gp += p.g_minus.lane_values(lanes, k)
            gp *= 2.0
            _add_where(costs, gp, started & ~found)
        else:
            gp *= 2.0
            _add_where(costs, gp, started)
            gm = p.g_minus.lane_values(lanes, k)
            found = started & (gm >= x)
            gm *= 2.0
            _add_where(costs, gm, started & ~found)
        alive &= ~found

    costs = _lane_costs(n, seed, p.g_plus.grid, x_lo, k_stop, excursion,
                        "linear-search simulation failed to terminate")
    costs += x
    return _report(costs, seed, target, bias_bound)


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


# -- discrete strategies ----------------------------------------------------


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
            if prob <= 0.0:
                raise ValueError("outcome probabilities must be positive")
            if not bids or any(b <= 0.0 for b in bids):
                raise ValueError("bids must be positive and non-empty")
            if any(b2 <= b1 for b1, b2 in zip(bids, bids[1:])):
                raise ValueError("bids must be strictly increasing")
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def t_min(self) -> float:
        return min(bids[0] for _, bids in self.outcomes)

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

    @staticmethod
    def from_text(text: str) -> "DiscreteStrategy":
        """Parse lines of the form 'p b1 b2 ... bk'; '#' starts a comment."""
        outcomes = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [float(tok) for tok in line.split()]
            if len(parts) < 2:
                raise ValueError(f"malformed outcome line: {line!r}")
            outcomes.append((parts[0], tuple(parts[1:])))
        return DiscreteStrategy(outcomes=tuple(outcomes))

    def to_text(self) -> str:
        return "\n".join(
            " ".join([repr(prob)] + [repr(b) for b in bids])
            for prob, bids in self.outcomes) + "\n"

    @staticmethod
    def load(path: str) -> "DiscreteStrategy":
        with open(path, "r", encoding="utf-8") as fh:
            return DiscreteStrategy.from_text(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


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
        """sup { t : G(t) < target }."""
        if target <= 0.0:
            raise ValueError("tau requires a positive target")
        pos = self._below_edges[-1]
        for value, width in (*reversed(self.below), *self.above):
            if value >= target:
                return pos
            pos += width
        return pos

    def integral_to(self, x: float) -> float:
        """Integral of G over (-inf, x]; x must not exceed the packed range."""
        if x > self._above_edges[-1] + 1e-12:
            raise ValueError("integral beyond the packed support is undefined")
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

    def pushforward_mass(self, lo: float, hi: float) -> float:
        """Lebesgue measure of G^{-1}([lo, hi]): total width of step values
        in [lo, hi]; exact for step functions."""
        total = 0.0
        for value, width in self.below + self.above:
            if lo <= value <= hi:
                total += width
        return total


def inverse_profile(mu: dict[float, float]) -> StepProfile:
    """Quantile construction of the profile equivalent to a bid measure.

    Around the prediction 1: for x < 0 the profile takes the largest value
    v < 1 whose accumulated mass from above reaches -x; for x >= 0 the
    smallest value v >= 1 whose accumulated mass from 1 reaches x.  The
    pushforward of Lebesgue measure under the result is exactly ``mu``.
    """
    if not mu or any(v <= 0.0 or w <= 0.0 for v, w in mu.items()):
        raise ValueError("measure must carry positive mass on positive values")
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
