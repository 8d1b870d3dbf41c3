"""Monte Carlo oracles for the expected costs of profile-driven strategies.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DomainError
from .bidding import BiddingProfile
from .excursion import ExcursionProfile
from .grids import GridSpec, Lanes

__all__ = ["SimReport", "counter_uniforms", "simulate_bidding",
           "simulate_linear"]

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

