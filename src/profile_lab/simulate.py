"""Monte Carlo oracles for the expected costs of profile-driven strategies.

The simulators draw the shared shift U ~ Unif(0, 1] from a counter-based
generator keyed by (seed, sample index): sample i is a pure function of the
key, so disjoint index ranges can be evaluated concurrently and reassembled
deterministically, and identical seeds give bit-identical reports.  The
oracles run the lanes (samples) in fixed blocks of ``_LANES``, each block
until its lanes settle, so their memory is the samples and the costs plus
one block's temporaries; a lane's cost is the same sum in the same order
for any block size.  A unit step moves every bid position k + U by a whole
number of grid cells, so a block locates its lanes once (cell and Hermite
basis weights, :class:`~profile_lab.grids.Lanes`) and every later step on
the grid is an index shift and a weighted sum of four gathered node
values; the steps below the window are one sum over the tail's modes.  The
oracles read profiles only through point evaluation (and such sums of it)
and, where ``_lane_costs`` finds the summation window, ``tau``, never
through the analytic integrals and costs they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DomainError
from .bidding import BiddingProfile
from .excursion import ExcursionProfile
from .grids import GridFunction, Lanes

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


def _lane_costs(p: BiddingProfile | ExcursionProfile, x: float,
                stop: GridFunction, n: int, seed: int, add_step,
                failure: str) -> np.ndarray:
    """Per-lane sums of ``add_step`` over the steps k of each lane of a walk
    on profile ``p`` at |target| ``x`` that ends where component ``stop``
    crosses x.

    The window is found here, for both oracles: every lane starts at the
    step k_start = floor(x_lo), x_lo = min over the components of
    tau(1e-9 x), so that every bid left out lies at or below x_lo, where
    the neglected prefix is provably small (the oracles report its bound),
    and stops by k_stop = ceil(tau_stop(x) + 2), where every lane has
    settled; these are the oracles' only calls of ``tau``.  Lane i draws
    U_i = counter_uniforms(seed, 0, n)[i] and runs the steps k >= k_start
    up to k_stop or until it is settled.  Lanes run in blocks of
    ``_LANES``, and a block lays its U out on the grid once
    (:class:`~profile_lab.grids.Lanes`).  ``add_step(lanes, k, last,
    alive, costs)`` adds the cost of the steps k..last to the block's
    ``costs`` where ``alive`` and clears the settled lanes from ``alive``;
    it evaluates the profile at k + U by ``lane_values(lanes, k, last)``.
    The steps whose points all lie below the window (k + 1 <= x_min; the
    point x_min itself is the grid's) are one call, a run, where no lane
    can settle: twice ``stop`` at x_min times their count stays below x
    (the tail meets G(x_min) to within ``TOL_REL``), and the tail sums
    each mode over the run in closed form.  Every later call is one step:
    a unit step keeps every lane's in-cell fraction, so a step on the grid
    is an index shift and four gathers under the block's Hermite weights,
    and a step right of 0 one scalar per term of each right piece it
    reaches times the block's ``e^{rate U}``.  A lane sums the same terms
    in the same order for any block size.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k_start = math.floor(min(g.tau(1e-9 * x) for g in p.components))
    k_stop = int(math.ceil(stop.tau(x) + 2.0))
    tail_end = math.floor(stop.x_min) - 1  # the last step below the window
    run = tail_end
    if not 2.0 * (run - k_start + 1) * stop.value(stop.x_min) < x:
        run = k_start
    u = counter_uniforms(seed, 0, n)
    costs = np.zeros(n)
    for lo in range(0, n, _LANES):
        lanes = Lanes(p.components[0].grid, u[lo:lo + _LANES])
        cb = costs[lo:lo + _LANES]
        alive = np.ones(lanes.u.size, dtype=bool)
        k = k_start
        while k <= k_stop and alive.any():
            last = max(k, run)
            add_step(lanes, k, last, alive, cb)
            if last == tail_end:
                lanes.waves.clear()  # the tail's, which no later step reads
            k = last + 1
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

    def bid(lanes, k, last, alive, costs):
        vals = p.g.lane_values(lanes, k, last)
        pay = alive.copy()
        alive &= ~(vals >= target)
        _add_where(costs, vals, pay)

    costs = _lane_costs(p, target, p.g, n, seed, bid,
                        "bidding simulation failed to terminate; "
                        "profile right part does not reach the target")
    return _report(costs, seed, target, p.rho * (1e-9 * target))


def simulate_linear(p: ExcursionProfile, target: float, n: int,
                    seed: int) -> SimReport:
    """Empirical mean cost of the excursion strategy at signed ``target``.

    Excursions alternate +G+(k+U), -G-(k+U) in increasing k; every failed
    excursion costs twice its length and the successful one costs |target|.
    """
    x = abs(target)
    if not 0.0 < x < math.inf:
        raise DomainError(f"target must be nonzero and finite, got {target!r}")

    def excursion(lanes, k, last, alive, costs):
        gp = p.g_plus.lane_values(lanes, k, last)
        if target > 0.0:
            found = alive & (gp >= x)
            gp += p.g_minus.lane_values(lanes, k, last)
            gp *= 2.0
            _add_where(costs, gp, alive & ~found)
        else:
            gp *= 2.0
            _add_where(costs, gp, alive)
            gm = p.g_minus.lane_values(lanes, k, last)
            found = alive & (gm >= x)
            gm *= 2.0
            _add_where(costs, gm, alive & ~found)
        alive &= ~found

    costs = _lane_costs(p, x, p.g_plus if target > 0.0 else p.g_minus, n,
                        seed, excursion,
                        "linear-search simulation failed to terminate")
    costs += x
    return _report(costs, seed, target, 4.0 * p.rho * (1e-9 * x))

