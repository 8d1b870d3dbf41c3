"""Pareto-optimal randomized strategies for online bidding and linear search.

The package constructs and verifies the profile functions that drive the
optimal randomized strategies for both problems, evaluates their costs
analytically, cross-checks them by Monte Carlo simulation, and emits the
robustness-consistency trade-off curves and lower bounds as data.
"""

from .analysis import (
    ConvergenceError,
    DomainError,
    LowerBoundPoint,
    TradeoffPoint,
    bidding_tradeoff,
    lambert_w0,
    linear_lower_bound,
    linear_tradeoff,
    rho_ls_star,
    s_star,
    solve_K,
    solve_sK,
    solve_xi_bidding,
)
from .bidding import (
    BiddingProfile,
    VerificationReport,
    build_profile,
    expected_cost,
    tighten,
    verify,
)
from .excursion import (
    C_minus,
    C_plus,
    ExcursionProfile,
    build_excursion_profile,
    strategy_cost_linear,
    verify_excursion,
)
from .grids import GridFunction, GridSpec, Piece, make_grid
from .reduction import (
    DiscreteStrategy,
    StepProfile,
    aggregate_measure,
    cost_dominance_check,
    inverse_profile,
    truncate_to_algorithm,
)
from .serialize import load_profile, save_profile
from .simulate import (
    SimReport,
    counter_uniforms,
    simulate_bidding,
    simulate_linear,
)

__version__ = "0.1.0"
