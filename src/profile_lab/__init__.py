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
    bidding_lb_chi,
    bidding_tradeoff,
    invert_bidding_chi,
    invert_linear_strategy_chi,
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
    apply_F,
    build_profile,
    build_profile_backward,
    check_bpb,
    check_phi_lb,
    expected_cost,
    tighten,
    verify,
)
from .excursion import (
    C_minus,
    C_plus,
    ExcursionProfile,
    apply_F_pair,
    build_excursion_profile,
    strategy_cost_linear,
    verify_excursion,
    weighted_psi_integral,
)
from .grids import GridFunction, GridSpec, Piece, make_grid
from .serialize import load_profile, save_profile
from .simulate import (
    DiscreteStrategy,
    SimReport,
    StepProfile,
    aggregate_measure,
    cost_dominance_check,
    counter_uniforms,
    inverse_profile,
    simulate_bidding,
    simulate_linear,
    truncate_to_algorithm,
)

__version__ = "0.1.0"
