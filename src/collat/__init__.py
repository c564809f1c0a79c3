"""Minimum-collateral schemes for networked investment games.

Computes collateral matrices that make full investment the unique Nash
equilibrium of an investment network with default cascades, at minimum total
collateral, and quantifies the systemic-risk premium (NEC) of cyclic
topology.  Exact rational arithmetic throughout.
"""

from .analysis import (
    InfeasibilityWitness,
    SolvabilityResult,
    full_collateral_condition,
    is_large_alpha,
    is_minimal,
    is_viable,
    iterated_elimination,
    solvability_check,
    zero_collateral_condition,
)
from .instances import (
    DocumentError,
    RationalTooLongError,
    gen_cycle_family,
    gen_fvs_gadget,
    gen_knapsack_star,
    inverse_knapsack_brute,
    load_network,
    parse_document,
    random_network,
    save_network,
    serialize_network,
)
from .model import (
    Action,
    CollateralMatrix,
    Edge,
    InvestmentNetwork,
    InvestState,
    Money,
    ValidationReport,
    best_response,
    default_determination,
    edge_need,
    edge_utility,
    enterprise_return,
    is_nash_equilibrium,
    player_utility,
    validate_network,
)
from .network import (
    CyclicInputError,
    Solution,
    Status,
    TooLargeError,
    solve,
    solve_dag,
    solve_exact,
    solve_large_alpha,
    star_decomposition,
)
from .star import (
    StarInstance,
    StarSolution,
    brute_force_star,
    minimal_vector_for_order,
    optimal_partial_for_set,
    sigma_for_set,
    solve_star,
)

__version__ = "0.1.0"
