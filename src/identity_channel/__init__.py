"""Solver, estimator and simulator for the two-type identity channel game."""

from .equilibrium import (
    AssumptionViolated,
    AugmentedParams,
    EquilibriumResult,
    IndeterminateParams,
    NoFeasibleEncoding,
    augmented_params,
    check_equivalence,
    closed_form_equilibrium,
    full_lp_oracle,
    solve_batch,
)
from .estimator import (
    DEFAULT_SEARCH_BOUND,
    BelieveOracle,
    EstimationResult,
    GroundTruthOracle,
    InvalidResolution,
    certified_estimates,
    estimate_k,
    strategy_from_estimates,
)
from .experiments import (
    Direction,
    NonBelievingReceiver,
    SweepAxis,
    SweepSpec,
    SweepSummary,
    expected_direction,
    monotonicity_violations,
    monte_carlo_accuracy,
    run_sweep,
    stream_sweep,
    write_simulation_csv,
    write_sweep_csv,
)
from .model import (
    PARAM_NAMES,
    Group,
    Population,
    ReceiverStrategy,
    SenderStrategy,
    population_from_params,
    quality,
)
from .receiver import BeliefResiduals, belief_residuals, believes, best_response

__version__ = "0.1.0"
