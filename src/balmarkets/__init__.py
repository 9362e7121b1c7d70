"""Simulation and diagnostics toolkit for balanced multi-company markets."""

__version__ = "0.1.0"

from . import errors
from .market_model import (
    ConstraintKind,
    ConstraintSet,
    MarketParams,
    PathGrid,
    ProcessSpec,
    SpecKind,
    psd_factor,
    validate_params,
)
from .sde_engine import (
    PathSet,
    pathset_summary,
    pathset_to_csv,
    simulate_capitalizations,
)
from .growth_opt import (
    growth_optimal_constrained,
    growth_optimal_hyperplane,
    growth_rate,
    implied_interest_rate,
)
from .balance_diag import (
    BalanceReport,
    DistanceMatrix,
    LimitingDistribution,
    distance_matrix,
    equivalence_classes,
    limiting_distribution,
    lln_diagnostic,
    loss_of_balance,
)
from .jump_markets import (
    JumpSpec,
    LifetimeRecord,
    drift_from_balance_jump,
    example_death_of_company,
    growth_optimal_jump,
    simulate_jump_balanced,
    simulate_relative_caps_balanced,
)
from .scenario_cli import BUILTINS, parse_config, replay_summary, run_scenario

__all__ = [
    "__version__",
    "errors",
    "ConstraintKind",
    "ConstraintSet",
    "MarketParams",
    "PathGrid",
    "ProcessSpec",
    "SpecKind",
    "psd_factor",
    "validate_params",
    "PathSet",
    "pathset_summary",
    "pathset_to_csv",
    "simulate_capitalizations",
    "simulate_relative_caps_balanced",
    "growth_optimal_constrained",
    "growth_optimal_hyperplane",
    "growth_rate",
    "implied_interest_rate",
    "BalanceReport",
    "DistanceMatrix",
    "LimitingDistribution",
    "distance_matrix",
    "equivalence_classes",
    "limiting_distribution",
    "lln_diagnostic",
    "loss_of_balance",
    "JumpSpec",
    "LifetimeRecord",
    "drift_from_balance_jump",
    "example_death_of_company",
    "growth_optimal_jump",
    "simulate_jump_balanced",
    "BUILTINS",
    "parse_config",
    "replay_summary",
    "run_scenario",
]
