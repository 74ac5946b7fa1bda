"""Energy-minimizing resource allocation for split edge inference under
accuracy and latency constraints, with analytical accuracy bounds validated
against brute-force oracles."""

from .accuracy import AccuracyParams, PenaltyTerms
from .cost import Allocation, CostBreakdown, Scenario
from .errors import ConfigError, InfeasibleError
from .netmodel import NetworkModel
from .optimizer import Solution, solve_baseline, solve_scenario, sweep
from .quant import QuantSpec

__version__ = "0.1.0"

__all__ = [
    "AccuracyParams", "Allocation", "ConfigError", "CostBreakdown",
    "InfeasibleError", "NetworkModel", "PenaltyTerms", "QuantSpec", "Scenario",
    "Solution", "solve_baseline", "solve_scenario", "sweep", "__version__",
]
