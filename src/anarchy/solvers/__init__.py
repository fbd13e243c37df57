from .lp import OPTIMAL, UNBOUNDED, IntegerProgram, LPSolution, solve_lp
from .matching import WeightMatrix, max_weight_perfect_matching
from .maxflow import CapacitatedDigraph, MaxFlowResult, Residual, max_flow

__all__ = [
    "IntegerProgram",
    "LPSolution",
    "solve_lp",
    "OPTIMAL",
    "UNBOUNDED",
    "WeightMatrix",
    "max_weight_perfect_matching",
    "CapacitatedDigraph",
    "MaxFlowResult",
    "Residual",
    "max_flow",
]
