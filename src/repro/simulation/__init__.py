"""The §2.2 vector simulation and granule cost model (Figures 2 and 3)."""

from repro.simulation.cost_model import CostModel
from repro.simulation.vector_sim import (
    SimStepRecord,
    VectorCrackingSimulation,
    accumulated_cost_ratio,
    fractional_write_overhead,
)

__all__ = [
    "CostModel",
    "SimStepRecord",
    "VectorCrackingSimulation",
    "accumulated_cost_ratio",
    "fractional_write_overhead",
]
