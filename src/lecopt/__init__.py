"""Local energy community optimization engine.

Schedules a shared battery against collective PV generation under a
price-minimizing or emissions-minimizing objective, computes hourly grid
carbon intensity from generation-mix data, and settles costs and emissions
per participant against a buy-everything-from-the-grid baseline.
"""

from lecopt.domain import (
    BessSpec,
    CommunitySpec,
    HourlySeries,
    Participant,
    PvSpec,
    SharingMode,
    SharingScheme,
    validate_community,
)
from lecopt.gwp import EmissionFactorTable, GenerationMixHour, hourly_intensity, intensity_series
from lecopt.model import AllocationMode, Objective, build, export_lp_text
from lecopt.scenario import compare, compute_baseline, run_scenario
from lecopt.solver import solve_milp, verify_solution

__all__ = [
    "AllocationMode",
    "BessSpec",
    "CommunitySpec",
    "EmissionFactorTable",
    "GenerationMixHour",
    "HourlySeries",
    "Objective",
    "Participant",
    "PvSpec",
    "SharingMode",
    "SharingScheme",
    "build",
    "compare",
    "compute_baseline",
    "export_lp_text",
    "hourly_intensity",
    "intensity_series",
    "run_scenario",
    "solve_milp",
    "validate_community",
    "verify_solution",
]

__version__ = "0.1.0"
