"""Embedded sparse convex solver: programs, the cone layout, scaling and
the IPM, whose KKT matrices SuperLU orders and a compiled sparse LDL'
kernel (``ldl``) factors."""

from .cones import NONNEG, SOC, ConeBlock, Cones
from .ipm import factor_quasidefinite, solve
from .program import ConicProgram, SolverSolution
from .scaling import VariableScaling, make_scaling, scale_program

__all__ = [
    "NONNEG", "SOC", "ConeBlock", "Cones", "ConicProgram", "SolverSolution",
    "VariableScaling", "solve", "scale_program", "factor_quasidefinite",
    "make_scaling",
]
