"""Embedded sparse convex solver: programs, the cone layout, scaling, IPM,
KKT verification."""

from .cones import NONNEG, SOC, ConeBlock, Cones
from .ipm import SolverSettings, factor_quasidefinite, solve
from .program import ConicProgram, SolverSolution
from .scaling import VariableScaling, make_scaling, scale_program
from .verify import KktReport, cone_violation, verify_kkt

__all__ = [
    "NONNEG", "SOC", "ConeBlock", "Cones", "ConicProgram", "SolverSolution",
    "VariableScaling", "SolverSettings", "solve", "scale_program",
    "factor_quasidefinite",
    "make_scaling", "verify_kkt", "KktReport", "cone_violation",
]
