"""Embedded sparse convex solver: programs, scaling, IPM, KKT verification."""

from .ipm import SolverSettings, factor_quasidefinite, solve
from .program import (
    NONNEG,
    SOC,
    ConeBlock,
    ConicProgram,
    SolverSolution,
    VariableScaling,
    dump_program,
    load_program,
)
from .scaling import make_scaling, scale_program
from .verify import KktReport, cone_violation, verify_kkt

__all__ = [
    "NONNEG", "SOC", "ConeBlock", "ConicProgram", "SolverSolution",
    "VariableScaling", "SolverSettings", "solve", "scale_program",
    "factor_quasidefinite",
    "make_scaling", "verify_kkt", "KktReport", "cone_violation",
    "dump_program", "load_program",
]
