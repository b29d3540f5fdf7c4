"""Embedded sparse convex solver: programs, the cone layout (three counts),
scaling and the IPM, which orders its KKT matrices by stage and factors
them with a compiled sparse LDL' kernel, the package's one factorization
(the SCP projection factors with it too); its cone algebra is compiled
too, in the same library (``ldl``)."""

from .cones import Cones
from .ipm import solve
from .program import ConicProgram, SolverSolution
from .scaling import VariableScaling, make_scaling, scale_program

__all__ = [
    "Cones", "ConicProgram", "SolverSolution", "VariableScaling", "solve",
    "scale_program", "make_scaling",
]
