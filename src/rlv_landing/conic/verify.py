"""KKT residual report for solved conic programs, used by the test suites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import Cones
from .program import ConicProgram, SolverSolution


@dataclass(frozen=True)
class KktReport:
    stationarity: float      # ||P x + c + A' y + G' z||_inf
    primal_eq: float         # ||A x - b||_inf
    primal_cone: float       # ||G x + s - h||_inf plus cone violation of s
    dual_cone: float         # cone violation of z
    complementarity: float   # |s' z|

    @property
    def worst(self) -> float:
        return max(self.stationarity, self.primal_eq, self.primal_cone,
                   self.dual_cone, self.complementarity)


def cone_violation(program: ConicProgram, u: np.ndarray) -> float:
    """Max distance of u outside its cone blocks (0 when inside)."""
    return max(Cones(program.cones).interior_violation(u), 0.0)


def verify_kkt(program: ConicProgram, solution: SolverSolution) -> KktReport:
    """Residual norms of the KKT conditions at the given solution."""
    x = solution.x
    c = np.asarray(program.c, float)
    stat = c.copy()
    if program.P is not None:
        stat = stat + program.P @ x
    primal_eq = 0.0
    if program.A is not None:
        stat = stat + program.A.T @ solution.y
        primal_eq = float(np.abs(program.A @ x - program.b).max())
    primal_cone = 0.0
    dual_cone = 0.0
    comp = 0.0
    if program.G is not None:
        stat = stat + program.G.T @ solution.z
        s = solution.s if solution.s is not None else np.asarray(program.h) - program.G @ x
        resid = program.G @ x + s - np.asarray(program.h)
        primal_cone = max(float(np.abs(resid).max(initial=0.0)),
                          cone_violation(program, s))
        dual_cone = cone_violation(program, solution.z)
        comp = abs(float(s @ solution.z))
    return KktReport(
        stationarity=float(np.abs(stat).max(initial=0.0)),
        primal_eq=primal_eq,
        primal_cone=primal_cone,
        dual_cone=dual_cone,
        complementarity=comp,
    )
