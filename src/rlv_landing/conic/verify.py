"""KKT residual report for solved conic programs, used by the test suites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    return max(program.layout.interior_violation(u), 0.0)


def verify_kkt(program: ConicProgram, solution: SolverSolution) -> KktReport:
    """Residual norms of the KKT conditions at the given solution."""
    x = solution.x
    stat = np.asarray(program.c, float) + program.P @ x \
        + program.A.T @ solution.y + program.G.T @ solution.z
    h = np.asarray(program.h)
    s = solution.s if solution.s is not None else h - program.G @ x
    primal_cone = max(
        float(np.abs(program.G @ x + s - h).max(initial=0.0)),
        cone_violation(program, s))
    return KktReport(
        stationarity=float(np.abs(stat).max(initial=0.0)),
        primal_eq=float(np.abs(program.A @ x - program.b).max(initial=0.0)),
        primal_cone=primal_cone,
        dual_cone=cone_violation(program, solution.z),
        complementarity=abs(float(s @ solution.z)),
    )
