"""Standard-form convex program container and solver result types.

The canonical form is

    minimize    0.5 x' P x + c' x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of nonnegative-orthant and second-order cone blocks
listed top to bottom in the same row order as G. P is optional and PSD.
An optional per-variable affine scaling record maps solver variables back
to physical units.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

NONNEG = "nonneg"
SOC = "soc"


@dataclass(frozen=True)
class ConeBlock:
    kind: str   # NONNEG or SOC
    dim: int

    def __post_init__(self):
        if self.kind not in (NONNEG, SOC):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1 or (self.kind == SOC and self.dim < 2):
            raise ValueError("bad cone dimension")


@dataclass(frozen=True)
class VariableScaling:
    """Affine map x_physical = offset + half_range * x_scaled."""

    offset: np.ndarray
    half_range: np.ndarray

    def scale(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, float) - self.offset) / self.half_range

    def unscale(self, x_scaled: np.ndarray) -> np.ndarray:
        return self.offset + self.half_range * np.asarray(x_scaled, float)


@dataclass
class ConicProgram:
    c: np.ndarray
    A: sp.spmatrix | None = None
    b: np.ndarray | None = None
    G: sp.spmatrix | None = None
    h: np.ndarray | None = None
    cones: list[ConeBlock] = field(default_factory=list)
    P: sp.spmatrix | None = None
    scaling: VariableScaling | None = None
    obj_offset: float = 0.0
    var_names: list[str] | None = None
    # Initial-iterate hint for the IPM's one solve, typically the solution of
    # a nearby program; ignored when its shapes do not match this program's.
    # Its KKT analysis is reused when the pattern matches, and a solution of
    # this same program object is resumed as it is (see ipm).
    start: SolverSolution | None = None

    @property
    def n(self) -> int:
        return int(np.asarray(self.c).size)

    @property
    def n_eq(self) -> int:
        return 0 if self.A is None else self.A.shape[0]

    @property
    def n_ineq(self) -> int:
        return 0 if self.G is None else self.G.shape[0]

    def validate(self) -> None:
        n = self.n
        if self.A is not None:
            if self.A.shape[1] != n or self.b is None or len(self.b) != self.A.shape[0]:
                raise ValueError("equality block dimensions inconsistent")
        if self.G is not None:
            if self.G.shape[1] != n or self.h is None or len(self.h) != self.G.shape[0]:
                raise ValueError("inequality block dimensions inconsistent")
            if sum(cb.dim for cb in self.cones) != self.G.shape[0]:
                raise ValueError("cone dimensions do not cover the inequality rows")
        elif self.cones:
            raise ValueError("cones listed without an inequality block")
        if self.P is not None and self.P.shape != (n, n):
            raise ValueError("quadratic term has wrong shape")
        if self.scaling is not None and (
                self.scaling.offset.size != n or self.scaling.half_range.size != n):
            raise ValueError("scaling record does not cover every variable")

    def objective_value(self, x: np.ndarray) -> float:
        val = float(self.c @ x) + self.obj_offset
        if self.P is not None:
            val += 0.5 * float(x @ (self.P @ x))
        return val


@dataclass
class SolverSolution:
    x: np.ndarray
    status: str                  # optimal | infeasible | unbounded | max_iter | numerical_failure
    iterations: int
    objective: float
    gap: float
    rel_gap: float
    primal_res: float
    dual_res: float
    y: np.ndarray | None = None  # equality multipliers
    z: np.ndarray | None = None  # cone multipliers
    s: np.ndarray | None = None  # cone slacks
    warm: bool = False           # the IPM started from the program's start
    reordered: bool = False      # the solve took its own KKT ordering
    resumed: bool = False        # the start was this program's own iterate
    # For a later solve from this one: the KKT analysis, reused when the
    # pattern matches, and the program solved (weakly, since that program
    # may hold this solution as its start).
    _analysis: Any = field(default=None, repr=False, compare=False)
    _program: weakref.ref | None = field(default=None, repr=False,
                                         compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def x_physical(self, program: ConicProgram) -> np.ndarray:
        if program.scaling is None:
            return self.x
        return program.scaling.unscale(self.x)
