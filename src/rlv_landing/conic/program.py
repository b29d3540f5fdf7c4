"""Standard-form convex program container and solver result types.

The canonical form is

    minimize    0.5 x' P x + c' x
    subject to  A x = b
                G x + s = h,   s in K

where K is the cone layout ``cones``, ``cones.Cones(n_nn, n_soc, d)`` in
G's row order: n_nn nonnegative-orthant rows, then n_soc second-order cone
blocks of dimension d. P is symmetric PSD. Every block is always present: a
program without equality rows has an A with no rows, and one without a
quadratic term an all-zero P. K has at least one row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from .cones import Cones


def _left_out() -> sp.csr_matrix:
    """The default of a matrix block, sized by ``ConicProgram.__post_init__``."""
    return sp.csr_matrix((0, 0))


def _no_rows() -> np.ndarray:
    return np.zeros(0)


@dataclass
class ConicProgram:
    """A program in the canonical form; ``validate`` checks it."""

    c: np.ndarray
    A: sp.spmatrix = field(default_factory=_left_out)
    b: np.ndarray = field(default_factory=_no_rows)
    G: sp.spmatrix = field(default_factory=_left_out)
    h: np.ndarray = field(default_factory=_no_rows)
    cones: Cones = field(default_factory=Cones)
    # Symmetric: the IPM's KKT matrix reads its upper triangle.
    P: sp.spmatrix = field(default_factory=_left_out)
    obj_offset: float = 0.0
    # The stage of each variable, such as the node of an optimal control
    # problem's node columns: the IPM orders its KKT matrix by stage (see
    # ipm). None puts every variable in one stage.
    stage: np.ndarray | None = None
    # Initial-iterate hint for the IPM's one solve, typically the solution of
    # a nearby program; ignored when its shapes do not match this program's.
    # Its KKT analysis is reused when the pattern matches, and a solution of
    # this same program object is resumed as it is (see ipm).
    start: SolverSolution | None = None

    def __post_init__(self):
        # A block left out has a column per variable: A and G no rows, P
        # all zeros.
        n = self.n
        for name, rows in (("A", 0), ("G", 0), ("P", n)):
            if getattr(self, name).shape == (0, 0):
                setattr(self, name, sp.csr_matrix((rows, n)))

    @property
    def n(self) -> int:
        return int(np.asarray(self.c).size)

    @property
    def n_eq(self) -> int:
        return self.A.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.G.shape[0]

    def validate(self) -> None:
        n = self.n
        if self.A.shape[1] != n or len(self.b) != self.A.shape[0]:
            raise ValueError("equality block dimensions inconsistent")
        if self.G.shape[1] != n or len(self.h) != self.G.shape[0]:
            raise ValueError("inequality block dimensions inconsistent")
        if not isinstance(self.cones, Cones):
            raise ValueError(f"cones must be a Cones layout, not "
                             f"{type(self.cones).__name__}")
        if self.cones.dim != self.G.shape[0]:
            raise ValueError("cone dimensions do not cover the inequality rows")
        if self.P.shape != (n, n):
            raise ValueError("quadratic term has wrong shape")
        if self.stage is not None and np.shape(self.stage) != (n,):
            raise ValueError("stage needs one entry per variable")
        if not self.G.shape[0]:
            raise ValueError("program has no cone rows")


@dataclass
class SolverSolution:
    x: np.ndarray
    status: str                  # optimal | infeasible | numerical_failure
    #                              | max_iter
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
    reordered: bool = False      # the solve made a fresh stage-ordered KKT
    #                              analysis: its start carried none that
    #                              matched
    resumed: bool = False        # the start was this program's own iterate
    ldl_solves: int = 0          # the LDL' solves of the KKT systems, the
    #                              cold start's and refinement steps' too
    # For a later solve from this one: the KKT analysis, reused when the
    # pattern matches, and the program solved (weakly, since that program
    # may hold this solution as its start).
    _analysis: Any = field(default=None, repr=False, compare=False)
    _program: weakref.ref | None = field(default=None, repr=False,
                                         compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"
