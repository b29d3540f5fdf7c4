"""Sequential convex programming loop over a subproblem adapter.

Each iteration linearizes about the current reference, builds a scaled convex
subproblem, solves it, and measures the soft trust-region cost J_tr (the
weighted squared deviation of the solution from the reference, in scaled
variables). The solution becomes the next reference, and the program built
about it is the next iteration's subproblem. Convergence means a fixed point
of the linearization: J_tr is below its threshold and the new reference
satisfies the rows of the program built about it (equality residual, orthant
and cone violation) within tolerance, with its relaxation tight (the
adapter's ``relaxation_gap``). A small step alone is not enough: the
linearization error of the last step is left in the rows. When only that
residual is left, Gauss-Newton steps onto the rows built about the reference,
and then about each projected one, close the O(step^2) gap; the last
projected reference is the next one, and converges only if it passes the test.

Each subproblem is first solved inexactly, at the IPM tolerance
INEXACT_TOL, from the previous subproblem's solution: far from the fixed
point a step needs only to be good enough to linearize about. A step whose
J_tr passes the step test is solved again at the caller's tolerance, and
J_tr and the next reference come from that re-solve. The re-solve resumes
the inexact solve's own iterate: the program is the same object, so the IPM
keeps that solution's slacks and multipliers as they are, where a start
from the previous subproblem is moved into the cones first, and a
subproblem whose KKT pattern is the previous one's reuses its ordering. So
a converged plan is a full-tolerance subproblem solution that passes the
fixed-point test; a re-solved step that fails the step test costs one more
SCP iteration and converges nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

import numpy as np
import scipy.sparse as sp

from .conic import ConicProgram, SolverSolution, factor_quasidefinite, solve


# The projection holds inequality rows this close to their bound (rows are
# equilibrated to unit infinity-norm, variables scaled to [-1, 1]).
ACTIVE_TOL = 1e-4
# Gauss-Newton steps per projection: the first leaves the O(dx^2) curvature
# error of the SOC blocks it holds, a few 1e-7 at N=30, and the second
# removes it (with one step a replan plan at N=100 took 13 SCP iterations
# instead of 5).
PROJECTION_STEPS = 2
# Fixed-point test: threshold on the residual of the rows rebuilt about the
# reference (scaled variables, equilibrated rows).
EPS_FEASIBLE = 1e-7
# Largest relaxation gap (``SubproblemAdapter.relaxation_gap``) of a
# converged reference: the bound planbench's ``planning.check`` holds a
# converged plan's thrust relaxation to.
RELAXATION_TOL = 1e-6
# IPM tolerance of a subproblem solve before its step is small; the caller's
# tolerance applies from the step test on.
INEXACT_TOL = 1e-4


@dataclass(frozen=True)
class ScpSettings:
    eps_converge: float          # step test: threshold on J_tr
    max_iter: int
    W_tr: float                  # scalar trust-region weight on scaled deviations


@dataclass(frozen=True)
class ScpIterationRecord:
    iteration: int
    J_tr: float
    objective: float
    solver_status: str
    solver_iterations: int       # IPM iterations of every solve of the step
    millis: float
    residual: float              # fixed-point residual the stopping rule read
    #                              (of the projection, if it ran;
    #                              nan after a last iteration without a
    #                              small step, where nothing reads it)
    projected: bool              # the Gauss-Newton projection ran
    resolved: bool = False       # the step came from the full-tolerance re-solve


@dataclass
class ScpOutcome:
    converged: bool
    iterations: int
    reference: Any               # final reference (a fixed point if converged)
    log: list[ScpIterationRecord] = field(default_factory=list)


class ScpFailure(RuntimeError):
    """A subproblem solve did not end optimal."""

    def __init__(self, message: str, iteration: int,
                 log: list[ScpIterationRecord], status: str):
        super().__init__(f"SCP iteration {iteration}: {message}")
        self.iteration = iteration
        self.log = log
        self.status = status


class SubproblemAdapter(Protocol):
    """What the SCP loop needs from a problem family.

    ``build``'s program is the subproblem, the fixed-point test and the
    rows of the Gauss-Newton projection. ``relaxation_gap`` measures how
    far the reference is from the solution of the problem the subproblems
    relax (0 for a family without a relaxation).
    """

    def build(self, reference: Any) -> ConicProgram: ...

    def reference_vector(self, reference: Any) -> np.ndarray: ...

    def decode(self, reference: Any, x_scaled: np.ndarray) -> Any: ...

    def relaxation_gap(self, reference: Any) -> float: ...


def trust_region_cost(Z: np.ndarray, Z_ref: np.ndarray, W_tr: float) -> float:
    """Soft trust-region cost W_tr ||Z - Z_ref||^2 for stacked variables."""
    dZ = np.asarray(Z, float) - np.asarray(Z_ref, float)
    return float(W_tr) * float(dZ.ravel() @ dZ.ravel())


def add_trust_region(program: ConicProgram, x_ref_scaled: np.ndarray,
                     weight: float) -> None:
    """Fold J_tr = weight * ||x - x_ref||^2 into the (scaled) objective."""
    n = program.n
    program.P = (program.P + 2.0 * weight * sp.eye(n, format="csc")).tocsc()
    program.c = np.asarray(program.c, float) - 2.0 * weight * x_ref_scaled
    program.obj_offset += weight * float(x_ref_scaled @ x_ref_scaled)


def fixed_point_residual(program: ConicProgram, x: np.ndarray) -> float:
    """Largest violation of the program's rows at x: the equality residual
    and the distance of h - G x outside its cones."""
    return max(float(np.abs(program.A @ x - program.b).max(initial=0.0)),
               program.layout.interior_violation(program.h - program.G @ x),
               0.0)


def project_onto_rows(program: ConicProgram, x: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step from x onto the program's rows.

    The step is the least-norm dx that zeroes the equality residual, moves
    violated orthant rows and SOC blocks onto their bounds and holds those
    within ACTIVE_TOL of their bounds at their value, all to first order;
    an SOC block enters through g = ||s_1|| - s_0 with s = h - G x. It
    solves the quasi-definite KKT system [[I, J'], [J, -1e-10 I]]; the
    regularization admits dependent rows.
    """
    s = program.h - program.G @ x
    cones = program.layout
    # W has a row per row of G: a held orthant row or SOC block fills its
    # first one, and the rows nothing fills are dropped, so the held rows
    # keep G's order.
    near = cones.nn[s[cones.nn] < ACTIVE_TOL]
    w_row, w_col, w_val = [near], [near], [np.ones(near.size)]
    g = np.zeros(s.size)
    g[near] = -s[near]
    for idx in cones.soc.values():
        sb = s[idx]
        # A stacked matmul rounds like np.linalg.norm's 1-D dot.
        norm = np.sqrt((sb[:, None, 1:] @ sb[:, 1:, None])[:, 0, 0])
        on = (norm > 0.0) & (norm - sb[:, 0] > -ACTIVE_TOL)
        top = idx[on, 0]
        w_row.append(np.repeat(top, idx.shape[1]))
        w_col.append(idx[on].ravel())
        w_val.append(np.column_stack(
            [np.ones(top.size), -sb[on, 1:] / norm[on, None]]).ravel())
        g[top] = norm[on] - sb[on, 0]
    w_row = np.concatenate(w_row)
    held = np.unique(w_row)
    W = sp.csr_matrix(
        (np.concatenate(w_val), (w_row, np.concatenate(w_col))),
        shape=(s.size, s.size))[held]
    J = sp.vstack([program.A, W @ program.G], format="csc")
    residual = np.concatenate([program.A @ x - program.b,
                               np.maximum(g[held], 0.0)])
    m = J.shape[0]
    K = sp.bmat([[sp.eye(x.size), J.T], [J, -1e-10 * sp.eye(m)]],
                format="csc")
    rhs = np.concatenate([np.zeros(x.size), -residual])
    return x + factor_quasidefinite(K).solve(rhs)[:x.size]


def _project(adapter: SubproblemAdapter, reference: Any,
             program: ConicProgram) -> tuple[Any, float, ConicProgram]:
    """Gauss-Newton steps from the reference onto ``program``, built about
    it, then onto the program built about each result, until a result is
    within EPS_FEASIBLE or PROJECTION_STEPS are taken; the last result,
    with its residual and program."""
    for _ in range(PROJECTION_STEPS):
        x = project_onto_rows(program, adapter.reference_vector(reference))
        reference = adapter.decode(reference, x)
        program = adapter.build(reference)
        residual = fixed_point_residual(program,
                                        adapter.reference_vector(reference))
        if residual <= EPS_FEASIBLE:
            break
    return reference, residual, program


def run_scp(adapter: SubproblemAdapter, initial_reference: Any,
            settings: ScpSettings, tol: float = 1e-8,
            solve_fn: Callable[..., SolverSolution] = solve) -> ScpOutcome:
    """Iterate build/solve/update until the reference is a fixed point.

    Converged means J_tr < eps_converge, from a solve at the IPM tolerance
    ``tol``, a fixed-point residual (of the reference, or of its projection
    onto the rebuilt rows) at most EPS_FEASIBLE, and a relaxation gap of
    that reference at most RELAXATION_TOL. Raises ScpFailure when a
    subproblem is not solved to optimality; otherwise the loop runs to
    ``settings.max_iter``, whatever J_tr does.
    """
    reference = initial_reference
    log: list[ScpIterationRecord] = []
    inexact = max(tol, INEXACT_TOL)
    solution = None
    t0 = time.perf_counter()
    program = adapter.build(reference)

    def step_cost(solution, x_ref):
        """J_tr of an optimal solution; nan for any other."""
        return (trust_region_cost(solution.x, x_ref, settings.W_tr)
                if solution.optimal else float("nan"))

    for iteration in range(1, settings.max_iter + 1):
        x_ref = adapter.reference_vector(reference)
        program.start = solution
        solution = solve_fn(program, inexact)
        solver_iterations, resolved = solution.iterations, False
        j_tr = step_cost(solution, x_ref)
        if inexact != tol and j_tr < settings.eps_converge:
            program.start = solution
            solution = solve_fn(program, tol)
            solver_iterations += solution.iterations
            resolved = True
            j_tr = step_cost(solution, x_ref)
        small_step = j_tr < settings.eps_converge
        residual, projected = float("nan"), False
        if solution.optimal:
            reference = adapter.decode(reference, solution.x)
            # The program about the new reference is the next subproblem
            # and the one the fixed-point test reads; after the last
            # iteration only the test needs it, and only after a small step.
            if small_step or iteration < settings.max_iter:
                program = adapter.build(reference)
                residual = fixed_point_residual(
                    program, adapter.reference_vector(reference))
                projected = small_step and residual > EPS_FEASIBLE
                if projected:
                    reference, residual, program = _project(
                        adapter, reference, program)
        t1 = time.perf_counter()
        log.append(ScpIterationRecord(iteration, j_tr, solution.objective,
                                      solution.status, solver_iterations,
                                      (t1 - t0) * 1e3, residual, projected,
                                      resolved))
        t0 = t1
        if not solution.optimal:
            raise ScpFailure(f"subproblem solve returned {solution.status}",
                             iteration, log, solution.status)

        if small_step and residual <= EPS_FEASIBLE and \
                adapter.relaxation_gap(reference) <= RELAXATION_TOL:
            return ScpOutcome(converged=True, iterations=iteration,
                              reference=reference, log=log)

    return ScpOutcome(converged=False, iterations=settings.max_iter,
                      reference=reference, log=log)
