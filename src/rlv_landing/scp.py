"""Sequential convex programming loop shared by the planner and tracker.

Each iteration linearizes about the current reference, builds a scaled convex
subproblem, solves it, and measures the soft trust-region cost J_tr (the
weighted squared deviation of the solution from the reference, in scaled
variables). The solution becomes the next reference, and the program built
about it is the next iteration's subproblem. Convergence means a fixed point
of the linearization: J_tr is below its threshold and the new reference
satisfies the rows of the program built about it (equality residual, orthant
and cone violation) within tolerance. A small step alone is not enough: the
linearization error of the last step is left in the rows. When only that
residual is left, Gauss-Newton projections of the reference onto the rebuilt
rows close the O(step^2) gap; the projected reference is accepted only if
the program built about it passes the same test.

Each subproblem is first solved inexactly, at tolerances of INEXACT_TOL,
from the previous subproblem's solution: far from the fixed point a step
needs only to be good enough to linearize about. A step whose J_tr passes
the step test is solved again at the caller's tolerances, and J_tr and the
next reference come from that re-solve. The re-solve resumes the inexact
solve's own iterate: the program is the same object, so the IPM keeps that
solution's slacks and multipliers as they are, where a start from the
previous subproblem is moved into the cones first, and a subproblem whose
KKT pattern is the previous one's reuses its ordering. So a converged plan
is a full-tolerance subproblem solution that passes the fixed-point test; a
re-solved step that fails the step test costs one more SCP iteration and
converges nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Protocol

import numpy as np
import scipy.sparse as sp

from .conic import (NONNEG, ConicProgram, SolverSettings, SolverSolution,
                    cone_violation, factor_quasidefinite, solve)


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
# IPM tolerance (tol_feas and tol_gap) of a subproblem solve before its step
# is small; the caller's tolerances apply from the step test on.
INEXACT_TOL = 1e-4
# J_tr growth, on two consecutive iterations, that aborts the loop.
DIVERGENCE_FACTOR = 10.0


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
    #                              (of the projection, if it was accepted;
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

    @property
    def total_millis(self) -> float:
        return sum(rec.millis for rec in self.log)


class ScpFailure(RuntimeError):
    """Subproblem solve failed or the iteration diverged."""

    def __init__(self, message: str, iteration: int,
                 log: list[ScpIterationRecord], status: str):
        super().__init__(f"SCP iteration {iteration}: {message}")
        self.iteration = iteration
        self.log = log
        self.status = status


class SubproblemAdapter(Protocol):
    """What the SCP loop needs from a problem family.

    ``projection_program`` gives the rows the Gauss-Newton projection uses:
    ``build``'s rows, or rows that also carry a dependence on the reference
    that ``build`` leaves out.
    """

    def build(self, reference: Any) -> ConicProgram: ...

    def projection_program(self, reference: Any) -> ConicProgram: ...

    def reference_vector(self, reference: Any) -> np.ndarray: ...

    def decode(self, reference: Any, x_scaled: np.ndarray) -> Any: ...


def trust_region_cost(Z: np.ndarray, Z_ref: np.ndarray,
                      W_tr: float | np.ndarray) -> float:
    """Soft trust-region cost sum_k dZ_k' W dZ_k for stacked node variables."""
    dZ = np.asarray(Z, float) - np.asarray(Z_ref, float)
    if np.isscalar(W_tr):
        return float(W_tr) * float(dZ.ravel() @ dZ.ravel())
    dZ = np.atleast_2d(dZ)
    return float(np.einsum("ki,ij,kj->", dZ, np.asarray(W_tr, float), dZ))


def add_trust_region(program: ConicProgram, x_ref_scaled: np.ndarray,
                     weight: float) -> None:
    """Fold J_tr = weight * ||x - x_ref||^2 into the (scaled) objective."""
    n = program.n
    quad = 2.0 * weight * sp.eye(n, format="csc")
    program.P = quad if program.P is None else (program.P + quad).tocsc()
    program.c = np.asarray(program.c, float) - 2.0 * weight * x_ref_scaled
    program.obj_offset += weight * float(x_ref_scaled @ x_ref_scaled)


def fixed_point_residual(program: ConicProgram, x: np.ndarray) -> float:
    """Largest violation of the program's rows at x: the equality residual
    and the distance of h - G x outside its cones."""
    residual = 0.0
    if program.A is not None:
        residual = float(np.abs(program.A @ x - program.b).max(initial=0.0))
    if program.G is not None:
        residual = max(residual,
                       cone_violation(program, program.h - program.G @ x))
    return residual


def project_onto_rows(program: ConicProgram, x: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step from x onto the program's rows.

    The step is the least-norm dx that zeroes the equality residual, moves
    violated orthant rows and SOC blocks onto their bounds and holds those
    within ACTIVE_TOL of their bounds at their value, all to first order;
    an SOC block enters through g = ||s_1|| - s_0 with s = h - G x. It
    solves the quasi-definite KKT system [[I, J'], [J, -1e-10 I]]; the
    regularization admits dependent rows.
    """
    rows, residual = [], []
    if program.A is not None:
        rows.append(sp.csr_matrix(program.A))
        residual.append(program.A @ x - program.b)
    if program.G is not None:
        s = program.h - program.G @ x
        w_row, w_col, w_val, g = [], [], [], []
        start = 0
        for cb in program.cones:
            block = np.arange(start, start + cb.dim)
            start += cb.dim
            if cb.kind == NONNEG:
                near = block[s[block] < ACTIVE_TOL]
                w_row.extend(len(g) + np.arange(near.size))
                w_col.extend(near)
                w_val.extend(np.ones(near.size))
                g.extend(-s[near])
                continue
            norm = float(np.linalg.norm(s[block[1:]]))
            if norm > 0.0 and norm - s[block[0]] > -ACTIVE_TOL:
                w_row.extend([len(g)] * cb.dim)
                w_col.extend(block)
                w_val.extend(np.concatenate([[1.0], -s[block[1:]] / norm]))
                g.append(norm - s[block[0]])
        W = sp.csr_matrix((w_val, (w_row, w_col)), shape=(len(g), s.size))
        rows.append(W @ program.G)
        residual.append(np.maximum(g, 0.0))
    J = sp.vstack(rows, format="csc")
    m = J.shape[0]
    K = sp.bmat([[sp.eye(x.size), J.T], [J, -1e-10 * sp.eye(m)]],
                format="csc")
    rhs = np.concatenate([np.zeros(x.size), -np.concatenate(residual)])
    return x + factor_quasidefinite(K).solve(rhs)[:x.size]


def _project(adapter: SubproblemAdapter,
             reference: Any) -> tuple[Any, float] | None:
    """Gauss-Newton projections of the reference onto the adapter's
    projection rows rebuilt about it; the first projected reference whose
    fixed-point residual (of ``build``, as everywhere in the loop) is within
    EPS_FEASIBLE, with that residual, or None."""
    for _ in range(PROJECTION_STEPS):
        x = project_onto_rows(adapter.projection_program(reference),
                              adapter.reference_vector(reference))
        reference = adapter.decode(reference, x)
        residual = fixed_point_residual(adapter.build(reference),
                                        adapter.reference_vector(reference))
        if residual <= EPS_FEASIBLE:
            return reference, residual
    return None


def run_scp(adapter: SubproblemAdapter, initial_reference: Any,
            settings: ScpSettings,
            solver_settings: SolverSettings = SolverSettings(),
            solve_fn: Callable[..., SolverSolution] = solve) -> ScpOutcome:
    """Iterate build/solve/update until the reference is a fixed point.

    Converged means J_tr < eps_converge, from a solve at ``solver_settings``,
    and a fixed-point residual (of the reference, or of its projection onto
    the rebuilt rows) at most EPS_FEASIBLE. Raises ScpFailure when a
    subproblem is not solved to optimality or when J_tr grows by
    DIVERGENCE_FACTOR on consecutive iterations.
    """
    reference = initial_reference
    log: list[ScpIterationRecord] = []
    prev_jtr = None
    growth_count = 0
    inexact = replace(solver_settings,
                      tol_feas=max(solver_settings.tol_feas, INEXACT_TOL),
                      tol_gap=max(solver_settings.tol_gap, INEXACT_TOL))
    solution = None
    t0 = time.perf_counter()
    program = adapter.build(reference)

    for iteration in range(1, settings.max_iter + 1):
        x_ref = adapter.reference_vector(reference)
        program.start = solution
        solution = solve_fn(program, inexact)
        solver_iterations, resolved = solution.iterations, False
        if solution.optimal and inexact != solver_settings and \
                trust_region_cost(solution.x, x_ref, settings.W_tr) \
                < settings.eps_converge:
            program.start = solution
            solution = solve_fn(program, solver_settings)
            solver_iterations += solution.iterations
            resolved = True
        if solution.status != "optimal":
            millis = (time.perf_counter() - t0) * 1e3
            log.append(ScpIterationRecord(iteration, float("nan"),
                                          solution.objective, solution.status,
                                          solver_iterations, millis,
                                          float("nan"), False, resolved))
            raise ScpFailure(f"subproblem solve returned {solution.status}",
                             iteration, log, solution.status)

        j_tr = trust_region_cost(solution.x, x_ref, settings.W_tr)
        reference = adapter.decode(reference, solution.x)
        small_step = j_tr < settings.eps_converge
        residual, projected = float("nan"), False
        # The program about the new reference is the next subproblem and the
        # one the fixed-point test reads; after the last iteration only the
        # test needs it, and only after a small step.
        if small_step or iteration < settings.max_iter:
            program = adapter.build(reference)
            residual = fixed_point_residual(
                program, adapter.reference_vector(reference))
            projected = small_step and residual > EPS_FEASIBLE
            if projected:
                found = _project(adapter, reference)
                if found is not None:
                    reference, residual = found
        t1 = time.perf_counter()
        log.append(ScpIterationRecord(iteration, j_tr, solution.objective,
                                      solution.status, solver_iterations,
                                      (t1 - t0) * 1e3, residual, projected,
                                      resolved))
        t0 = t1

        if small_step and residual <= EPS_FEASIBLE:
            return ScpOutcome(converged=True, iterations=iteration,
                              reference=reference, log=log)

        if prev_jtr is not None and j_tr > DIVERGENCE_FACTOR * prev_jtr:
            growth_count += 1
            if growth_count >= 2:
                raise ScpFailure("trust-region cost diverging", iteration,
                                 log, "numerical_failure")
        else:
            growth_count = 0
        prev_jtr = j_tr

    return ScpOutcome(converged=False, iterations=settings.max_iter,
                      reference=reference, log=log)
