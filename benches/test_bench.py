"""Microbenchmarks of the planning layers at the paper grid N=100.

Run from the repository root (outside tier-1, whose testpaths is tests/),
with the ``bench`` extra (pytest-benchmark) installed:

    PYTHONPATH=src python -m pytest benches --benchmark-json BENCH_19.json

The coast case makes the nominal ignition-fit boundary (the planner tests'
initial state): the 16 s ``propagate_coast`` and ``fit_coast_polynomial``.
The fixture is the first SCP subproblem of the plan from that state: one
``PlanningProblem.build``, one IPM solve of it, and one factorization of
the IPM's first KKT matrix, by SuperLU at its defaults and by the IPM's own
quasi-definite factorization. The natural-order refactorization of that
matrix, as every later IPM iteration factors it, is timed at N=100 and on
the first N=30 subproblem.
The warm case solves the plan's third subproblem as ``run_scp`` does: at
``scp.INEXACT_TOL``, from the second subproblem's solution at that
tolerance. (The second subproblem has one load row fewer than the first, so
the first solution is no start for it.) The re-solve case solves that
subproblem again at the default tolerance, from its own inexact solution,
as ``run_scp`` does once a step is small.
The cone-algebra cases time one IPM iteration's cone work at the eighth
iterate of the cold solve of the first subproblem (15 and 16 iterations at
N=30 and N=100): the interior test of s and z, the NT scaling, three pairs
of step lengths along the step that iteration takes, and the cone rows of
the predictor's right-hand side, W (lambda \\ lambda o lambda).
The whole-plan cases time ``run_scp`` to convergence from the initial
guess: ignition-fit from that state at N=30 and N=100, and current-state
from the mid-course state of the replan tests at N=100.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlv_landing.conic import NONNEG, ipm
from rlv_landing.params import PlanningConfig, VehicleParams
from rlv_landing.planner import (PlanningBoundary, PlanningProblem,
                                 fit_coast_polynomial, initial_guess_planning,
                                 propagate_coast)
from rlv_landing import scp
from rlv_landing.scp import ScpSettings, run_scp

VP = VehicleParams()
R0 = np.array([-700.0, -700.0, -6000.0])
V0 = np.array([58.8, 58.8, 391.0])
R_MID = np.array([-300.0, -250.0, -3500.0])   # the replan tests' mid-course state
V_MID = np.array([40.0, 35.0, 230.0])
M_MID = 33000.0


def ignition_fit(N):
    cfg = PlanningConfig(N=N)
    coast = propagate_coast(R0, V0, VP.m0, VP, horizon=16.0, step=cfg.coast_step)
    boundary = PlanningBoundary(mode="ignition-fit", m0=VP.m0,
                                coast_fit=fit_coast_polynomial(coast, cfg.tc_window))
    return boundary, cfg


def current_state(N):
    boundary = PlanningBoundary(mode="current-state", m0=M_MID,
                                r_now=R_MID, v_now=V_MID)
    return boundary, PlanningConfig(N=N)


def test_coast(benchmark):
    boundary, _ = benchmark(ignition_fit, 100)
    benchmark.extra_info["max_residual_r"] = \
        boundary.coast_fit.max_residual_r


def first_subproblem(N):
    boundary, cfg = ignition_fit(N)
    prob = PlanningProblem(boundary, VP, cfg)
    ref = initial_guess_planning(boundary, cfg, VP)
    return prob, ref, prob.build(ref)


@pytest.fixture(scope="module")
def subproblem():
    return first_subproblem(100)


def first_kkt(prog, reg=ipm.REG) -> sp.csc_matrix:
    """The IPM's first KKT matrix (W = I): -(W^2 + reg I) stored as the IPM
    stores it, dense on each SOC block (explicit zeros off the diagonal)."""
    n, me = prog.n, prog.A.shape[0]
    top = sp.bmat([[prog.P + reg * sp.eye(n), prog.A.T, prog.G.T],
                   [prog.A, -reg * sp.eye(me), None]], format="coo")
    G = prog.G.tocoo()
    rows, cols = [top.row, G.row + n + me], [top.col, G.col]
    vals = [top.data, G.data]
    start = n + me
    for cb in prog.cones:
        idx = np.arange(start, start + cb.dim)
        start += cb.dim
        r, c = (idx, idx) if cb.kind == NONNEG else \
            (np.repeat(idx, cb.dim), np.tile(idx, cb.dim))
        rows.append(r)
        cols.append(c)
        vals.append(np.where(r == c, -(1.0 + reg), 0.0))
    return sp.csc_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(start, start))


def test_build_n100(benchmark, subproblem):
    prob, ref, _ = subproblem
    benchmark(prob.build, ref)


def test_ipm_solve_n100(benchmark, subproblem):
    sol = benchmark(ipm.solve, subproblem[2])
    assert sol.status == "optimal"


@pytest.fixture(scope="module")
def third_subproblem(subproblem):
    """The nominal plan's third subproblem, with the second one's solution
    at ``scp.INEXACT_TOL`` as its start, as ``run_scp`` solves it."""
    prob, ref, prog = subproblem
    inexact = scp.INEXACT_TOL
    for _ in range(2):
        start = ipm.solve(prog, inexact)
        ref = prob.decode(ref, start.x)
        prog = prob.build(ref)
        prog.start = start
    return prog, inexact


def test_ipm_solve_warm_n100(benchmark, third_subproblem):
    prog, inexact = third_subproblem
    sol = benchmark(ipm.solve, prog, inexact)
    assert sol.status == "optimal" and sol.warm
    benchmark.extra_info["ipm_iters"] = sol.iterations
    benchmark.extra_info["cold_ipm_iters"] = \
        ipm.solve(replace(prog, start=None), inexact).iterations


def test_ipm_resolve_n100(benchmark, third_subproblem):
    """The full-tolerance re-solve of a small step: the third subproblem at
    the default 1e-8, from its own solution at ``scp.INEXACT_TOL``."""
    prog = replace(third_subproblem[0])   # a copy that owns its start
    prog.start = ipm.solve(prog, third_subproblem[1])
    sol = benchmark(ipm.solve, prog)
    assert sol.status == "optimal" and sol.warm
    benchmark.extra_info["ipm_iters"] = sol.iterations
    benchmark.extra_info["resumed"] = sol.resumed


def test_kkt_factor_default_n100(benchmark, subproblem):
    K = first_kkt(subproblem[2])
    lu = benchmark(spla.splu, K)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def test_kkt_factor_quasidefinite_n100(benchmark, subproblem):
    K = first_kkt(subproblem[2])
    lu = benchmark(ipm.factor_quasidefinite, K)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def refactor_natural(benchmark, prog):
    """A later IPM iteration: the matrix already permuted by the first
    factorization's ordering, factored in natural order."""
    factor = ipm.factor_quasidefinite
    K = first_kkt(prog)
    order = np.argsort(factor(K).perm_c)
    lu = benchmark(factor, K[order][:, order].tocsc(), natural=True)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def test_kkt_refactor_natural_n100(benchmark, subproblem):
    refactor_natural(benchmark, subproblem[2])


def test_kkt_refactor_natural_n30(benchmark):
    refactor_natural(benchmark, first_subproblem(30)[2])


def mid_solve(prog, k=8):
    """The cold solve's iterate (s, z) after k - 1 IPM iterations, and the
    step (ds, dz) its k-th iteration takes."""
    points = []
    for iterations in (k - 1, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ipm, "MAX_ITER", iterations)
            sol = ipm.solve(prog)
        points.append((sol.s, sol.z))
    (s, z), (s1, z1) = points
    return prog.layout, s, z, s1 - s, z1 - z


def cone_pass(cones, s, z, ds, dz):
    """One IPM iteration's cone work, as the IPM does it."""
    iterate = cones.points(s, z)
    iterate.violations()
    scaling = ipm._NTScaling(iterate)
    lam = scaling.lam.u[0]
    for _ in range(3):
        iterate.max_steps(ds, dz)
    return scaling.rhs(cones.product(lam, lam))


def cone_algebra(benchmark, prog):
    args = mid_solve(prog)
    rhs = benchmark(cone_pass, *args)
    # The same bits in every tree that keeps them.
    benchmark.extra_info["rhs_sha256"] = hashlib.sha256(rhs.tobytes()).hexdigest()[:16]


def test_cone_algebra_n30(benchmark):
    cone_algebra(benchmark, first_subproblem(30)[2])


def test_cone_algebra_n100(benchmark, subproblem):
    cone_algebra(benchmark, subproblem[2])


@pytest.mark.parametrize("boundary_at, N", [(ignition_fit, 30),
                                            (ignition_fit, 100),
                                            (current_state, 100)],
                         ids=["ignition-n30", "ignition-n100", "replan-n100"])
def test_plan(benchmark, boundary_at, N):
    """A whole plan: run_scp from the initial guess to convergence."""
    boundary, cfg = boundary_at(N)
    prob = PlanningProblem(boundary, VP, cfg)
    ref0 = initial_guess_planning(boundary, cfg, VP)
    settings = ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr)
    out = benchmark.pedantic(run_scp, args=(prob, ref0, settings),
                             rounds=10, iterations=1)
    assert out.converged
    benchmark.extra_info["scp_iters"] = out.iterations
    benchmark.extra_info["ipm_iters"] = sum(rec.solver_iterations
                                            for rec in out.log)
