"""Microbenchmarks of the planning layers at the paper grid N=100.

Run from the repository root (outside tier-1, whose testpaths is tests/):

    PYTHONPATH=src python -m pytest benches --benchmark-json BENCH_4.json

The fixture is the first SCP subproblem of the nominal ignition-fit plan
(the planner tests' initial state): one ``PlanningProblem.build``, one IPM
solve of it, and one factorization of the IPM's first KKT matrix, by
SuperLU at its defaults and by the IPM's own quasi-definite factorization.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlv_landing.conic import NONNEG, SolverSettings, ipm
from rlv_landing.params import PlanningConfig, VehicleParams
from rlv_landing.planner import (PlanningBoundary, PlanningProblem,
                                 fit_coast_polynomial, initial_guess_planning,
                                 propagate_coast)

VP = VehicleParams()
R0 = np.array([-700.0, -700.0, -6000.0])
V0 = np.array([58.8, 58.8, 391.0])


@pytest.fixture(scope="module")
def subproblem():
    cfg = PlanningConfig(N=100)
    coast = propagate_coast(R0, V0, VP.m0, VP, horizon=16.0, step=cfg.coast_step)
    boundary = PlanningBoundary(mode="ignition-fit", m0=VP.m0,
                                coast_fit=fit_coast_polynomial(coast, cfg.tc_window))
    prob = PlanningProblem(boundary, VP, cfg)
    ref = initial_guess_planning(boundary, cfg, VP)
    return prob, ref, prob.build(ref)


def first_kkt(prog, reg=SolverSettings().reg) -> sp.csc_matrix:
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


def test_kkt_factor_default_n100(benchmark, subproblem):
    K = first_kkt(subproblem[2])
    lu = benchmark(spla.splu, K)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def test_kkt_factor_quasidefinite_n100(benchmark, subproblem):
    factor = getattr(ipm, "factor_quasidefinite", None)
    if factor is None:
        pytest.skip("no quasi-definite factorization in this tree")
    K = first_kkt(subproblem[2])
    lu = benchmark(factor, K)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def test_kkt_refactor_natural_n100(benchmark, subproblem):
    """A later IPM iteration: the matrix already permuted by the first
    factorization's ordering, factored in natural order."""
    factor = getattr(ipm, "factor_quasidefinite", None)
    if factor is None:
        pytest.skip("no quasi-definite factorization in this tree")
    K = first_kkt(subproblem[2])
    order = np.argsort(factor(K).perm_c)
    lu = benchmark(factor, K[order][:, order].tocsc(), natural=True)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)
