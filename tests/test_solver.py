"""Conic solver tests: hand fixtures, the active-set enumeration oracle,
scaling equivalence, KKT residuals (``helpers.verify_kkt``) and
determinism.
"""

import ctypes
import gc
import itertools
import math
import os
import re
import shlex
import sysconfig
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rlv_landing.conic import (
    Cones,
    ConicProgram,
    make_scaling,
    scale_program,
    solve,
)
from rlv_landing.conic import ipm, ldl
from rlv_landing.conic.cones import ConePoints
from rlv_landing.conic.scaling import RowPattern, equilibrate_rows

from helpers import (MULTI_BLOCK_CONES, NTScaling, clip_eigenvalues,
                     cone_blocks, cone_product, factor, flat_arrays,
                     ipm_session, kkt_direction, kkt_solve, ldl_solve,
                     max_steps, nt_apply, numpy_clip_eigenvalues,
                     numpy_direction, numpy_kkt_solve, numpy_max_steps,
                     numpy_points, numpy_product, numpy_residuals,
                     numpy_scaled_product, python_cold_start,
                     python_corrector, python_predictor, python_step,
                     same_bits,
                     scaled_product, splu_calls, superlu, symmetric,
                     kkt_matrix, tree_walking_ldl, unique_pattern,
                     verify_kkt, w2_entries)


def lp(c, G, h, A=None, b=None):
    prog = ConicProgram(c=np.asarray(c, float))
    if G is not None:
        G = sp.csr_matrix(np.atleast_2d(np.asarray(G, float)))
        prog.G = G
        prog.h = np.asarray(h, float)
        prog.cones = Cones(G.shape[0])
    if A is not None:
        prog.A = sp.csr_matrix(np.atleast_2d(np.asarray(A, float)))
        prog.b = np.asarray(b, float)
    return prog


def active_set_qp_oracle(P, q, G, h, A=None, b=None):
    """Global QP minimum by enumerating active sets of inequality constraints.

    Requires P positive definite. For every subset S of inequalities, solve
    the equality-constrained QP with S tight; the feasible candidate with the
    lowest objective is the optimum.
    """
    n = q.size
    m = G.shape[0]
    A = np.zeros((0, n)) if A is None else np.atleast_2d(A)
    b = np.zeros(0) if b is None else np.atleast_1d(b)
    best_x, best_obj = None, np.inf
    for r in range(m + 1):
        for S in itertools.combinations(range(m), r):
            Aeq = np.vstack([A, G[list(S)]])
            beq = np.concatenate([b, h[list(S)]])
            k = Aeq.shape[0]
            KKT = np.block([[P, Aeq.T], [Aeq, np.zeros((k, k))]])
            rhs = np.concatenate([-q, beq])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if np.any(G @ x > h + 1e-9):
                continue
            if A.shape[0] and np.any(np.abs(A @ x - b) > 1e-9):
                continue
            obj = 0.5 * x @ P @ x + q @ x
            if obj < best_obj - 1e-12:
                best_obj, best_x = obj, x
    return best_x, best_obj


def random_feasible_qp(rng, n=None, m=None, with_eq=False):
    n = n or rng.integers(2, 7)
    m = m or rng.integers(1, 9)
    M = rng.normal(size=(n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    h = G @ x0 + rng.uniform(0.1, 1.5, size=m)
    A = b = None
    if with_eq:
        A = rng.normal(size=(1, n))
        b = A @ x0
    return P, q, G, h, A, b


def interior_point(rng, cones, margin=(0.1, 1.5)):
    """A point strictly inside the cones of the layout ``cones``."""
    parts = [rng.uniform(*margin, size=cones.n_nn)]
    for _ in range(cones.n_soc):
        u = rng.normal(size=cones.d - 1)
        parts.append(np.concatenate([[np.linalg.norm(u) + rng.uniform(*margin)], u]))
    return np.concatenate(parts)


def random_feasible_conic(rng, n, me, cones, rank):
    """A conic program with strictly feasible primal and dual points, so
    that an optimum exists; P = M M' with M of the given rank (all zeros
    at 0)."""
    mi = cones.dim
    G = rng.normal(size=(mi, n))
    A = rng.normal(size=(me, n))
    x0, s0 = rng.normal(size=n), interior_point(rng, cones)
    h, b = G @ x0 + s0, A @ x0
    scale = max(1.0, np.abs(h).max(), np.abs(b).max(initial=0.0))
    M = rng.normal(size=(n, rank))
    P = M @ M.T if rank else None
    z0, y0 = interior_point(rng, cones), rng.normal(size=me)
    c = -(G.T @ z0 + A.T @ y0 + (P @ rng.normal(size=n) if rank else 0.0))
    prog = ConicProgram(c=c / max(1.0, np.abs(c).max()), G=sp.csr_matrix(G),
                        h=h / scale, cones=cones,
                        P=sp.csr_matrix(P if rank else (n, n)))
    if me:
        prog.A, prog.b = sp.csr_matrix(A), b / scale
    return prog


class TestHandFixtures:
    def test_1d_lp(self):
        # min x s.t. x >= 1
        sol = solve(lp([1.0], [[-1.0]], [-1.0]))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_soc_norm(self):
        # min z s.t. ||(x, y)|| <= z, x = 3, y = 4  ->  z = 5
        prog = ConicProgram(
            c=np.array([0.0, 0.0, 1.0]),
            A=sp.csr_matrix(np.array([[1.0, 0, 0], [0, 1.0, 0]])),
            b=np.array([3.0, 4.0]),
            G=sp.csr_matrix(-np.eye(3)[[2, 0, 1]]),
            h=np.zeros(3),
            cones=Cones(0, 1, 3),
        )
        sol = solve(prog)
        assert sol.optimal
        assert sol.x[2] == pytest.approx(5.0, abs=1e-8)

    def test_soc_projection(self):
        # Closest point in the cone ||u|| <= t to (t0, u0) outside it.
        # minimize (t - 2)^2 + ||u - (4, 0)||^2 s.t. (t, u) in SOC
        P = sp.csr_matrix(2 * np.eye(3))
        c = -2 * np.array([2.0, 4.0, 0.0])
        prog = ConicProgram(c=c, P=P, G=sp.csr_matrix(-np.eye(3)), h=np.zeros(3),
                            cones=Cones(0, 1, 3), obj_offset=4.0 + 16.0)
        sol = solve(prog)
        assert sol.optimal
        # Analytic projection onto the 45-degree cone: ((2+4)/2, (2+4)/2, 0)
        np.testing.assert_allclose(sol.x, [3.0, 3.0, 0.0], atol=1e-7)

    def test_lp_with_equalities(self):
        # min -x - y s.t. x + y + z_slack... use: x,y >= 0, x + 2y = 4, x <= 3
        prog = lp([-1.0, -1.0],
                  [[-1, 0], [0, -1], [1, 0]], [0.0, 0.0, 3.0],
                  A=[[1.0, 2.0]], b=[4.0])
        sol = solve(prog)
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [3.0, 0.5], atol=1e-7)

    def test_infeasible_lp(self):
        # x >= 1 and x <= 0 cannot both hold. The verdict is a stall's,
        # farther from feasibility than FAR_FROM_FEASIBLE.
        sol = solve(lp([1.0], [[-1.0], [1.0]], [-1.0, 0.0]))
        assert sol.status == "infeasible"
        assert sol.primal_res > ipm.FAR_FROM_FEASIBLE

    @pytest.mark.parametrize("delta, tol, status, primal_res", [
        (1e-3, 1e-4, "infeasible", 5e-4),
        (1e-5, 1e-8, "numerical_failure", 5e-6),
    ])
    def test_growth_window_verdict(self, delta, tol, status, primal_res):
        # x >= delta and x <= 0: the iterates stop improving and the growth
        # window gives the verdict. A stall farther from feasibility than
        # FAR_FROM_FEASIBLE, an absolute residual, is infeasible at any
        # tolerance; one nearer is a numerical failure.
        prog = lp([1.0], [[-1.0], [1.0]], [-delta, 0.0])
        sol = solve(prog, tol)
        assert sol.status == status
        assert sol.primal_res == pytest.approx(primal_res, rel=0.1)

    def test_hard_stall_far_from_feasibility_is_infeasible(self):
        # min x^2 / 2 s.t. x >= 1 and x <= 0: three short steps that do not
        # lower mu end the solve (the hard stall) before the growth window
        # fills. Either exit labels a stall by its distance to
        # feasibility.
        prog = lp([0.0], [[-1.0], [1.0]], [-1.0, 0.0])
        prog.P = sp.csr_matrix([[1.0]])
        sol = solve(prog)
        assert sol.iterations < ipm.INFEAS_WINDOW
        assert sol.status == "infeasible"
        assert sol.primal_res == pytest.approx(0.5, rel=0.1)

    def test_unbounded_lp(self):
        sol = solve(lp([-1.0], [[-1.0]], [0.0]))
        assert sol.status != "optimal"

    def test_mixed_cones(self):
        # min -t + x s.t. ||(a,b)|| <= t, t <= 2, x >= 1, a = 1, b = 1
        prog = ConicProgram(
            c=np.array([0.0, 0.0, -1.0, 1.0]),   # vars (a, b, t, x)
            A=sp.csr_matrix(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])),
            b=np.array([1.0, 1.0]),
            G=sp.csr_matrix(np.array([
                [0, 0, 1.0, 0],     # t <= 2
                [0, 0, 0, -1.0],    # x >= 1
                [0, 0, -1.0, 0],    # SOC rows: (t, a, b)
                [-1.0, 0, 0, 0],
                [0, -1.0, 0, 0],
            ])),
            h=np.array([2.0, -1.0, 0.0, 0.0, 0.0]),
            cones=Cones(2, 1, 3),
        )
        sol = solve(prog)
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [1.0, 1.0, 2.0, 1.0], atol=1e-7)


def test_solve_robust_is_one_solve(monkeypatch):
    # The name planbench calls: one call of ipm.solve, through the module,
    # and its result as it is.
    calls = []
    result = object()

    def counted(program, tol):
        calls.append((program, tol))
        return result

    monkeypatch.setattr(ipm, "solve", counted)
    prog = lp([1.0], [[-1.0]], [-2.0])
    assert ipm.solve_robust(prog, 1e-4) is result
    assert calls == [(prog, 1e-4)]


@pytest.mark.parametrize("make, message", [
    (lambda: ConicProgram(c=np.zeros(2), A=sp.csr_matrix((1, 3)),
                          b=np.zeros(1)), "equality block"),
    (lambda: ConicProgram(c=np.zeros(2), G=sp.csr_matrix((1, 2)),
                          h=np.zeros(2), cones=Cones(1)),
     "inequality block"),
    (lambda: ConicProgram(c=np.zeros(2), G=sp.csr_matrix((2, 2)),
                          h=np.zeros(2), cones=Cones(1)),
     "cone dimensions"),
    (lambda: ConicProgram(c=np.zeros(2), P=sp.csr_matrix((2, 3))),
     "quadratic term"),
    (lambda: ConicProgram(c=np.zeros(2), P=sp.csr_matrix(np.eye(2)),
                          A=sp.csr_matrix([[1.0, 1.0]]), b=np.ones(1)),
     "no cone rows"),
    (lambda: Cones(-1, 1, 3),
     "n_nn must be an integer of at least 0, not -1"),
    (lambda: Cones(2, 1, 1), "d must be an integer of at least 2, not 1"),
    (lambda: Cones(2.0), r"n_nn must be an integer of at least 0, not 2\.0"),
    (lambda: Cones(0, True),
     "n_soc must be an integer of at least 0, not True"),
    (lambda: ConicProgram(c=np.zeros(2), G=sp.csr_matrix((1, 2)),
                          h=np.zeros(1), cones=[("nonneg", 1)]),
     "cones must be a Cones"),
    (lambda: ConicProgram(c=np.zeros(2), G=sp.csr_matrix((1, 2)),
                          h=np.zeros(1), cones=Cones(1),
                          stage=np.zeros(3)), "one entry per variable"),
], ids=["equality", "inequality", "cones", "quadratic", "cone-free",
        "nonneg-dim", "soc-dim", "float-dim", "bool-dim", "block-list",
        "stage"])
def test_inconsistent_program_raises(make, message):
    # A cone layout is checked when made; a program, its type of layout
    # too, when solved.
    with pytest.raises(ValueError, match=message):
        solve(make())


@pytest.mark.parametrize("where, value", [
    ("G", math.nan), ("P", math.nan), ("A", math.nan), ("h", math.nan),
    ("c", math.inf), ("G", math.inf)])
def test_non_finite_data_is_a_numerical_failure(where, value):
    # A non-finite entry in the data ends the solve at its first iteration
    # with a verdict, not an exception: a NaN in P, A or G makes the cold
    # start's factorization fail.
    data = dict(G=np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]),
                h=np.array([0.0, 0.0, -1.0]), c=np.array([1.0, 2.0]),
                A=np.array([[1.0, -1.0]]), P=np.zeros((2, 2)))
    data[where].flat[0] = value
    prog = ConicProgram(c=data["c"], P=sp.csr_matrix(data["P"]),
                        A=sp.csr_matrix(data["A"]), b=np.zeros(1),
                        G=sp.csr_matrix(data["G"]), h=data["h"],
                        cones=Cones(3))
    sol = solve(prog)
    assert (sol.status, sol.iterations) == ("numerical_failure", 1)


class TestOracleAgreement:
    def test_random_qps_match_active_set_oracle(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(40):
            P, q, G, h, A, b = random_feasible_qp(rng, with_eq=bool(rng.integers(2)))
            x_ref, obj_ref = active_set_qp_oracle(P, q, G, h, A, b)
            if x_ref is None:
                continue
            prog = ConicProgram(
                c=q, P=sp.csr_matrix(P), G=sp.csr_matrix(G), h=h,
                cones=Cones(G.shape[0]))
            if A is not None:
                prog.A = sp.csr_matrix(A)
                prog.b = np.atleast_1d(b)
            sol = solve(prog)
            assert sol.optimal, f"solver failed on oracle case: {sol.status}"
            np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)
            assert sol.objective == pytest.approx(obj_ref, abs=1e-6)
            checked += 1
        assert checked >= 30


class TestSolutionQuality:
    def test_kkt_report_on_soc_fixture(self):
        prog = ConicProgram(
            c=np.array([0.0, 0.0, 1.0]),
            A=sp.csr_matrix(np.array([[1.0, 0, 0], [0, 1.0, 0]])),
            b=np.array([3.0, 4.0]),
            G=sp.csr_matrix(-np.eye(3)[[2, 0, 1]]),
            h=np.zeros(3),
            cones=Cones(0, 1, 3),
        )
        sol = solve(prog)
        report = verify_kkt(prog, sol)
        assert report.worst < 1e-8

    def test_perturbed_solution_flagged(self):
        prog = lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0])
        sol = solve(prog)
        assert verify_kkt(prog, sol).worst < 1e-8
        sol.x = sol.x + np.array([1e-3, 0.0])
        sol.s = None  # force slack recomputation
        report = verify_kkt(prog, sol)
        assert report.primal_cone >= 1e-4 or report.complementarity >= 1e-4

    def test_soc_membership_slack(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            d = rng.normal(size=2)
            prog = ConicProgram(
                c=np.array([0.0, 0.0, 1.0]),
                A=sp.csr_matrix(np.array([[1.0, 0, 0], [0, 1.0, 0]])),
                b=d,
                G=sp.csr_matrix(-np.eye(3)[[2, 0, 1]]),
                h=np.zeros(3),
                cones=Cones(0, 1, 3),
            )
            sol = solve(prog)
            assert sol.optimal
            primal_cone = np.array([sol.x[2], sol.x[0], sol.x[1]])
            viol = np.linalg.norm(primal_cone[1:]) - primal_cone[0]
            assert viol <= 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(5)
        P, q, G, h, A, b = random_feasible_qp(rng, n=5, m=6, with_eq=True)
        prog = ConicProgram(c=q, P=sp.csr_matrix(P), G=sp.csr_matrix(G), h=h,
                            cones=Cones(G.shape[0]),
                            A=sp.csr_matrix(A), b=np.atleast_1d(b))
        sol1 = solve(prog)
        sol2 = solve(prog)
        assert sol1.x.tobytes() == sol2.x.tobytes()
        assert sol1.iterations == sol2.iterations


MIXED_CONES = Cones(5, 3, 3)


def cone_layouts(n_nn=st.integers(0, 8), n_soc=st.integers(0, 3)):
    """Layouts of at least one row: n_nn orthant rows, then n_soc SOC
    blocks of dimension 2 to 5."""
    return st.builds(Cones, n_nn, n_soc, st.integers(2, 5)).filter(
        lambda cones: cones.dim)


CONE_LAYOUTS = cone_layouts()
# Mixed layouts, orthant-only and SOC-only ones.
LAYOUTS = st.one_of(CONE_LAYOUTS, cone_layouts(n_soc=st.just(0)),
                    cone_layouts(n_nn=st.just(0)))


class TestQuasiDefiniteKkt:
    """The IPM's KKT matrix, held by its session: refilled in place in a
    pattern permuted by the stage ordering of a fresh analysis, or by a
    reused analysis, factored without pivoting and solved in that
    ordering."""

    @staticmethod
    def fresh(prog, scaling, reg):
        """The KKT matrix assembled afresh, the -(W^2 + reg I) block from
        W applied twice to unit vectors."""
        n, me, mi = prog.n, prog.A.shape[0], prog.G.shape[0]

        def apply(u):
            return nt_apply(scaling.cones, scaling.w_nn, scaling.soc_mats, u)

        W2 = np.column_stack([apply(apply(e)) for e in np.eye(mi)])
        return sp.bmat([[prog.P + reg * sp.eye(n), prog.A.T, prog.G.T],
                        [prog.A, -reg * sp.eye(me), None],
                        [prog.G, None, -(sp.csr_matrix(W2) + reg * sp.eye(mi))]],
                       format="csc")

    def test_refill_matches_fresh_assembly(self):
        rng = np.random.default_rng(41)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        reg = ipm.REG
        cones = prog.cones
        kkt = ipm_session(prog)
        factor(kkt, NTScaling(cones.points(cones.identity(),
                                           cones.identity())))
        position, order = kkt.analysis.position, kkt.analysis.order
        dim = position.size
        assert not np.array_equal(position, np.arange(dim))
        for _ in range(5):
            scaling = NTScaling(cones.points(interior_point(rng, cones),
                                             interior_point(rng, cones)))
            factor(kkt, scaling)
            coo = kkt_matrix(kkt).tocoo()
            refilled = sp.csc_matrix(
                (coo.data, (order[coo.row], order[coo.col])),
                shape=(dim, dim))
            fresh = self.fresh(prog, scaling, reg)
            np.testing.assert_array_equal(refilled.indptr, fresh.indptr)
            np.testing.assert_array_equal(refilled.indices, fresh.indices)
            np.testing.assert_allclose(refilled.data, fresh.data, rtol=0,
                                       atol=1e-15 * np.abs(fresh.data).max())

            rhs = rng.normal(size=dim)
            lu = superlu(fresh)
            unreg = self.fresh(prog, scaling, 0.0)
            expected = lu.solve(rhs)
            for _ in range(2):
                expected = expected + lu.solve(rhs - unreg @ expected)
            np.testing.assert_allclose(kkt_solve(kkt, rhs, 0.0), expected,
                                       rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_solves_in_the_factor_ordering(self):
        # Every KKT solve, with the first factorization of a fresh
        # analysis, a later one, and one on a reused analysis, refined in
        # K's ordering against the unregularized matrix assembled afresh.
        rng = np.random.default_rng(53)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        first = ipm_session(prog)
        for i in range(3):
            kkt = first if i < 2 else \
                ipm_session(prog, analysis=first.analysis)
            scaling = NTScaling(cones.points(interior_point(rng, cones),
                                             interior_point(rng, cones)))
            factor(kkt, scaling)
            assert kkt.reordered == (kkt is first)
            rhs = rng.normal(size=kkt.analysis.position.size)
            residual = rhs - self.fresh(prog, scaling, 0.0) @ kkt_solve(
                kkt, rhs, 0.0)
            assert np.abs(residual).max() <= 1e-12 * np.abs(rhs).max()

    def test_program_without_stages_is_one_stage(self):
        # Without ``stage`` every variable is in one stage, and so is every
        # row: the ordering puts every row of A and G before every variable,
        # each in index order.
        rng = np.random.default_rng(37)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        kkt = ipm_session(prog)
        factor(kkt, NTScaling(cones.points(cones.identity(),
                                           cones.identity())))
        dim = kkt.analysis.position.size
        np.testing.assert_array_equal(
            kkt.analysis.order,
            np.r_[np.arange(prog.n, dim), np.arange(prog.n)])

    @staticmethod
    def factored(seed):
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        kkt = ipm_session(prog)
        scaling = NTScaling(cones.points(interior_point(rng, cones),
                                         interior_point(rng, cones)))
        factor(kkt, scaling)
        return prog, scaling, kkt, rng.normal(
            size=kkt.analysis.position.size)

    def test_refines_only_while_the_residual_needs_it(self):
        prog, scaling, kkt, rhs = self.factored(61)
        first = kkt_solve(kkt, rhs, math.inf)
        residual = rhs - self.fresh(prog, scaling, 0.0) @ first
        relative = np.abs(residual).max() / max(1.0, np.abs(rhs).max())
        assert relative > 0.0
        # The first residual meets the tolerance: one LDL' solve, no residual
        # step.
        before = kkt.ldl_solves
        np.testing.assert_array_equal(kkt_solve(kkt, rhs, 2.0 * relative),
                                      first)
        assert kkt.ldl_solves - before == 1
        # It misses it: one refinement step meets it, and ends the
        # refinement.
        before = kkt.ldl_solves
        refined = kkt_solve(kkt, rhs, 0.5 * relative)
        assert kkt.ldl_solves - before == 2
        after = rhs - self.fresh(prog, scaling, 0.0) @ refined
        assert np.abs(after).max() < np.abs(residual).max()

    def test_step_that_raises_the_residual_is_dropped(self):
        # K's values tripled after the factorization: the refinement is
        # against three times the matrix the factors solve with, so its
        # first step doubles the residual, and is dropped.
        prog, scaling, kkt, rhs = self.factored(67)
        first = kkt_solve(kkt, rhs, math.inf)
        kkt.Kx *= 3.0
        before = kkt.ldl_solves
        np.testing.assert_array_equal(kkt_solve(kkt, rhs, 0.0), first)
        assert kkt.ldl_solves - before == 2

    def test_reused_analysis_fills_the_same_matrix(self):
        rng = np.random.default_rng(59)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        scaling = NTScaling(cones.points(interior_point(rng, cones),
                                         interior_point(rng, cones)))
        first = ipm_session(prog)
        factor(first, scaling)
        again = ipm_session(prog, analysis=first.analysis)
        factor(again, scaling)
        assert again.analysis is first.analysis
        assert again.Kx.tobytes() == first.Kx.tobytes()

    def test_analysis_holds_only_index_arrays_of_its_own(self):
        # It outlives the solve on its solution: after the factorization
        # that makes it and after one of a session that reuses it, none of
        # its arrays is a view of P, A, G or K's values, and its slots and
        # row patterns are int32. The factorization reads the row patterns
        # from it, and the session holds no copy of them.
        rng = np.random.default_rng(71)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones

        def factored(analysis=None):
            kkt = ipm_session(prog, analysis=analysis)
            factor(kkt, NTScaling(cones.points(interior_point(rng, cones),
                                               interior_point(rng, cones))))
            return kkt

        first = factored()
        for kkt in (first, factored(first.analysis)):
            analysis = kkt.analysis
            assert analysis is first.analysis
            held = [*analysis.pattern] + [
                getattr(analysis, f.name) for f in fields(analysis)
                if f.name != "pattern"]
            P, A, G = kkt._held[:3]
            for array in held:
                for other in (kkt.Kx, *(
                        getattr(M, name) for M in (P, A, G)
                        for name in ("data", "indices", "indptr"))):
                    assert not np.shares_memory(array, other)
            assert analysis.value_slots.dtype == np.int32
            assert analysis.w2_slots.dtype == np.int32
            own = held[len(analysis.pattern):]
            assert all(array.dtype == np.int32 for array in own)
            sized = [a for a in flat_arrays(vars(kkt))
                     if a.dtype == np.int32 and a.size == analysis.Ri.size]
            assert kkt._context.Ri == ldl._address(analysis.Ri)
            # The rest is L's row indices, which each factorization writes.
            assert all(a is kkt.Li for a in sized)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
           me=st.integers(0, 2), cones=LAYOUTS)
    def test_w2_is_written_in_place_as_numpy_wrote_it(self, seed, n, me,
                                                     cones):
        # Each factorization, on a fresh analysis and on a reused one,
        # writes -(W^2 + reg I) into the upper triangle's values, and the
        # whole matrix they stand for (helpers.kkt_matrix) holds the
        # negated numpy values (helpers.w2_entries), bit for bit, on both
        # sides of the diagonal.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, n=n, me=me, cones=cones, rank=2)
        nn, soc = cones.split(np.arange(cones.dim))
        rows = np.concatenate([nn, np.repeat(soc, cones.d, axis=1).ravel()])
        cols = np.concatenate([nn, np.tile(soc, (1, cones.d)).ravel()])
        z = slice(n + me, None)
        first = ipm_session(prog)
        for kkt in (first, ipm_session(prog, analysis=first.analysis)):
            for _ in range(2):
                scaling = NTScaling(cones.points(interior_point(rng, cones),
                                                 interior_point(rng, cones)))
                factor(kkt, scaling)
                expected = np.zeros((cones.dim, cones.dim))
                expected[rows, cols] = -w2_entries(scaling, ipm.REG)
                position = kkt.analysis.position
                K = kkt_matrix(kkt)[position][:, position]
                assert K[z, z].toarray().tobytes() == expected.tobytes()

    def test_freed_without_the_cycle_collector(self):
        # Each solve's session, with its KKT system and factors, goes when
        # the solve returns; a reference cycle would keep it until a
        # collection and show up in the plans' peak memory.
        rng = np.random.default_rng(43)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        gc.disable()
        try:
            kkt = ipm_session(prog)
            for _ in range(2):
                factor(kkt, NTScaling(cones.points(
                    interior_point(rng, cones), interior_point(rng, cones))))
            ref = weakref.ref(kkt)
            del kkt
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           me=st.integers(0, 3), rank=st.integers(0, 8),
           cones=CONE_LAYOUTS)
    def test_random_feasible_programs_solve(self, seed, n, me, rank, cones):
        prog = random_feasible_conic(np.random.default_rng(seed), n,
                                     min(me, n - 1), cones, min(rank, n))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert verify_kkt(prog, sol).worst < 1e-8


def block_step(soc, u, du):
    """One point's step to the boundary of one cone block: the orthant
    ratio test, or the SOC step of the Lorentz-transformed direction
    rho, 1 / (||rho_1|| - rho_0); inf when unbounded."""
    if not soc:
        return min((-ui / di for ui, di in zip(u, du) if di < 0),
                   default=math.inf)
    norm_j = np.sqrt(u[0] ** 2 - np.add.reduce(u[1:] ** 2))
    ubar, dbar = u / norm_j, du / norm_j
    rho0 = ubar[0] * dbar[0] - np.add.reduce(ubar[1:] * dbar[1:])
    rho1 = dbar[1:] - ubar[1:] * ((rho0 + dbar[0]) / (ubar[0] + 1.0))
    worst = float(np.sqrt(np.add.reduce(rho1 * rho1)) - rho0)
    return 1.0 / worst if worst > 0.0 else math.inf


def point_step(cones, u, du):
    """The step of one point: the least block step, block by block."""
    alpha = math.inf
    for soc, rows in cone_blocks(cones):
        alpha = min(alpha, block_step(soc, u[rows], du[rows]))
    return alpha


def step_case(seed, cones, unbounded):
    """Two interior points and their directions; the member ``unbounded``
    (0 or 1, or None) moves along an interior direction, which never
    leaves the cones."""
    rng = np.random.default_rng(seed)
    u = [interior_point(rng, cones, margin=(1e-3, 1.0)) for _ in range(2)]
    du = [rng.normal(size=u[0].size) * 10.0 ** rng.uniform(-2, 2)
          for _ in range(2)]
    if unbounded is not None:
        du[unbounded] = interior_point(rng, cones)
    return u, du


def nt_reference(cones, s, z):
    """The NT scaling (w_nn, and the stacks of W, W^{-1} and W^2) built
    from s and z alone, their blocks gathered one at a time from the cone
    layout (``helpers.cone_blocks``)."""
    d = cones.d
    nn, soc = [], []
    for is_soc, rows in cone_blocks(cones):
        (soc if is_soc else nn).append(rows)
    nn = np.concatenate(nn) if nn else np.zeros(0, int)
    idx = np.array(soc, int).reshape(-1, d)
    w_nn = np.sqrt(s[nn] / z[nn])
    sb, zb = s[idx], z[idx]
    rs = np.sqrt(np.maximum(sb[:, 0] ** 2 - np.sum(sb[:, 1:] ** 2, axis=1), 1e-300))
    rz = np.sqrt(np.maximum(zb[:, 0] ** 2 - np.sum(zb[:, 1:] ** 2, axis=1), 1e-300))
    s_bar, z_bar = sb / rs[:, None], zb / rz[:, None]
    gamma = np.sqrt((1.0 + np.sum(s_bar * z_bar, axis=1)) / 2.0)
    wbar = np.empty_like(sb)
    wbar[:, 0] = (s_bar[:, 0] + z_bar[:, 0]) / (2 * gamma)
    wbar[:, 1:] = (s_bar[:, 1:] - z_bar[:, 1:]) / (2 * gamma[:, None])
    eta = np.sqrt(rs / rz)
    W = np.empty((idx.shape[0], d, d))
    W[:, 0, 0] = wbar[:, 0]
    W[:, 0, 1:] = W[:, 1:, 0] = wbar[:, 1:]
    outer = wbar[:, 1:, None] * wbar[:, None, 1:]
    W[:, 1:, 1:] = np.eye(d - 1) + outer / (1.0 + wbar[:, 0])[:, None, None]
    mats = eta[:, None, None] * W
    Winv = W.copy()
    Winv[:, 0, 1:] *= -1.0
    Winv[:, 1:, 0] *= -1.0
    inv = Winv / eta[:, None, None]
    sq = np.einsum("nij,njk->nik", mats, mats)
    lam = np.zeros_like(z)
    lam[nn] = w_nn * z[nn]
    lam[idx] = np.einsum("nij,nj->ni", mats, z[idx])
    return w_nn, mats, inv, sq, lam


class TestStepLength:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=CONE_LAYOUTS,
           unbounded=st.sampled_from([None, 0, 1]))
    def test_max_step_is_the_boundary(self, seed, cones, unbounded):
        # The closed-form steps of both points of a pair against a
        # bisection on the interior test: u + t du is inside the cones for
        # t below the step, outside above.
        u, du = step_case(seed, cones, unbounded)
        for member, alpha in enumerate(max_steps(cones.points(*u), *du)):
            def inside(t):
                return cones.interior_violation(u[member] + t * du[member]) < 0

            if np.isinf(alpha):
                assert inside(1e8)
                continue
            assert member != unbounded
            assert inside(0.999 * alpha)
            lo, hi = 0.0, 2.0 * alpha
            for _ in range(60):
                if not inside(hi):
                    break
                lo, hi = hi, 2.0 * hi
            assert not inside(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                lo, hi = (mid, hi) if inside(mid) else (lo, mid)
            assert alpha == pytest.approx(hi, rel=1e-8)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=LAYOUTS,
           unbounded=st.sampled_from([None, 0, 1]))
    def test_paired_steps_are_the_single_steps(self, seed, cones, unbounded):
        # One stacked pass gives each point the step that point alone
        # gives, to the bit.
        u, du = step_case(seed, cones, unbounded)
        paired = max_steps(cones.points(*u), *du)
        assert paired == [point_step(cones, u[i], du[i]) for i in range(2)]
        if unbounded is not None:
            assert paired[unbounded] == math.inf

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=LAYOUTS)
    def test_paired_interior_test_is_the_single_one(self, seed, cones):
        # The violations of a pair are those of each point alone, for points
        # inside and outside the cones.
        rng = np.random.default_rng(seed)
        u = [interior_point(rng, cones) - rng.uniform(0, 2) * cones.identity()
             for _ in range(2)]
        single = []
        for v in u:
            worst = -math.inf
            for soc, rows in cone_blocks(cones):
                b = v[rows]
                worst = max(worst, float(-b.min()) if not soc else
                            float(np.sqrt(np.add.reduce(b[1:] ** 2)) - b[0]))
            single.append(worst)
        assert cones.points(*u).violations() == single

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=LAYOUTS)
    def test_scaling_from_the_pair_is_the_one_from_s_and_z(self, seed, cones):
        # The NT scaling built from the iterate's cone data equals, byte for
        # byte, the one built from s and z: W, W^{-1}, W^2 + reg I and
        # lambda = W z.
        rng = np.random.default_rng(seed)
        s, z = interior_point(rng, cones), interior_point(rng, cones)
        scaling = NTScaling(cones.points(s, z))
        w_nn, mats, inv, sq, lam = nt_reference(cones, s, z)
        assert scaling.w_nn.tobytes() == w_nn.tobytes()
        assert scaling.soc_mats.tobytes() == mats.tobytes()
        assert scaling.soc_inv.tobytes() == inv.tobytes()
        w2 = np.concatenate([w_nn ** 2 + ipm.REG, (
            sq + ipm.REG * np.eye(cones.d)).reshape(-1)])
        assert w2_entries(scaling, ipm.REG).tobytes() == w2.tobytes()
        assert scaling.lam.u[0].tobytes() == lam.tobytes()


def kernel_case(seed, cones, special):
    """Two points (k, dim) and two directions of the layout: the points
    inside the cones or moved out of them along the identity, the
    directions of mixed scales, in one case of three with every SOC tail
    +-0, and ``special``'s (array, entry, value) written over them, where
    array 0 is the points and 1 the directions."""
    rng = np.random.default_rng(seed)
    u = np.array([interior_point(rng, cones, margin=(1e-3, 1.0))
                  - rng.choice([0.0, 0.0, 2.0]) * rng.uniform()
                  * cones.identity() for _ in range(2)])
    du = rng.normal(size=u.shape) * 10.0 ** rng.uniform(-2, 2, size=(2, 1))
    if rng.uniform() < 1 / 3:
        for a in (u, du):
            tails = cones.split(a)[1][..., 1:]
            tails[...] = rng.choice([0.0, -0.0], size=tails.shape)
    for which, entry, value in special:
        part = (u, du)[which].reshape(-1)
        part[entry % part.size] = value
    return cones, u, du


# LAYOUTS and the planner's N=100 layout: 596 orthant rows, 100 blocks of 4.
KERNEL_LAYOUTS = st.one_of(LAYOUTS, st.just(Cones(596, 100, 4)))
SPECIAL = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10 ** 6),
                             st.sampled_from([math.nan, math.inf, -math.inf,
                                              0.0, -0.0])),
                   max_size=4)


class TestConeKernel:
    """Each entry point of the compiled cone algebra (``conic/cones.c``)
    against the numpy code it replaced (``helpers``), byte for byte, every
    NaN read as one NaN, at points with NaN, +-inf and +-0 entries too. The
    violations and steps, which are minima and maxima, are compared with
    their zeros unsigned."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           special=SPECIAL)
    def test_points_and_steps_are_numpy_s(self, seed, cones, special):
        cones, u, du = kernel_case(seed, cones, special)
        points = cones.points(*u)
        norm_sq, norm, bar, worst = numpy_points(cones, u)
        assert same_bits(points.norm_sq, norm_sq)
        assert same_bits(points.norm, norm)
        assert same_bits(points.bar, bar)
        assert same_bits(points.violations(), worst, signed_zeros=False)
        assert same_bits(max_steps(points, *du), numpy_max_steps(cones, u, du),
                         signed_zeros=False)

    def test_nan_rules_are_numpy_s(self):
        # Two orthant rows, one SOC block. A NaN in a minimum or maximum is
        # NaN, and a NaN loses where a Python min or max meets it: the
        # violations ignore a NaN, a NaN orthant step stays NaN against the
        # SOC's, and a NaN SOC step leaves the orthant's.
        cones = Cones(2, 1, 3)
        u = np.array([[math.nan, 1.0, 1.0, 0.0, 0.0],
                      [1.0, 1.0, math.nan, 0.0, 0.0]])
        du = np.array([[-1.0, -1.0, -1.0, 1.0, 0.0],
                       [-1.0, 1.0, -1.0, 1.0, 0.0]])
        points = cones.points(*u)
        assert same_bits(points.violations(), [-1.0, -1.0])
        assert same_bits(max_steps(points, *du), [math.nan, 1.0])
        assert same_bits(max_steps(points, *du), numpy_max_steps(cones, u, du))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           special=SPECIAL)
    def test_nt_scaling_is_numpy_s(self, seed, cones, special):
        cones, u, du = kernel_case(seed, cones, special)
        scaling = NTScaling(cones.points(*u))
        with np.errstate(all="ignore"):
            w_nn, mats, inv, sq, lam = nt_reference(cones, *u)
        assert same_bits(scaling.w_nn, w_nn)
        assert same_bits(scaling.soc_mats, mats)
        assert same_bits(scaling.soc_inv, inv)
        assert same_bits(scaling.soc_sq, sq)
        assert same_bits(scaling.lam.u[0], lam)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           special=SPECIAL)
    def test_products_are_numpy_s(self, seed, cones, special):
        # Each from the same inputs as the oracle: the kernel's scaling.
        cones, u, du = kernel_case(seed, cones, special)
        scaling = NTScaling(cones.points(*u))
        w_nn, mats, inv = scaling.w_nn, scaling.soc_mats, scaling.soc_inv
        assert same_bits(scaled_product(scaling, *du), numpy_scaled_product(
            cones, w_nn, mats, inv, *du))
        assert same_bits(cone_product(cones, u[0], du[1]),
                         numpy_product(cones, u[0], du[1]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           special=SPECIAL,
           bounds=st.sampled_from([(0.1, 10.0), (1e-3, 1e-1), (0.0, math.inf),
                                   (math.nan, 1.0), (1.0, math.nan),
                                   (2.0, 1.0)]))
    def test_clip_eigenvalues_is_numpy_s(self, seed, cones, special, bounds):
        cones, u, du = kernel_case(seed, cones, special)
        for v in (*u, *du):
            assert same_bits(clip_eigenvalues(cones, v, *bounds),
                             numpy_clip_eigenvalues(cones, v, *bounds))

    def test_wrong_arrays_raise_before_any_call(self, monkeypatch):
        # A wrong dtype, a non-contiguous array or a short one raises
        # ValueError at every entry point, before the library is loaded:
        # the cone algebra's, the KKT solve's and direction's (kkt_solve,
        # kkt_direction), and the IPM session's, whose context the cold
        # start, the residuals and each iteration's calls read; its CSR
        # matrices P, A and G also raise at int64 or non-contiguous index
        # arrays, float32 values, short row pointers or a column out of
        # range, and it raises at P or A of another shape than the rest of
        # its KKT system.
        cones = MIXED_CONES
        rng = np.random.default_rng(5)
        s, z = (interior_point(rng, MIXED_CONES) for _ in range(2))
        iterate, single = cones.points(s, z), cones.points(s)
        scaling = NTScaling(iterate)
        prog = random_feasible_conic(rng, n=4, me=2, cones=MIXED_CONES,
                                     rank=2)
        P, A, G, c, b, h = prog.P, prog.A, prog.G, prog.c, prog.b, prog.h
        x, y, rhs = np.ones(4), np.ones(2), np.ones(6 + cones.dim)
        kkt = ipm_session(prog)
        factor(kkt, scaling)
        other = NTScaling(Cones(1, 1, 3).points(
            np.array([1.0, 2.0, 0.0, 0.0]), np.array([1.0, 2.0, 0.0, 0.0])))
        calls = []
        monkeypatch.setattr(ldl, "_library", lambda: calls.append(1))

        def wrong(u):
            """u as float32, not contiguous, and one entry short."""
            return u.astype(np.float32), np.repeat(u, 2)[::2], u[:-1]

        def session(**changed):
            """The session of the program at (x, y, z, s), with
            ``changed``'s arrays in place of its own."""
            a = dict(P=P, A=A, G=G, c=c, b=b, h=h, x=x, y=y, z=z,
                     s=s) | changed
            return ipm._Session(a["P"], a["A"], a["G"], a["c"], a["b"],
                                a["h"], cones,
                                (a["x"], a["y"], a["z"], a["s"]),
                                kkt.analysis)

        s32, z32 = s.astype(np.float32), z.astype(np.float32)
        bad = [
            lambda: cones.points(s32, z32),
            lambda: cones.points(s[:-1], z[:-1]),
            lambda: ConePoints(cones, np.asfortranarray(np.array([s, z]))),
            lambda: max_steps(iterate, s32, z32),
            lambda: max_steps(iterate, s[:-1], z[:-1]),
            lambda: max_steps(iterate, s),
            lambda: NTScaling(single),
            lambda: kkt_direction(kkt, other, x, y, s, z),
        ]
        for v in wrong(s):
            bad += [lambda v=v: kkt_direction(kkt, scaling, x, y, v, z),
                    lambda v=v: kkt_direction(kkt, scaling, x, y, z, v),
                    lambda v=v: session(z=v),
                    lambda v=v: session(s=v),
                    lambda v=v: session(h=v),
                    lambda v=v: scaled_product(scaling, v, z),
                    lambda v=v: scaled_product(scaling, z, v),
                    lambda v=v: cone_product(cones, z, v),
                    lambda v=v: clip_eigenvalues(cones, v, 0.1, 10.0)]
        for v in wrong(x):
            bad += [lambda v=v: kkt_direction(kkt, scaling, v, y, s, z),
                    lambda v=v: session(x=v),
                    lambda v=v: session(c=v)]
        for v in wrong(y):
            bad += [lambda v=v: kkt_direction(kkt, scaling, x, v, s, z),
                    lambda v=v: session(y=v),
                    lambda v=v: session(b=v)]
        bad += [lambda: session(P=sp.eye(5, format="csr")),
                lambda: session(A=A[:-1])]
        bad += [lambda v=v: kkt_solve(kkt, v, ipm.REFINE_TOL)
                for v in wrong(rhs)]
        for M in (P, A, G):
            for name, array in (("indptr", M.indptr.astype(np.int64)),
                                ("indices", M.indices.astype(np.int64)),
                                ("indices", np.repeat(M.indices, 2)[::2]),
                                ("data", M.data.astype(np.float32)),
                                ("indptr", M.indptr[:-1]),
                                ("indptr", M.indptr + 1),
                                ("indices", M.indices + M.shape[1])):
                broken = M.copy()
                setattr(broken, name, array)
                name = "PAG"[(M is A) + 2 * (M is G)]
                bad.append(lambda m=broken, name=name: session(**{name: m}))
        for call in bad:
            with pytest.raises(ValueError):
                call()
        assert not calls


def factored_kkt(seed, cones, me, perturbed=False):
    """A random program with the cone layout ``cones`` (n = 4 variables
    and ``me`` equality rows), its session's KKT system factored at a
    random interior NT scaling, with K's values scaled after the
    factorization when ``perturbed``, so that refinement steps can raise
    the residual, and the random generator."""
    rng = np.random.default_rng(seed)
    prog = random_feasible_conic(rng, 4, me, cones, 2)
    kkt = ipm_session(prog)
    scaling = NTScaling(cones.points(interior_point(rng, cones),
                                     interior_point(rng, cones)))
    factor(kkt, scaling)
    if perturbed:
        kkt.Kx *= rng.uniform(0.5, 3.0)
    return prog, kkt, scaling, rng


def overwrite(arrays, special):
    """Write ``special``'s (array, entry, value) over ``arrays``."""
    for which, entry, value in special:
        part = arrays[which % len(arrays)].reshape(-1)
        if part.size:
            part[entry % part.size] = value


def non_canonical(rng, M):
    """The CSR matrix M with each row's entries in a random order and, in
    some rows, one entry split in two at the same column."""
    data, indices, indptr = [], [], [0]
    for i in range(M.shape[0]):
        lo, hi = M.indptr[i], M.indptr[i + 1]
        cols, vals = list(M.indices[lo:hi]), list(M.data[lo:hi])
        if cols and rng.uniform() < 0.5:
            k, part = rng.integers(len(cols)), rng.normal()
            cols.append(cols[k])
            vals.append(part)
            vals[k] -= part
        order = rng.permutation(len(cols))
        indices += [cols[k] for k in order]
        data += [vals[k] for k in order]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, float), np.array(indices, np.intc),
                          np.array(indptr, np.intc)), shape=M.shape)


# NaN, +-inf and +-0 at up to four entries of a case's vectors.
VECTOR_SPECIAL = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10 ** 6),
              st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])),
    max_size=4)
EQUALITY_ROWS = st.integers(0, 3)


class TestKktKernel:
    """The IPM's KKT solve, Newton direction and residuals, one compiled
    call each on an IPM session's context (``kkt_solve``, ``kkt_direction``
    and ``ipm_residuals`` in ``conic/ldl.c``), against the numpy
    and scipy code they replaced (``helpers``), bit for bit, every NaN read
    as one NaN, with NaN, +-inf and +-0 entries in their vectors, and in
    the residuals' matrices."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, perturbed=st.booleans(),
           tol=st.sampled_from([math.inf, ipm.REFINE_TOL, 1e-14, 0.0]),
           special=VECTOR_SPECIAL)
    def test_solve_is_numpy_s(self, seed, cones, me, perturbed, tol,
                              special):
        _, kkt, _, rng = factored_kkt(seed, cones, me, perturbed)
        rhs = rng.normal(size=kkt.analysis.order.size) \
            * 10.0 ** rng.uniform(-3, 3)
        overwrite([rhs], special)
        before = kkt.ldl_solves
        sol = kkt_solve(kkt, rhs, tol)
        expected, solves = numpy_kkt_solve(kkt, rhs, tol, ipm.REFINE_STEPS)
        assert same_bits(sol, expected)
        assert kkt.ldl_solves - before == solves

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, perturbed=st.booleans(),
           zero=st.booleans(), special=VECTOR_SPECIAL)
    def test_direction_is_numpy_s(self, seed, cones, me, perturbed, zero,
                                  special):
        # The residuals random or, as a centrality corrector's, zero.
        prog, kkt, scaling, rng = factored_kkt(seed, cones, me, perturbed)
        sizes = prog.n, me, prog.G.shape[0], prog.G.shape[0]
        vectors = [rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
                   for size in sizes]
        if zero:
            vectors[:3] = [np.zeros(size) for size in sizes[:3]]
        overwrite(vectors, special)
        before = kkt.ldl_solves
        got = kkt_direction(kkt, scaling, *vectors)
        expected, solves = numpy_direction(
            kkt, scaling, prog.G, *vectors, ipm.REFINE_TOL, ipm.REFINE_STEPS)
        assert all(same_bits(a, b) for a, b in zip(got, expected))
        assert kkt.ldl_solves - before == solves

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, rank=st.integers(0, 4),
           shuffled=st.booleans(), special=VECTOR_SPECIAL)
    def test_residuals_are_numpy_s(self, seed, cones, me, rank, shuffled,
                                   special):
        # Canonical CSR matrices, or ones with their entries out of order
        # and repeated (helpers.non_canonical), whose products add in
        # stored order.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, 4, me, cones, rank)
        P, A, G = (M.tocsr() for M in (prog.P, prog.A, prog.G))
        if shuffled:
            P, A, G = (non_canonical(rng, M) for M in (P, A, G))
        mi = G.shape[0]
        vectors = [rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
                   for size in (4, me, mi, 4, me, mi, mi)]
        overwrite([*vectors, P.data, A.data, G.data], special)
        c, b, h, x, y, z, s = vectors
        session = ipm._Session(P, A, G, c, b, h, cones, (x, y, z, s))
        with np.errstate(all="ignore"):
            measures = session.residuals()
        Px, expected, norms = numpy_residuals(P, A, G, c, b, h, x, y, z, s)
        assert same_bits(session.Px, Px)
        assert all(same_bits(a, e) for a, e in zip(
            (session.r_dual, session.r_eq, session.r_ineq), expected))
        assert same_bits(session.norms, norms)
        scale = [max(1.0, float(np.abs(v).max(initial=0.0)))
                 for v in (b, h, c)]
        assert same_bits(
            measures, [max(norms[1] / scale[0], norms[2] / scale[1]),
                       norms[0] / scale[2]])

    def test_int64_arrays_solve_as_the_kernel_s(self):
        # The kernel reads int32 index arrays and float64 values: a program
        # whose matrices hold int64 index arrays, or integer values, is
        # solved from converted copies, to the same bits, and its matrices
        # are not changed.
        rng = np.random.default_rng(13)
        prog = random_feasible_conic(rng, 5, 2, MIXED_CONES, 3)
        prog.A.data = np.round(4.0 * prog.A.data)
        wide = replace(prog)
        for name in ("P", "A", "G"):
            M = getattr(prog, name).copy()
            M.indices, M.indptr = (a.astype(np.int64)
                                   for a in (M.indices, M.indptr))
            setattr(wide, name, M)
        wide.A.data = wide.A.data.astype(np.int64)
        expected, got = solve(prog), solve(wide)
        assert got.x.tobytes() == expected.x.tobytes()
        assert got.iterations == expected.iterations
        assert wide.G.indices.dtype == wide.A.data.dtype == np.int64

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, special=VECTOR_SPECIAL)
    def test_solve_at_infinite_tol_is_one_ldl_solve(self, seed, cones, me,
                                                     special):
        # The cold start's solve: at tol = inf no refinement step can run,
        # and kkt_solve forms no residual. The solution is the LDL' solve's
        # (ldl_solve) in K's ordering, to the byte, in one solve.
        _, kkt, _, rng = factored_kkt(seed, cones, me)
        a = kkt.analysis
        rhs = rng.normal(size=a.order.size) * 10.0 ** rng.uniform(-3, 3)
        overwrite([rhs], special)
        before = kkt.ldl_solves
        sol = kkt_solve(kkt, rhs, math.inf)
        assert kkt.ldl_solves - before == 1
        expected = ldl_solve(kkt, rhs[a.order])[a.position]
        assert sol.tobytes() == expected.tobytes()


def iteration_case(seed, cones, me, rank, special=()):
    """A random program of n = 4 variables, ``me`` equality rows, P of
    ``rank`` and the cone layout ``cones`` (P, A and G in the kernel's
    CSR), random residual vectors r = [r_dual, r_eq, r_ineq] of mixed
    scales and an interior iterate (s, z), with ``special``'s (vector,
    entry, value) written over r_dual, r_eq, r_ineq, s and z (vectors 0 to
    4)."""
    rng = np.random.default_rng(seed)
    prog = random_feasible_conic(rng, 4, me, cones, rank)
    matrices = [ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G)]
    r = [rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
         for size in (4, me, cones.dim)]
    s, z = (interior_point(rng, cones) for _ in range(2))
    overwrite([*r, s, z], special)
    return matrices, r, s, z


def twin_session(P, A, G, cones, r, s, z):
    """``ipm._Session`` of P, A and G, at an iterate with copies of s and
    z, with the residual vectors r written into its buffers, where its
    calls read them, and a second session of the same matrices for the
    Python loop it replaced."""
    n, me = P.shape[0], A.shape[0]
    session, twin = (ipm._Session(
        P, A, G, np.zeros(n), np.zeros(me), np.zeros(cones.dim), cones,
        (np.zeros(n), np.zeros(me), z.copy(), s.copy())) for _ in range(2))
    for buffer, v in zip((session.r_dual, session.r_eq, session.r_ineq), r):
        buffer[...] = v
    return session, twin


def assert_step_is_the_python_loop_s(P, A, G, cones, r, s, z, gap, mu):
    """The step at (s, z) by ``ipm._Session`` and by the Python loop
    (``helpers.python_step``) give the same bits and LDL' solves; returns
    the loop's events."""
    session, twin = twin_session(P, A, G, cones, r, s, z)
    events = []
    got = session.step(gap, mu)
    expected = python_step(twin, r, s, z, gap, mu, P.nnz > 0, events)
    assert (got is None) == (expected is None)
    if got is not None:
        assert same_bits(got, expected[0])
        assert all(same_bits(a, b)
                   for a, b in zip(session.direction(), expected[1]))
    assert session.ldl_solves == twin.ldl_solves
    return events


def assert_predictor_is_the_python_loop_s(P, A, G, cones, r, s, z):
    """The predictor at (s, z) by ``ipm._Session`` and by the Python loop
    (``helpers.python_predictor``) returns the same code and LDL' solves
    and, when it factored K, leaves the same bits: the cone data of s, z
    and lambda, the NT scaling, lambda o lambda, the affine direction and
    the trial points."""
    session, twin = twin_session(P, A, G, cones, r, s, z)
    code = session.predictor()
    expected, predicted = python_predictor(twin, r, s, z)
    assert code == expected
    assert session.ldl_solves == twin.ldl_solves
    if code < 0:
        return
    iterate, scaling = predicted.iterate, predicted.scaling
    for got, part in ((session.norm_sq, "norm_sq"), (session.norm, "norm"),
                      (session.bar, "bar")):
        assert same_bits(got[:2], getattr(iterate, part))
        assert same_bits(got[2:], getattr(scaling.lam, part))
    assert same_bits(session.w_nn, scaling.w_nn)
    assert same_bits(session.W, [scaling.soc_mats, scaling.soc_inv,
                                 scaling.soc_sq])
    assert same_bits(session.lam, [scaling.lam.u[0], predicted.lam_sq])
    dx, dy, dz, ds = predicted.direction
    assert same_bits(session.sol_a, np.concatenate([dx, dy, dz]))
    assert same_bits(session.ds_a, ds)
    assert same_bits([session.trial_s, session.trial_z], predicted.trial)


def assert_corrector_is_the_python_loop_s(P, A, G, cones, r, s, z, sigma):
    """After a predictor at (s, z) that factored K, the corrector at sigma
    and mu = s'z / degree by ``ipm._Session`` and by the Python loop
    (``helpers.python_corrector``) gives the same step pair, direction and
    LDL' solves; returns the loop's events."""
    session, twin = twin_session(P, A, G, cones, r, s, z)
    code, predicted = session.predictor(), python_predictor(twin, r, s,
                                                            z)[1]
    assert code >= 0
    mu, events = float(s @ z) / cones.degree, []
    got = session.corrector(sigma, mu)
    expected, direction = python_corrector(twin, predicted, r, s, z, sigma,
                                           mu, P.nnz > 0, events)
    assert same_bits(got, expected)
    assert all(same_bits(a, b)
               for a, b in zip(session.direction(), direction))
    assert session.ldl_solves == twin.ldl_solves
    return events


def without_row(G, i):
    """The CSR matrix G with no entry in row i."""
    G = G.tolil()
    G[i, :] = 0.0
    G = ipm._kernel_csr(sp.csr_matrix(G))
    G.eliminate_zeros()
    return G


# Rank 0 (no P, split steps) or 2 (a common step).
RANKS = st.sampled_from([0, 2])


class TestIterationKernel:
    """The IPM iteration's compiled calls (``ipm_predictor``,
    ``ipm_corrector`` and ``ipm_advance`` in ``conic/ldl.c``, through
    ``ipm._Session``) against the Python loop body they replaced
    (``helpers.python_predictor``, ``python_corrector`` and
    ``python_step``, on the wrappers of the entry points it called, and
    numpy's update), bit for bit, every NaN read as one NaN: the state the
    predictor leaves, each direction, the step pair, the count of LDL'
    solves and the next iterate."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, rank=RANKS, special=VECTOR_SPECIAL)
    def test_predictor_is_the_python_loop_s(self, seed, cones, me, rank,
                                            special):
        # NaN, +-inf and +-0 in s and z, too: off the interior, a NaN
        # pivot, or an iterate whose scaling and direction carry them.
        (P, A, G), r, s, z = iteration_case(seed, cones, me, rank, special)
        assert_predictor_is_the_python_loop_s(P, A, G, cones, r, s, z)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, rank=RANKS, special=VECTOR_SPECIAL,
           sigma=st.sampled_from([0.0, 1e-6, 0.3, 1.0, math.nan]))
    def test_corrector_is_the_python_loop_s(self, seed, cones, me, rank,
                                            special, sigma):
        # After a predictor that factored K (special values in the
        # residual vectors only), at sigma from 0 to 1, or NaN (as
        # max(NaN, 0.0) makes it from a NaN trial gap).
        (P, A, G), r, s, z = iteration_case(
            seed, cones, me, rank, [(w % 3, e, v) for w, e, v in special])
        assert_corrector_is_the_python_loop_s(P, A, G, cones, r, s, z, sigma)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, rank=RANKS, special=VECTOR_SPECIAL)
    def test_cold_start_is_the_python_one(self, seed, cones, me, rank,
                                          special):
        # K factored at s = z = e in C (ipm_factor) and solved at a
        # tolerance of infinity, then shifted into the cones, against the
        # cold start in Python on the same session's K (the NT scaling at
        # (e, e), the factorization, the solve and the shifts), with NaN,
        # +-inf and +-0 in c, b, h and G's values: a NaN pivot leaves the
        # iterate at (0, 0, e, e), unsolved, in both.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, 4, me, cones, rank)
        P, A, G = (ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G))
        c, b, h = (np.array(v, dtype=np.float64)
                   for v in (prog.c, prog.b, prog.h))
        overwrite([c, b, h, G.data], special)
        e = cones.identity()
        session, twin = (ipm._Session(
            P, A, G, c, b, h, cones,
            (np.zeros(4), np.zeros(me), e.copy(), e.copy()))
            for _ in range(2))
        with np.errstate(all="ignore"):
            session.cold_start()
        expected = python_cold_start(twin, c, b, h)
        assert all(same_bits(a, b) for a, b in zip(
            (session.x, session.y, session.z, session.s), expected))
        assert session.factored == twin.factored
        assert session.ldl_solves == twin.ldl_solves == twin.factored

    @pytest.mark.parametrize("rank", [0, 3], ids=["split", "common"])
    def test_steps_of_solves_are_the_python_loop_s(self, monkeypatch, rank):
        # Every step of cold and warm solves of random programs, replayed
        # from its iterate, gap, mu and residual vectors: the same bits
        # each time, and between them every way the Gondzio rounds end:
        # the early exit (both steps above GONDZIO_ENOUGH) before a round
        # or after one accepted, a round rejected first or second, and
        # both rounds accepted.
        steps, step = [], ipm._Session.step

        def recorded_step(self, gap, mu):
            r = [v.copy() for v in (self.r_dual, self.r_eq, self.r_ineq)]
            steps.append((self.cones, r, self.s.copy(), self.z.copy(), gap,
                          mu))
            return step(self, gap, mu)

        monkeypatch.setattr(ipm._Session, "step", recorded_step)
        rng = np.random.default_rng(88)
        programs = []
        layouts = MIXED_CONES, MULTI_BLOCK_CONES, Cones(6), Cones(0, 3, 4)
        for cones in layouts:
            prog = random_feasible_conic(rng, 5, 2, cones, rank)
            first = solve(prog)
            assert first.optimal
            solve(replace(prog, h=prog.h + 1e-2 * interior_point(rng, cones),
                          start=first))
            programs += [prog] * (len(steps) - len(programs))
        assert len(steps) > 40
        rounds = []
        for prog, (cones, r, s, z, gap, mu) in zip(programs, steps):
            P, A, G = (ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G))
            events = assert_step_is_the_python_loop_s(P, A, G, cones, r, s,
                                                      z, gap, mu)
            rounds.append(tuple(events))
        assert {("enough",), ("rejected",), ("accepted", "enough"),
                ("accepted", "accepted"), ("accepted", "rejected")} \
            <= set(rounds)

    def test_nan_step_length_is_python_s(self):
        # An orthant row i that no column touches, with s_i = inf and
        # r_ineq_i = inf: the predictor's and the corrector's ds_i is
        # -inf, so s_i's step to the boundary is -inf / -inf, NaN, and each
        # step that Python's min takes with it is 1 (min(1.0, nan)): the
        # affine step of the trial point s + ds, and the step pair.
        rng = np.random.default_rng(89)
        cones = MIXED_CONES
        for rank in (0, 2):
            (P, A, G), r, s, z = iteration_case(int(rng.integers(2 ** 32)),
                                                cones, 1, rank)
            G = without_row(G, 0)
            s[0] = r[2][0] = math.inf
            assert_predictor_is_the_python_loop_s(P, A, G, cones, r, s, z)
            events = assert_step_is_the_python_loop_s(
                P, A, G, cones, r, s, z, float(s @ z), 1.0)
            assert "nan step" in events

    def test_rounds_at_a_nan_sigma_are_python_s(self):
        # A NaN sigma (from a NaN trial gap) makes mu_target NaN, as
        # Python's max keeps a NaN first argument, and so the rounds' clip
        # bounds. An orthant row that no column touches, with r_ineq = 10 s
        # there, holds the primal step near 0.1 while the direction's other
        # entries are NaN, so that the rounds run.
        (P, A, G), r, s, z = iteration_case(103, MIXED_CONES, 1, 0)
        G = without_row(G, 1)
        r[2][1] = 10.0 * s[1]
        events = assert_corrector_is_the_python_loop_s(
            P, A, G, MIXED_CONES, r, s, z, math.nan)
        assert events[0] in ("accepted", "rejected")

    def test_off_interior_and_nan_pivot_return_their_codes(self):
        # s with an orthant row below zero, or z with a block outside its
        # cone: OFF_INTERIOR, before any factorization. A NaN in s, which
        # the interior test passes over (a NaN loses a maximum): NAN_PIVOT
        # from its row's -(W^2 + reg I). Each as the Python loop returns
        # it, and each fails the step. Neither solves.
        rng = np.random.default_rng(97)
        cones = MIXED_CONES
        (P, A, G), r, s, z = iteration_case(101, cones, 2, 2)
        outside = z.copy()
        outside[cones.n_nn + 1] = 2.0 * outside[cones.n_nn] + 1.0
        negative, nan = s.copy(), s.copy()
        negative[1], nan[2] = -rng.uniform(), math.nan
        for u, v, code in ((negative, z, ipm.OFF_INTERIOR),
                           (s, outside, ipm.OFF_INTERIOR),
                           (nan, z, ipm.NAN_PIVOT)):
            session, twin = twin_session(P, A, G, cones, r, u, v)
            assert session.predictor() == code
            assert python_predictor(twin, r, u, v) == (code, None)
            assert session.ldl_solves == twin.ldl_solves == 0
            assert session.step(1.0, 1.0) is None


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), cones=KERNEL_LAYOUTS,
           me=EQUALITY_ROWS, special=VECTOR_SPECIAL,
           alphas=st.tuples(*[st.sampled_from(
               [0.0, 1.0, 0.37, 1e-12, -0.0, math.nan])] * 2))
    def test_advance_is_numpy_s(self, seed, cones, me, special, alphas):
        # The step to the next iterate along a direction (sol, ds), in
        # place, and the residuals there: numpy's x + alpha_p dx, s +
        # alpha_p ds, y + alpha_d dy and z + alpha_d dz, and
        # helpers.numpy_residuals at that iterate, with NaN, +-inf and +-0
        # in the iterate and the direction.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, 4, me, cones, 2)
        P, A, G = (ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G))
        dim, size = cones.dim, 4 + me + cones.dim
        vectors = [rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3)
                   for k in (4, me, dim, dim, size, dim)]
        overwrite(vectors, special)
        x, y, z, s, sol, ds = vectors
        session = ipm._Session(P, A, G, prog.c, prog.b, prog.h, cones,
                               [v.copy() for v in (x, y, z, s)])
        session.sol[...], session.ds[...] = sol, ds
        alpha_p, alpha_d = alphas
        with np.errstate(all="ignore"):
            session.advance(alpha_p, alpha_d)
            dx, dy, dz = sol[:4], sol[4:4 + me], sol[4 + me:]
            expected = (x + alpha_p * dx, y + alpha_d * dy, z + alpha_d * dz,
                        s + alpha_p * ds)
            Px, residuals, norms = numpy_residuals(P, A, G, prog.c, prog.b,
                                                   prog.h, *expected)
        assert all(same_bits(a, b) for a, b in zip(
            (session.x, session.y, session.z, session.s), expected))
        assert same_bits(session.Px, Px)
        assert all(same_bits(a, b) for a, b in zip(
            (session.r_dual, session.r_eq, session.r_ineq), residuals))
        assert same_bits(session.norms, norms)


class TestWarmStart:
    """A solve from ``program.start``: used when its shapes match the
    program, and ignored (a cold solve) when they do not. Its KKT analysis
    is reused when the pattern matches, and a start from the same program is
    resumed unshifted."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           me=st.integers(0, 3),
           cones=CONE_LAYOUTS)
    def test_perturbed_program_from_previous_optimum(self, seed, n, me, cones):
        # P + I makes the objective strongly convex, so both solves pin down
        # the one optimum to about their KKT residual; h moves along a point
        # inside the cones, so the perturbed program stays feasible.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, n, min(me, n - 1), cones, n)
        prog.P = prog.P + sp.eye(n, format="csr")
        first = solve(prog)
        assert first.optimal
        perturbed = replace(
            prog, c=prog.c + 1e-2 * rng.normal(size=n),
            h=prog.h + 1e-2 * interior_point(rng, cones), start=first)
        factorizations = []
        predictor = ipm._Session.predictor

        def counted(self):
            code = predictor(self)
            factorizations.append(code >= 0)
            return code

        with splu_calls() as splus, \
                mock.patch.object(ipm._Session, "predictor", counted):
            warm = solve(perturbed)
        # The same pattern as the start's: its ordering is reused, and the
        # LDL' kernel factors, alone, in each iteration's predictor call.
        assert not splus and factorizations
        assert warm.warm and not warm.reordered and not warm.resumed
        assert warm.status == "optimal"
        assert verify_kkt(perturbed, warm).worst < 1e-8
        # Same optimum as a cold solve. At tolerance 1e-8 two correct solves
        # can differ by over 1e-6 in x: a weakly active cone row turns the
        # 1e-8 gap into an x error of gap / multiplier. So compare at 1e-10.
        warm = solve(perturbed, 1e-10)
        cold = solve(replace(perturbed, start=None), 1e-10)
        assert warm.warm and not cold.warm
        assert warm.optimal and cold.optimal
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-6)

    def test_solves_leave_inputs_and_earlier_solutions_intact(self):
        # Each solve moves an iterate of its own in place. A cold solve
        # leaves the program's c, b, h and the values of P, A and G as they
        # were; a warm solve leaves its start's x, y, z and s; and a solve
        # resumed from the last one returns arrays that share no buffer
        # with it, whose bytes it keeps.
        rng = np.random.default_rng(53)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES,
                                     rank=3)
        inputs = (prog.c, prog.b, prog.h, prog.P.data, prog.A.data,
                  prog.G.data)
        before = [a.tobytes() for a in inputs]

        def iterate(sol):
            return sol.x, sol.y, sol.z, sol.s

        first = solve(prog, 1e-4)
        assert [a.tobytes() for a in inputs] == before
        kept = [v.tobytes() for v in iterate(first)]
        prog.start = first
        second = solve(prog)
        assert second.resumed and second.iterations > 1
        assert [v.tobytes() for v in iterate(first)] == kept
        assert not any(np.shares_memory(u, v) for u in iterate(first)
                       for v in iterate(second))
        kept = [v.tobytes() for v in iterate(second)]
        warm = solve(replace(
            prog, h=prog.h + 1e-2 * interior_point(rng, MIXED_CONES),
            start=second))
        assert warm.warm and not warm.resumed and warm.iterations > 1
        assert [v.tobytes() for v in iterate(second)] == kept
        assert [a.tobytes() for a in inputs] == before

    def test_start_near_the_optimum_saves_iterations(self):
        rng = np.random.default_rng(47)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        first = solve(prog)
        perturbed = replace(
            prog, c=prog.c + 1e-2 * rng.normal(size=prog.n),
            h=prog.h + 1e-2 * interior_point(rng, MIXED_CONES))
        cold = solve(perturbed)
        warm = solve(replace(perturbed, start=first))
        assert warm.optimal and cold.optimal
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("field", ["x", "y", "z", "s"])
    def test_start_of_wrong_shape_is_a_cold_solve(self, field):
        rng = np.random.default_rng(47)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cold = solve(prog)
        start = replace(cold, **{field: np.append(getattr(cold, field), 0.0)})
        sol = solve(replace(prog, start=start))
        assert not sol.warm
        assert sol.status == cold.status
        assert sol.iterations == cold.iterations
        for name in ("x", "y", "z", "s"):
            assert np.array_equal(getattr(sol, name), getattr(cold, name))

    def test_start_of_other_pattern_is_analyzed_afresh(self):
        rng = np.random.default_rng(47)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        first = solve(prog)
        G = prog.G.copy()
        G.data[0] = 0.0
        G.eliminate_zeros()
        other = replace(prog, G=G, start=first)
        sol = solve(other)
        stripped = solve(replace(other, start=replace(first, _analysis=None)))
        assert sol.warm and sol.reordered
        assert sol.status == stripped.status == "optimal"
        assert sol.iterations == stripped.iterations
        for name in ("x", "y", "z", "s"):
            assert np.array_equal(getattr(sol, name), getattr(stripped, name))

    def test_resolve_resumes_its_own_iterate(self):
        rng = np.random.default_rng(47)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        loose = solve(prog, 1e-4)
        prog.start = loose
        resumed = solve(prog)
        # The same start given to a copy of the program is shifted.
        shifted = solve(replace(prog))
        assert resumed.resumed and not shifted.resumed and shifted.warm
        assert resumed.optimal and shifted.optimal
        assert verify_kkt(prog, resumed).worst < 1e-8
        assert resumed.iterations < shifted.iterations
        # A resumed s outside the cones is moved inside.
        prog.start = replace(loose, s=np.zeros_like(loose.s))
        sol = solve(prog)
        assert sol.resumed and sol.optimal

    def test_solution_holds_its_program_weakly(self):
        # A program whose start is its own solution is no reference cycle:
        # it goes, with its solution, without the cyclic collector.
        rng = np.random.default_rng(47)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        gc.disable()
        try:
            prog.start = solve(prog)
            ref = weakref.ref(prog)
            del prog
            assert ref() is None
        finally:
            gc.enable()


def quasidefinite(rng, n_pos, n_neg, density):
    """A random sparse symmetric quasi-definite matrix: a positive definite
    block of size ``n_pos``, a negative definite one of size ``n_neg`` and
    a coupling block, under a random symmetric permutation."""
    def definite(m):
        S = sp.random(m, m, density=density, random_state=rng)
        S = S + S.T
        return S + sp.diags(abs(S).sum(axis=1).A1 + rng.uniform(0.1, 1.0, m))

    B = sp.random(n_neg, n_pos, density=density, random_state=rng)
    K = sp.bmat([[definite(n_pos), B.T], [B, -definite(n_neg)]], format="csc")
    p = rng.permutation(n_pos + n_neg)
    return K[p][:, p].tocsc()


def ldl_factors(K):
    """The kernel's factors of K's pattern, and K's upper-triangle values."""
    upper = sp.triu(K, format="csc")
    pattern = upper.indptr.astype(np.intc), upper.indices.astype(np.intc)
    return ldl.Factors(*pattern, *ldl.analyze(*pattern)), upper.data


def static_reg(rng, n):
    """A static regularization per row, +-1e-9 with random signs."""
    return rng.choice([-1e-9, 1e-9], n)


class TestLdlKernel:
    """The compiled LDL' kernel the IPM factors its KKT matrix with, and the
    build of the one library that holds it and the cone algebra."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_pos=st.integers(1, 12),
           n_neg=st.integers(1, 12), density=st.floats(0.05, 0.6))
    def test_quasidefinite_matrices_factor_as_superlu_does(
            self, seed, n_pos, n_neg, density):
        # The pivots' signs are the blocks' (n_pos positive), and a solve is
        # as accurate as SuperLU's in the same order, within 10x, or within
        # 10x of rounding's floor, eps (|K| |x| + |b|).
        rng = np.random.default_rng(seed)
        K = quasidefinite(rng, n_pos, n_neg, density)
        factors, values = ldl_factors(K)
        assert factors.factor(values, static_reg(rng, K.shape[0])) == n_pos
        rhs = rng.standard_normal(K.shape[0])
        x = factors.solve(rhs)
        reference = superlu(K, natural=True).solve(rhs)
        floor = np.finfo(float).eps * (
            abs(K).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
        assert np.abs(K @ x - rhs).max() <= 10.0 * max(
            np.abs(K @ reference - rhs).max(), floor)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_pos=st.integers(1, 10),
           n_neg=st.integers(1, 10), density=st.floats(0.05, 0.6),
           extra=st.sampled_from(["none", "cancel", "nan"]))
    def test_factors_are_the_tree_walking_ones(self, seed, n_pos, n_neg,
                                               density, extra):
        # L's rows and values, D and the result are, bit for bit, those of
        # the LDL' that walks the tree for every row (the oracle in
        # helpers). With "cancel", two rows [[1, 1], [1, 1]] join the
        # matrix at random places: the second one's pivot cancels to 0 mid-
        # factorization, and the kernel takes that row's static
        # regularization as the pivot and goes on. With "nan", a row whose
        # diagonal is NaN joins it: the kernel returns -1 at that row,
        # having written what the oracle wrote and nothing more.
        rng = np.random.default_rng(seed)
        K = quasidefinite(rng, n_pos, n_neg, density)
        if extra != "none":
            block = np.ones((2, 2)) if extra == "cancel" else [[np.nan]]
            K = sp.block_diag([K, block], format="csc")
            p = rng.permutation(K.shape[0])
            K = K[p][:, p].tocsc()
        factors, values = ldl_factors(K)
        reg = static_reg(rng, K.shape[0])
        factors.L[0][:] = -1
        for written in factors.L[1:]:
            written[:] = np.nan
        result = factors.factor(values, reg)
        upper = sp.triu(K, format="csc")
        Li, Lx, D, expected = tree_walking_ldl(upper.indptr, upper.indices,
                                               values, reg)
        assert result == expected and (result == -1) == (extra == "nan")
        assert np.array_equal(factors.L[0], Li)
        assert same_bits(factors.L[1], Lx) and same_bits(factors.L[2], D)
        if extra == "cancel":
            # The two rows' second one, in the factorization's order.
            second = max(np.flatnonzero(p >= K.shape[0] - 2))
            assert D[second] == reg[second]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           m=st.integers(0, 60))
    def test_pattern_is_the_unique_one(self, seed, n, m):
        # Entries at random rows and columns, most of them repeated: the
        # counting sort's pattern and slots are np.unique's
        # (helpers.unique_pattern).
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, n, (2, m)).astype(np.intc)
        for a, e in zip(ldl.csc_pattern(rows, cols, n),
                        unique_pattern(rows, cols, n), strict=True):
            assert a.dtype == np.intc and np.array_equal(a, e)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           density=st.floats(0.0, 1.0),
           special=st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0,
                                    -0.0]))
    def test_product_is_scipys_with_the_whole_matrix(self, seed, n, density,
                                                     special):
        # A random upper-triangular pattern, diagonal entries included or
        # not, with a special value among its values and x: the symmetric
        # product from the upper triangle is, bit for bit, scipy's CSC
        # product with the whole matrix (helpers.symmetric).
        rng = np.random.default_rng(seed)
        upper = sp.triu(sp.random(n, n, density=density, random_state=rng),
                        format="csc")
        upper.sort_indices()
        indptr = upper.indptr.astype(np.intc)
        indices = upper.indices.astype(np.intc)
        values, x = upper.data.copy(), rng.standard_normal(n)
        if special is not None:
            for v in (values, x):
                v[rng.random(v.size) < 0.3] = special
        factors = ldl.Factors(indptr, indices, *ldl.analyze(indptr, indices))
        assert same_bits(factors.product(values, x),
                         symmetric(indptr, indices, values) @ x)

    def test_zero_pivot(self):
        # Nonsingular, but the second pivot is 1 - 1 = 0: the kernel takes
        # that row's static regularization as the pivot (a zero one fails
        # the factorization), and two refinement steps against K solve as
        # accurately as SuperLU in the same order, which pivots off the
        # diagonal.
        K = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0],
                                    [0.0, 1.0, -1.0]]))
        factors, values = ldl_factors(K)
        assert factors.factor(values, np.zeros(3)) == -1
        assert factors.factor(values, np.full(3, 1e-9)) == 2
        assert factors.L[2][1] == 1e-9
        rhs = np.array([1.0, 2.0, 3.0])
        x = factors.solve(rhs)
        for _ in range(2):
            x = x + factors.solve(rhs - K @ x)
        reference = superlu(K, natural=True).solve(rhs)
        assert np.abs(K @ x - rhs).max() <= max(
            np.abs(K @ reference - rhs).max(), 1e-15)

    def test_solve_at_a_zero_pivot_is_the_unregularized_one(self):
        # An orthant row that the ordering eliminates before all its
        # neighbours pivots on its own diagonal entry; with W^2 + reg I = 0
        # there, that pivot is exactly zero. The kernel takes the row's
        # static regularization as the pivot, and a refined solve is that
        # of the nonsingular unregularized matrix.
        rng = np.random.default_rng(29)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = prog.cones
        kkt = ipm_session(prog)
        identity = NTScaling(cones.points(cones.identity(), cones.identity()))
        factor(kkt, identity)
        a, first = kkt.analysis, prog.n + prog.A.shape[0]
        leaves = [i for i in range(cones.n_nn) if np.diff(
            a.indptr)[a.position[first + i]] == 1]
        assert leaves
        # The orthant entries of W^2 + reg I come first: w_nn = 0 with
        # reg = 0 writes a zero there.
        w_nn = identity.w_nn.copy()
        w_nn[leaves[0]] = 0.0
        with mock.patch.object(ipm, "REG", 0.0):
            factor(kkt, mock.Mock(w_nn=w_nn, soc_sq=identity.soc_sq))
        leaf = a.position[first + leaves[0]]
        K = kkt_matrix(kkt)
        assert K[leaf, leaf] == 0.0
        assert kkt.D[leaf] == kkt.reg_sign[leaf]
        unregularized = K.toarray() - np.diag(kkt.reg_sign)
        rhs = rng.normal(size=K.shape[0])
        expected = np.linalg.solve(unregularized, rhs[a.order])[a.position]
        np.testing.assert_allclose(kkt_solve(kkt, rhs, 0.0), expected,
                                   rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    def test_solve_needs_a_successful_factorization(self):
        # Before any factorization, and after one that met a NaN pivot
        # part of the way through, L is not written, or only in part: a
        # solve raises instead of reading it, the KKT system's too.
        K = quasidefinite(np.random.default_rng(7), 5, 4, 0.4)
        factors, values = ldl_factors(K)
        rhs, reg = np.ones(K.shape[0]), np.full(K.shape[0], 1e-9)
        with pytest.raises(RuntimeError, match="no successful"):
            factors.solve(rhs)
        assert factors.factor(values, reg) >= 0
        assert np.all(np.isfinite(factors.solve(rhs)))
        # The diagonal entry of a middle column is the last of its column.
        middle = K.shape[0] // 2
        nan_pivot = values.copy()
        nan_pivot[sp.triu(K, format="csc").indptr[middle + 1] - 1] = np.nan
        assert factors.factor(nan_pivot, reg) == -1
        with pytest.raises(RuntimeError, match="no successful"):
            factors.solve(rhs)
        rng = np.random.default_rng(7)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        kkt = ipm_session(prog)
        with pytest.raises(RuntimeError, match="no successful"):
            kkt_solve(kkt, rng.normal(size=kkt.analysis.position.size), 0.0)

    def test_entry_points_match_their_c_definitions(self):
        # Each entry point's ctypes argument and result types have the
        # arity and the int, double or pointer kinds of its definition in
        # ldl.c or cones.c, which ctypes cannot check: an int and a pointer
        # trading places would misread memory. Each declaration of a
        # function of the other source matches its definition, and every
        # function that is not static is an entry point or so declared.
        # The IPM context's address is typed: ctypes passes only an
        # ldl.IpmContext there.
        kinds = {"int": ctypes.c_int, "double": ctypes.c_double,
                 "void": None}
        signature = re.compile(
            r"^(?!static)(int|void|double)\s+(\w+)\(([^)]*)\)\s*([;{])",
            re.MULTILINE)

        def kind(declaration):
            words = declaration.replace("*", " * ").split()
            if "ipm_context" in words:
                return ctypes.POINTER(ldl.IpmContext)
            return ctypes.c_void_p if "*" in words else kinds[words[-2]]

        definitions, declarations = {}, []
        for source in ldl.SOURCES:
            text = re.sub(r"/\*.*?\*/", "", source.read_text(), flags=re.S)
            for result, name, params, end in signature.findall(text):
                params = [] if params == "void" else params.split(",")
                types = ([kind(p) for p in params], kinds[result])
                if end == "{":
                    definitions[name] = types
                else:
                    declarations.append((name, types))
        assert set(ldl._ENTRY_POINTS) <= set(definitions)
        for name, (argtypes, restype) in ldl._ENTRY_POINTS.items():
            assert (argtypes, restype) == definitions[name], name
        for name, types in declarations:
            assert types == definitions[name], name
        assert set(definitions) == \
            set(ldl._ENTRY_POINTS) | {name for name, _ in declarations}

    def test_context_matches_its_c_definition(self):
        # ldl.IpmContext has the fields of struct ipm_context in ldl.c, by
        # name, in order and each of its C kind (int, double or pointer),
        # and the size C gives the struct (ipm_context_size): a field out of
        # place would misread every field after it.
        kinds = {"int": ctypes.c_int, "double": ctypes.c_double}
        text = re.sub(r"/\*.*?\*/", "", ldl.SOURCES[0].read_text(),
                      flags=re.S)
        body = re.search(r"struct ipm_context \{(.*?)\};", text, re.S)[1]
        fields = []
        for declaration in filter(str.strip, body.split(";")):
            base, declarators = re.fullmatch(
                r"\s*(?:const\s+)?(int|double)\s+(.*)", declaration,
                re.S).groups()
            fields += [(d.replace("*", "").strip(),
                        ctypes.c_void_p if "*" in d else kinds[base])
                       for d in declarators.split(",")]
        assert fields == ldl.IpmContext._fields_
        assert ldl._library().ipm_context_size() == \
            ctypes.sizeof(ldl.IpmContext)

    def test_sources_compile_without_warnings(self, tmp_path):
        # The command that builds the library, with -Wall -Wextra -Werror.
        command = [*shlex.split(sysconfig.get_config_var("CC")), *ldl.FLAGS,
                   "-Wall", "-Wextra", "-Werror"]
        ldl._compile(command, tmp_path / "warned.so")
        assert (tmp_path / "warned.so").is_file()

    def test_etree_rejects_an_entry_below_the_diagonal(self):
        lower = sp.csc_matrix(np.array([[2.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="below the diagonal"):
            ldl.etree(lower.indptr.astype(np.intc),
                      lower.indices.astype(np.intc))

    def test_wrong_arrays_raise_before_any_call(self, monkeypatch):
        K = quasidefinite(np.random.default_rng(3), 4, 3, 0.4)
        factors, values = ldl_factors(K)
        upper = sp.triu(K, format="csc")
        indptr = upper.indptr.astype(np.intc)
        indices = upper.indices.astype(np.intc)
        symbolic = ldl.analyze(indptr, indices)
        reg = np.zeros(K.shape[0])
        x = np.ones(K.shape[0])
        entries = np.zeros(3, np.intc)
        calls = []
        monkeypatch.setattr(ldl, "_library", lambda: calls.append(1))
        bad = [
            lambda: ldl.etree(indptr.astype(np.int64), indices),
            lambda: ldl.etree(indptr, indices.astype(np.float64)),
            lambda: ldl.etree(indptr[:-1], indices),
            lambda: ldl.analyze(indptr[:-1], indices),
            lambda: ldl.Factors(indptr, indices[:-1], *symbolic),
            lambda: ldl.Factors(indptr, indices, *symbolic[:2],
                                symbolic[2].astype(np.int64)),
            lambda: ldl.Factors(indptr, indices, *symbolic[:2],
                                symbolic[2][:-1]),
            lambda: ldl.csc_pattern(entries, entries[:-1], 2),
            lambda: ldl.csc_pattern(entries, entries.astype(np.int64), 2),
            lambda: ldl.csc_pattern(np.repeat(entries, 2)[::2], entries, 2),
            lambda: ldl.csc_pattern(entries + 2, entries, 2),
            lambda: ldl.csc_pattern(entries, entries + 2, 2),
            lambda: ldl.csc_pattern(entries, entries - 1, 2),
            lambda: factors.factor(values.astype(np.float32), reg),
            lambda: factors.factor(values[:-1], reg),
            lambda: factors.factor(np.repeat(values, 2)[::2], reg),
            lambda: factors.factor(values, reg[:-1]),
            lambda: factors.solve(np.ones(K.shape[0] + 1)),
            lambda: factors.product(values.astype(np.float32), x),
            lambda: factors.product(values[:-1], x),
            lambda: factors.product(values, x[:-1]),
            lambda: factors.product(values, x.astype(np.float32)),
        ]
        for call in bad:
            with pytest.raises(ValueError):
                call()
        assert not calls

    @staticmethod
    def copy_sources(directory, monkeypatch):
        """Both sources, copied into ``directory`` and built from there."""
        copies = tuple(directory / source.name for source in ldl.SOURCES)
        for source, copy in zip(ldl.SOURCES, copies):
            copy.write_bytes(source.read_bytes())
        monkeypatch.setattr(ldl, "SOURCES", copies)
        return copies

    def test_unwritable_cache_builds_in_a_private_directory(
            self, tmp_path, monkeypatch):
        # No __pycache__ directory can be made next to this copy of the
        # sources (a file holds the name): the one library of both is built
        # in a temporary directory, loaded, and the directory removed.
        self.copy_sources(tmp_path, monkeypatch)
        (tmp_path / "__pycache__").write_text("")
        made, mkdtemp = [], ldl.tempfile.mkdtemp
        monkeypatch.setattr(ldl.tempfile, "mkdtemp",
                            lambda: made.append(mkdtemp()) or made[-1])
        lib = ldl._library.__wrapped__()
        assert lib.ldl_factor.restype is ctypes.c_int
        assert lib.cone_clip_eigenvalues.argtypes[3] is ctypes.c_double
        assert len(made) == 1 and not os.path.exists(made[0])

    def test_new_library_deletes_stale_ones(self, tmp_path, monkeypatch):
        # A build into __pycache__ deletes the libraries of other sources
        # or commands there, conic-<hash>.so and the older ldl-<hash>.so,
        # and no other file: not a compile's temporary file under way
        # (mkstemp's name), nor a name with no 16-digit hash.
        self.copy_sources(tmp_path, monkeypatch)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        stale = ["conic-0123456789abcdef.so", "ldl-fedcba9876543210.so"]
        kept = ["tmpk3_x9q0w.so", "conic-0123.so", "cones-0123456789abcdef.so"]
        for name in stale + kept:
            (cache / name).write_bytes(b"stale")
        command = [*shlex.split(sysconfig.get_config_var("CC")), *ldl.FLAGS]
        built = ldl._cache_path(command)
        lib = ldl._library.__wrapped__()
        assert lib._name == str(built)
        assert sorted(p.name for p in cache.iterdir()) == \
            sorted(kept + [built.name])

    def test_failed_compile_raises_import_error(self, tmp_path, monkeypatch):
        # Either source failing to compile fails the one library.
        for copy in self.copy_sources(tmp_path, monkeypatch):
            good = copy.read_bytes()
            copy.write_text("int broken(\n")
            with pytest.raises(ImportError,
                               match="compiling ldl.c and cones.c failed") \
                    as info:
                ldl._library.__wrapped__()
            assert "-ffp-contract=off" in str(info.value)   # the command
            assert f"{copy.name}:1" in str(info.value)      # its stderr
            assert not list((tmp_path / "__pycache__").iterdir())
            copy.write_bytes(good)

    def test_cache_key_covers_both_sources(self, tmp_path, monkeypatch):
        # A change to either source, or to the command, names another
        # library; the same sources and command name the same one.
        command = ["cc", *ldl.FLAGS]
        copies = self.copy_sources(tmp_path, monkeypatch)
        key = ldl._cache_path(command)
        assert key.parent == tmp_path / "__pycache__"
        assert ldl._cache_path(command) == key
        assert ldl._cache_path(["cc", "-O3"]) != key
        keys = {key}
        for copy in copies:
            good = copy.read_bytes()
            copy.write_bytes(good + b"\n")
            keys.add(ldl._cache_path(command))
            copy.write_bytes(good)
            assert ldl._cache_path(command) == key
        assert len(keys) == 3


def blocks(prog, half_range):
    """The program's blocks (pattern, data, rhs), patterns over the
    variables of ``half_range``."""
    return [(RowPattern(M.indptr, M.indices, half_range), M.data, rhs)
            for M, rhs in ((prog.A, prog.b), (prog.G, prog.h))]


def scaled(prog, record):
    """The program in the variables ``record`` scales (``scale_program``),
    with its linear cost half_range * c and the constant c' offset."""
    (A, a, b), (G, g, h) = scale_program(*blocks(prog, record.half_range),
                                         record.offset)
    return replace(prog, A=A.matrix(a), b=b, G=G.matrix(g), h=h,
                   c=record.half_range * prog.c,
                   obj_offset=prog.obj_offset + prog.c @ record.offset)


def equilibrated(prog):
    """The program with its rows equilibrated (``equilibrate_rows``), each
    row's entries in its stored order."""
    (A, a, b), (G, g, h) = equilibrate_rows(*blocks(prog, np.ones(prog.n)),
                                            prog.cones)
    return replace(prog, b=b, h=h, **{
        name: sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
        for name, M, data in (("A", A, a), ("G", G, g))})


class TestScaling:
    def test_midpoint_maps_to_zero(self):
        rec = make_scaling(np.array([0.0]), np.array([10.0]))
        assert rec.scale(np.array([5.0]))[0] == 0.0
        assert rec.unscale(rec.scale(np.array([7.3])))[0] == pytest.approx(7.3, abs=1e-12)

    def test_unit_box_is_identity(self):
        rec = make_scaling(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(rec.scale(x), x)

    def test_degenerate_bounds_error_names_variable(self):
        with pytest.raises(ValueError, match="variable #1:"):
            make_scaling(np.array([0.0, 2.0]), np.array([1.0, 2.0]))

    def test_scaled_lp_same_argmin(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            _, q, G, h, A, b = random_feasible_qp(rng, n=4, m=6, with_eq=True)
            # The box |x| <= 10 keeps the linear program bounded.
            G = np.vstack([G, np.eye(4), -np.eye(4)])
            h = np.concatenate([h, np.full(8, 10.0)])
            prog = ConicProgram(c=q, G=sp.csr_matrix(G), h=h,
                                cones=Cones(G.shape[0]),
                                A=sp.csr_matrix(A), b=np.atleast_1d(b))
            direct = solve(prog)
            lo = direct.x - rng.uniform(1.0, 5.0, size=4)
            hi = direct.x + rng.uniform(1.0, 5.0, size=4)
            record = make_scaling(lo, hi)
            kept = [M.copy() for M in (prog.A, prog.G)]
            program = scaled(prog, record)
            # The caller's matrices are left as they were.
            for M, copy in zip((prog.A, prog.G), kept):
                assert np.array_equal(M.data, copy.data)
                assert np.array_equal(M.indices, copy.indices)
            sol_scaled = solve(program)
            assert sol_scaled.optimal
            np.testing.assert_allclose(record.unscale(sol_scaled.x), direct.x,
                                       atol=1e-6)
            assert sol_scaled.objective == pytest.approx(direct.objective, abs=1e-6)

    def test_equilibrate_rows_skips_rows_without_entries(self):
        # Row maxima come from the stored entries only: a row that stores
        # none, between rows that do, is scaled by |h| alone (or the floor).
        G = np.array([[3.0, -4.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        h = np.array([1.0, 2.0, 0.25, 0.0])
        prog = lp([1.0, 1.0], G, h, A=[[0.0, 0.0], [2.0, -8.0]], b=[0.0, 4.0])
        eq = equilibrated(prog)
        divisor = np.array([4.0, 2.0, 0.5, 1e-12])
        np.testing.assert_allclose(eq.h, h / divisor, rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.G.toarray(), G / divisor[:, None],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.b, [0.0, 0.5], rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.A.toarray(), [[0.0, 0.0], [0.25, -1.0]],
                                   rtol=1e-15, atol=0)

    def test_equilibrate_rows_one_scalar_per_soc_block(self):
        # A draw whose own solves at 1e-8 and 1e-12 agree in x within 1e-9,
        # so the last check reads the equilibration, not the solve's
        # tolerance (seed 61's draw: 1.1e-6 apart).
        rng = np.random.default_rng(67)
        prog = random_feasible_conic(rng, n=5, me=1, cones=MULTI_BLOCK_CONES,
                                     rank=5)
        G, h = prog.G.toarray(), prog.h
        row_scale = np.maximum(np.abs(G).max(axis=1), np.abs(h))
        soc_blocks, nn_rows = (slice(3, 6), slice(6, 9)), [0, 1, 2]
        for block in soc_blocks:
            # Rows of one block need different scalars of their own.
            assert row_scale[block].min() < 0.9 * row_scale[block].max()
        eq = equilibrated(prog)
        divisor = h / eq.h
        np.testing.assert_allclose(eq.G.toarray() * divisor[:, None], G,
                                   rtol=1e-15, atol=0)
        for block in soc_blocks:
            np.testing.assert_allclose(divisor[block], row_scale[block].max(),
                                       rtol=1e-15)
        np.testing.assert_allclose(divisor[nn_rows], row_scale[nn_rows],
                                   rtol=1e-15)
        before, after = solve(prog), solve(eq)
        assert before.optimal and after.optimal
        np.testing.assert_allclose(after.x, before.x, rtol=0, atol=1e-9)
