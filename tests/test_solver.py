"""Conic solver tests: hand fixtures, the active-set enumeration oracle,
scaling equivalence, KKT residuals (``helpers.verify_kkt``) and
determinism.
"""

import gc
import itertools
import math
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from rlv_landing.conic import (
    NONNEG,
    SOC,
    ConeBlock,
    ConicProgram,
    make_scaling,
    scale_program,
    solve,
)
from rlv_landing.conic import ipm
from rlv_landing.conic.cones import Cones
from rlv_landing.conic.ipm import _Kkt, _NTScaling
from rlv_landing.conic.scaling import equilibrate_rows

from helpers import INTERLEAVED_CONES, verify_kkt


def lp(c, G, h, A=None, b=None):
    prog = ConicProgram(c=np.asarray(c, float))
    if G is not None:
        G = sp.csr_matrix(np.atleast_2d(np.asarray(G, float)))
        prog.G = G
        prog.h = np.asarray(h, float)
        prog.cones = [ConeBlock(NONNEG, G.shape[0])]
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
    """A point strictly inside the product of cone blocks."""
    parts = []
    for cb in cones:
        if cb.kind == NONNEG:
            parts.append(rng.uniform(*margin, size=cb.dim))
        else:
            u = rng.normal(size=cb.dim - 1)
            parts.append(np.concatenate([[np.linalg.norm(u) + rng.uniform(*margin)], u]))
    return np.concatenate(parts)


def random_feasible_conic(rng, n, me, cones, rank):
    """A conic program with strictly feasible primal and dual points, so
    that an optimum exists; P = M M' with M of the given rank (all zeros
    at 0)."""
    mi = sum(cb.dim for cb in cones)
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
                        h=h / scale, cones=list(cones),
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
            cones=[ConeBlock(SOC, 3)],
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
                            cones=[ConeBlock(SOC, 3)], obj_offset=4.0 + 16.0)
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
        # x >= 1 and x <= 0 cannot both hold.
        sol = solve(lp([1.0], [[-1.0], [1.0]], [-1.0, 0.0]))
        assert sol.status in ("infeasible", "max_iter", "numerical_failure")
        assert sol.status == "infeasible"

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
        # lower mu end the solve (the hard stall) before the duals form a
        # Farkas certificate or the growth window fills. Either exit labels
        # a stall by its distance to feasibility.
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
            cones=[ConeBlock(NONNEG, 2), ConeBlock(SOC, 3)],
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
                          h=np.zeros(2), cones=[ConeBlock(NONNEG, 1)]),
     "inequality block"),
    (lambda: ConicProgram(c=np.zeros(2), G=sp.csr_matrix((2, 2)),
                          h=np.zeros(2), cones=[ConeBlock(NONNEG, 1)]),
     "cone dimensions"),
    (lambda: ConicProgram(c=np.zeros(2), P=sp.csr_matrix((2, 3))),
     "quadratic term"),
    (lambda: ConicProgram(c=np.zeros(2), P=sp.csr_matrix(np.eye(2)),
                          A=sp.csr_matrix([[1.0, 1.0]]), b=np.ones(1)),
     "no cone rows"),
    (lambda: ConeBlock("psd", 3), "unknown cone kind"),
    (lambda: ConeBlock(NONNEG, 0), "bad cone dimension"),
    (lambda: ConeBlock(SOC, 1), "bad cone dimension"),
], ids=["equality", "inequality", "cones", "quadratic", "cone-free",
        "cone-kind", "nonneg-dim", "soc-dim"])
def test_inconsistent_program_raises(make, message):
    # A cone block is checked when made, a program when solved.
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
                        cones=[ConeBlock(NONNEG, 3)])
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
                cones=[ConeBlock(NONNEG, G.shape[0])])
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
            cones=[ConeBlock(SOC, 3)],
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
                cones=[ConeBlock(SOC, 3)],
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
                            cones=[ConeBlock(NONNEG, G.shape[0])],
                            A=sp.csr_matrix(A), b=np.atleast_1d(b))
        sol1 = solve(prog)
        sol2 = solve(prog)
        assert sol1.x.tobytes() == sol2.x.tobytes()
        assert sol1.iterations == sol2.iterations


class CountingSpla:
    """Stands in for ``scipy.sparse.linalg`` inside ``ipm``, recording the
    column ordering each factorization asked for."""

    def __init__(self):
        self.orderings = []

    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, K, **kwargs):
        self.orderings.append(kwargs.get("permc_spec"))
        return spla.splu(K, **kwargs)


MIXED_CONES = [ConeBlock(NONNEG, 3), ConeBlock(SOC, 3), ConeBlock(SOC, 4),
               ConeBlock(NONNEG, 2), ConeBlock(SOC, 3)]


class TestQuasiDefiniteKkt:
    """The IPM's KKT matrix: refilled in place in a pattern permuted by the
    first factorization's ordering, or by a reused analysis, factored
    without pivoting and solved in that ordering."""

    @staticmethod
    def fresh(prog, scaling, reg):
        """The KKT matrix assembled afresh, the -(W^2 + reg I) block from
        W applied twice to unit vectors."""
        n, me, mi = prog.n, prog.A.shape[0], prog.G.shape[0]
        W2 = np.column_stack([scaling.apply(scaling.apply(e))
                              for e in np.eye(mi)])
        return sp.bmat([[prog.P + reg * sp.eye(n), prog.A.T, prog.G.T],
                        [prog.A, -reg * sp.eye(me), None],
                        [prog.G, None, -(sp.csr_matrix(W2) + reg * sp.eye(mi))]],
                       format="csc")

    def test_refill_matches_fresh_assembly(self):
        rng = np.random.default_rng(41)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        reg = ipm.REG
        cones = Cones(prog.cones)
        kkt = _Kkt(prog.P, prog.A, prog.G, cones)
        kkt.factor(_NTScaling(cones.points(cones.identity(), cones.identity())))
        assert not np.array_equal(kkt.position, np.arange(kkt.K.shape[0]))
        for _ in range(5):
            scaling = _NTScaling(cones.points(interior_point(rng, prog.cones),
                                              interior_point(rng, prog.cones)))
            kkt.factor(scaling)
            coo = kkt.K.tocoo()
            refilled = sp.csc_matrix(
                (coo.data, (kkt.order[coo.row], kkt.order[coo.col])),
                shape=kkt.K.shape)
            fresh = self.fresh(prog, scaling, reg)
            np.testing.assert_array_equal(refilled.indptr, fresh.indptr)
            np.testing.assert_array_equal(refilled.indices, fresh.indices)
            np.testing.assert_allclose(refilled.data, fresh.data, rtol=0,
                                       atol=1e-15 * np.abs(fresh.data).max())

            rhs = rng.normal(size=kkt.K.shape[0])
            lu = spla.splu(fresh)
            unreg = self.fresh(prog, scaling, 0.0)
            expected = lu.solve(rhs)
            for _ in range(2):
                expected = expected + lu.solve(rhs - unreg @ expected)
            np.testing.assert_allclose(kkt.solve(rhs, tol=0.0), expected,
                                       rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_solves_in_the_factor_ordering(self):
        # Every KKT solve, with the first (minimum-degree) factorization, a
        # later one, and one on a reused analysis, refined in K's ordering
        # against the unregularized matrix assembled afresh.
        rng = np.random.default_rng(53)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = Cones(prog.cones)
        first = _Kkt(prog.P, prog.A, prog.G, cones)
        for i in range(3):
            kkt = first if i < 2 else \
                _Kkt(prog.P, prog.A, prog.G, cones, first.analysis)
            scaling = _NTScaling(cones.points(interior_point(rng, prog.cones),
                                              interior_point(rng, prog.cones)))
            kkt.factor(scaling)
            assert kkt.reordered == (kkt is first)
            rhs = rng.normal(size=kkt.K.shape[0])
            residual = rhs - self.fresh(prog, scaling, 0.0) @ kkt.solve(rhs, 0.0)
            assert np.abs(residual).max() <= 1e-12 * np.abs(rhs).max()

    @staticmethod
    def factored(seed):
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = Cones(prog.cones)
        kkt = _Kkt(prog.P, prog.A, prog.G, cones)
        scaling = _NTScaling(cones.points(interior_point(rng, prog.cones),
                                          interior_point(rng, prog.cones)))
        kkt.factor(scaling)
        return prog, scaling, kkt, rng.normal(size=kkt.K.shape[0])

    @staticmethod
    def count_lu_solves(kkt, bad_call=None):
        """Count the calls of the factor's solve; the ``bad_call``-th
        returns 1000 times the LU solve, a step that raises the residual."""
        calls = []
        inner = kkt._lu_solve

        def counted(rhs):
            calls.append(rhs)
            out = inner(rhs)
            return 1e3 * out if len(calls) == bad_call else out

        kkt._lu_solve = counted
        return calls

    def test_refines_only_while_the_residual_needs_it(self):
        prog, scaling, kkt, rhs = self.factored(61)
        first = kkt.solve(rhs, math.inf)
        residual = rhs - self.fresh(prog, scaling, 0.0) @ first
        relative = np.abs(residual).max() / max(1.0, np.abs(rhs).max())
        assert relative > 0.0
        calls = self.count_lu_solves(kkt)
        # The first residual meets the tolerance: one LU solve, no residual
        # step.
        np.testing.assert_array_equal(kkt.solve(rhs, 2.0 * relative), first)
        assert len(calls) == 1
        # It misses it: one refinement step meets it, and ends the
        # refinement.
        calls.clear()
        refined = kkt.solve(rhs, 0.5 * relative)
        assert len(calls) == 2
        after = rhs - self.fresh(prog, scaling, 0.0) @ refined
        assert np.abs(after).max() < np.abs(residual).max()

    def test_step_that_raises_the_residual_is_dropped(self):
        prog, scaling, kkt, rhs = self.factored(67)
        first = kkt.solve(rhs, math.inf)
        calls = self.count_lu_solves(kkt, bad_call=2)
        np.testing.assert_array_equal(kkt.solve(rhs, 0.0), first)
        assert len(calls) == 2

    def test_reused_analysis_fills_the_same_matrix(self):
        rng = np.random.default_rng(59)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = Cones(prog.cones)
        scaling = _NTScaling(cones.points(interior_point(rng, prog.cones),
                                          interior_point(rng, prog.cones)))
        first = _Kkt(prog.P, prog.A, prog.G, cones)
        first.factor(scaling)
        again = _Kkt(prog.P, prog.A, prog.G, cones, first.analysis)
        again.factor(scaling)
        assert again.analysis is first.analysis
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again.K, name), getattr(first.K, name))

    def test_analysis_holds_only_index_arrays_of_its_own(self):
        # It outlives the solve on its solution: after the factorization
        # that makes it and after one of a KKT system that reuses it, none
        # of its arrays is a view of P, A, G or K, and its slots are int32.
        rng = np.random.default_rng(71)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        P, A, G = prog.P.tocsr(), prog.A.tocsr(), prog.G.tocsr()
        cones = Cones(prog.cones)

        def factored(analysis=None):
            kkt = _Kkt(P, A, G, cones, analysis)
            kkt.factor(_NTScaling(cones.points(interior_point(rng, prog.cones),
                                               interior_point(rng, prog.cones))))
            return kkt

        first = factored()
        for kkt in (first, factored(first.analysis)):
            analysis = kkt.analysis
            assert analysis is first.analysis
            held = [*analysis.pattern] + [
                getattr(analysis, f.name) for f in fields(analysis)
                if f.name != "pattern"]
            for array in held:
                for M in (P, A, G, kkt.K):
                    for other in (M.data, M.indices, M.indptr):
                        assert not np.shares_memory(array, other)
            assert analysis.value_slots.dtype == np.int32
            assert analysis.w2_slots.dtype == np.int32

    def test_freed_without_the_cycle_collector(self):
        # Each solve's KKT system and LU factors go when the solve returns;
        # a reference cycle would keep them until a collection and show up
        # in the plans' peak memory.
        rng = np.random.default_rng(43)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = Cones(prog.cones)
        gc.disable()
        try:
            kkt = _Kkt(prog.P, prog.A, prog.G, cones)
            for _ in range(2):
                kkt.factor(_NTScaling(cones.points(interior_point(rng, prog.cones),
                                                   interior_point(rng, prog.cones))))
            ref = weakref.ref(kkt)
            del kkt
            assert ref() is None
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           me=st.integers(0, 3), rank=st.integers(0, 8),
           blocks=st.lists(st.one_of(
               st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 5)),
               st.builds(ConeBlock, st.just(SOC), st.integers(2, 5))),
               min_size=1, max_size=4))
    def test_random_feasible_programs_solve(self, seed, n, me, rank, blocks):
        prog = random_feasible_conic(np.random.default_rng(seed), n,
                                     min(me, n - 1), blocks, min(rank, n))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert verify_kkt(prog, sol).worst < 1e-8


BLOCK_LISTS = st.lists(st.one_of(
    st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 5)),
    st.builds(ConeBlock, st.just(SOC), st.integers(2, 5))),
    min_size=1, max_size=4)
# Mixed layouts, the interleaved one, orthant-only and SOC-only ones.
LAYOUTS = st.one_of(
    BLOCK_LISTS, st.just(INTERLEAVED_CONES),
    st.lists(st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 5)),
             min_size=1, max_size=4),
    st.lists(st.builds(ConeBlock, st.just(SOC), st.integers(2, 5)),
             min_size=1, max_size=4))


def block_step(cb, u, du):
    """One point's step to the boundary of one cone block: the orthant
    ratio test, or the SOC step of the Lorentz-transformed direction
    rho, 1 / (||rho_1|| - rho_0); inf when unbounded."""
    if cb.kind == NONNEG:
        return min((-ui / di for ui, di in zip(u, du) if di < 0),
                   default=math.inf)
    norm_j = np.sqrt(u[0] ** 2 - np.add.reduce(u[1:] ** 2))
    ubar, dbar = u / norm_j, du / norm_j
    rho0 = ubar[0] * dbar[0] - np.add.reduce(ubar[1:] * dbar[1:])
    rho1 = dbar[1:] - ubar[1:] * ((rho0 + dbar[0]) / (ubar[0] + 1.0))
    worst = float(np.sqrt(np.add.reduce(rho1 * rho1)) - rho0)
    return 1.0 / worst if worst > 0.0 else math.inf


def point_step(blocks, u, du):
    """The step of one point: the least block step, block by block."""
    alpha, start = math.inf, 0
    for cb in blocks:
        part = slice(start, start + cb.dim)
        alpha = min(alpha, block_step(cb, u[part], du[part]))
        start += cb.dim
    return alpha


def step_case(seed, blocks, unbounded):
    """Two interior points and their directions; the member ``unbounded``
    (0 or 1, or None) moves along an interior direction, which never
    leaves the cones."""
    rng = np.random.default_rng(seed)
    u = [interior_point(rng, blocks, margin=(1e-3, 1.0)) for _ in range(2)]
    du = [rng.normal(size=u[0].size) * 10.0 ** rng.uniform(-2, 2)
          for _ in range(2)]
    if unbounded is not None:
        du[unbounded] = interior_point(rng, blocks)
    return u, du


def nt_reference(cones, s, z):
    """The NT scaling (w_nn, W, W^{-1}, W^2 per SOC group) built from s
    and z alone."""
    w_nn = np.sqrt(s[cones.nn] / z[cones.nn])
    mats, inv, sq = {}, {}, {}
    for d, idx in cones.soc.items():
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
        mats[d] = eta[:, None, None] * W
        Winv = W.copy()
        Winv[:, 0, 1:] *= -1.0
        Winv[:, 1:, 0] *= -1.0
        inv[d] = Winv / eta[:, None, None]
        sq[d] = np.einsum("nij,njk->nik", mats[d], mats[d])
    return w_nn, mats, inv, sq


class TestStepLength:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=BLOCK_LISTS,
           unbounded=st.sampled_from([None, 0, 1]))
    def test_max_step_is_the_boundary(self, seed, blocks, unbounded):
        # The closed-form steps of both points of a pair against a
        # bisection on the interior test: u + t du is inside the cones for
        # t below the step, outside above.
        cones = Cones(blocks)
        u, du = step_case(seed, blocks, unbounded)
        for member, alpha in enumerate(cones.points(*u).max_steps(*du)):
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
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=LAYOUTS,
           unbounded=st.sampled_from([None, 0, 1]))
    def test_paired_steps_are_the_single_steps(self, seed, blocks, unbounded):
        # One stacked pass gives each point the step that point alone
        # gives, to the bit.
        cones = Cones(blocks)
        u, du = step_case(seed, blocks, unbounded)
        paired = cones.points(*u).max_steps(*du)
        assert paired == [point_step(blocks, u[i], du[i]) for i in range(2)]
        if unbounded is not None:
            assert paired[unbounded] == math.inf

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=LAYOUTS)
    def test_paired_interior_test_is_the_single_one(self, seed, blocks):
        # The violations of a pair are those of each point alone, for points
        # inside and outside the cones.
        rng = np.random.default_rng(seed)
        cones = Cones(blocks)
        u = [interior_point(rng, blocks) - rng.uniform(0, 2) * cones.identity()
             for _ in range(2)]
        single = []
        for v in u:
            worst, start = -math.inf, 0
            for cb in blocks:
                b = v[start:start + cb.dim]
                start += cb.dim
                worst = max(worst, float(-b.min()) if cb.kind == NONNEG else
                            float(np.sqrt(np.add.reduce(b[1:] ** 2)) - b[0]))
            single.append(worst)
        assert cones.points(*u).violations() == single

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=LAYOUTS)
    def test_scaling_from_the_pair_is_the_one_from_s_and_z(self, seed, blocks):
        # The NT scaling built from the iterate's cone data equals, byte for
        # byte, the one built from s and z: W, W^{-1}, W^2 + reg I and
        # lambda = W z.
        rng = np.random.default_rng(seed)
        cones = Cones(blocks)
        s, z = interior_point(rng, blocks), interior_point(rng, blocks)
        scaling = _NTScaling(cones.points(s, z))
        w_nn, mats, inv, sq = nt_reference(cones, s, z)
        assert scaling.w_nn.tobytes() == w_nn.tobytes()
        for d in cones.soc:
            assert scaling.soc_mats[d].tobytes() == mats[d].tobytes()
            assert scaling.soc_inv[d].tobytes() == inv[d].tobytes()
        w2 = np.concatenate([w_nn ** 2 + ipm.REG] + [
            (sq[d] + ipm.REG * np.eye(d)).reshape(-1) for d in cones.soc])
        assert scaling.w2_entries(ipm.REG).tobytes() == w2.tobytes()
        lam = np.zeros_like(z)
        lam[cones.nn] = w_nn * z[cones.nn]
        for d, idx in cones.soc.items():
            lam.flat[idx] = np.einsum("nij,nj->ni", mats[d], z[idx])
        assert scaling.lam.u[0].tobytes() == lam.tobytes()


class TestWarmStart:
    """A solve from ``program.start``: used when its shapes match the
    program, and ignored (a cold solve) when they do not. Its KKT analysis
    is reused when the pattern matches, and a start from the same program is
    resumed unshifted."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 8),
           me=st.integers(0, 3),
           blocks=st.lists(st.one_of(
               st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 5)),
               st.builds(ConeBlock, st.just(SOC), st.integers(2, 5))),
               min_size=1, max_size=4))
    def test_perturbed_program_from_previous_optimum(self, seed, n, me, blocks):
        # P + I makes the objective strongly convex, so both solves pin down
        # the one optimum to about their KKT residual; h moves along a point
        # inside the cones, so the perturbed program stays feasible.
        rng = np.random.default_rng(seed)
        prog = random_feasible_conic(rng, n, min(me, n - 1), blocks, n)
        prog.P = prog.P + sp.eye(n, format="csr")
        first = solve(prog)
        assert first.optimal
        perturbed = replace(
            prog, c=prog.c + 1e-2 * rng.normal(size=n),
            h=prog.h + 1e-2 * interior_point(rng, blocks), start=first)
        spla_ = CountingSpla()
        with mock.patch.object(ipm, "spla", spla_):
            warm = solve(perturbed)
        # The same pattern as the start's: its ordering is reused.
        assert spla_.orderings and set(spla_.orderings) == {"NATURAL"}
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
            P, q, G, h, A, b = random_feasible_qp(rng, n=4, m=6, with_eq=True)
            prog = ConicProgram(c=q, P=sp.csr_matrix(P), G=sp.csr_matrix(G), h=h,
                                cones=[ConeBlock(NONNEG, G.shape[0])],
                                A=sp.csr_matrix(A), b=np.atleast_1d(b))
            direct = solve(prog)
            lo = direct.x - rng.uniform(1.0, 5.0, size=4)
            hi = direct.x + rng.uniform(1.0, 5.0, size=4)
            record = make_scaling(lo, hi)
            kept = [M.copy() for M in (prog.A, prog.G, prog.P)]
            scaled = scale_program(replace(prog), record)
            # The caller's matrices are left as they were.
            for M, copy in zip((prog.A, prog.G, prog.P), kept):
                assert np.array_equal(M.data, copy.data)
                assert np.array_equal(M.indices, copy.indices)
            sol_scaled = solve(scaled)
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
        eq = equilibrate_rows(replace(prog))
        divisor = np.array([4.0, 2.0, 0.5, 1e-12])
        np.testing.assert_allclose(eq.h, h / divisor, rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.G.toarray(), G / divisor[:, None],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.b, [0.0, 0.5], rtol=1e-15, atol=0)
        np.testing.assert_allclose(eq.A.toarray(), [[0.0, 0.0], [0.25, -1.0]],
                                   rtol=1e-15, atol=0)

    def test_equilibrate_rows_one_scalar_per_soc_block(self):
        rng = np.random.default_rng(61)
        prog = random_feasible_conic(rng, n=5, me=1, cones=INTERLEAVED_CONES,
                                     rank=5)
        G, h = prog.G.toarray(), prog.h
        row_scale = np.maximum(np.abs(G).max(axis=1), np.abs(h))
        soc_blocks, nn_rows = (slice(0, 3), slice(5, 7)), [3, 4, 7]
        for block in soc_blocks:
            # Rows of one block need different scalars of their own.
            assert row_scale[block].min() < 0.9 * row_scale[block].max()
        eq = equilibrate_rows(replace(prog))
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
