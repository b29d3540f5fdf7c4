"""Conic solver tests: hand fixtures, the active-set enumeration oracle,
scaling equivalence, KKT verification, determinism, and dump/load.
"""

import gc
import itertools
import weakref
from dataclasses import replace
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
    SolverSettings,
    cone_violation,
    dump_program,
    load_program,
    scale_program,
    solve,
    verify_kkt,
)
from rlv_landing.conic import ipm
from rlv_landing.conic.ipm import _Cones, _Kkt, _NTScaling


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
    that an optimum exists; P = M M' with M of the given rank (None at 0)."""
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
                        P=sp.csr_matrix(P) if rank else None)
    if me:
        prog.A, prog.b = sp.csr_matrix(A), b / scale
    return prog


class TestHandFixtures:
    def test_1d_lp(self):
        # min x s.t. x >= 1
        sol = solve(lp([1.0], [[-1.0]], [-1.0]))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_equality_qp(self):
        # min x^2 + y^2 s.t. x + y = 2  ->  (1, 1), objective 2
        prog = ConicProgram(c=np.zeros(2), P=sp.csr_matrix(2 * np.eye(2)),
                            A=sp.csr_matrix([[1.0, 1.0]]), b=np.array([2.0]))
        sol = solve(prog)
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("n, me", [(5, 0), (6, 2), (8, 5)])
    def test_equality_qp_matches_dense_kkt(self, n, me):
        # No cones: one KKT solve, against a dense solve of
        # [[P, A'], [A, 0]] [x; y] = [-c; b] with P > 0, A of full row rank.
        rng = np.random.default_rng(61 + n)
        M = rng.normal(size=(n, n))
        P = M @ M.T + np.eye(n)
        A = rng.normal(size=(me, n))
        c, b = rng.normal(size=n), rng.normal(size=me)
        prog = ConicProgram(c=c, P=sp.csr_matrix(P), A=sp.csr_matrix(A), b=b)
        sol = solve(prog)
        K = np.block([[P, A.T], [A, np.zeros((me, me))]])
        expected = np.linalg.solve(K, np.concatenate([-c, b]))
        assert sol.optimal
        np.testing.assert_allclose(sol.x, expected[:n], rtol=0, atol=1e-10)
        np.testing.assert_allclose(sol.y, expected[n:], rtol=0, atol=1e-10)

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
        sol = solve(prog, SolverSettings(tol_feas=tol, tol_gap=tol))
        assert sol.status == status
        assert sol.primal_res == pytest.approx(primal_res, rel=0.1)

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

    def counted(program, settings):
        calls.append((program, settings))
        return result

    monkeypatch.setattr(ipm, "solve", counted)
    prog = lp([1.0], [[-1.0]], [-2.0])
    loose = SolverSettings(tol_feas=1e-4, tol_gap=1e-4)
    assert ipm.solve_robust(prog, loose) is result
    assert calls == [(prog, loose)]


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
        W^2 applied to unit vectors."""
        n, me, mi = prog.n, prog.A.shape[0], prog.G.shape[0]
        W2 = np.column_stack([scaling.apply_sq(e) for e in np.eye(mi)])
        return sp.bmat([[prog.P + reg * sp.eye(n), prog.A.T, prog.G.T],
                        [prog.A, -reg * sp.eye(me), None],
                        [prog.G, None, -(sp.csr_matrix(W2) + reg * sp.eye(mi))]],
                       format="csc")

    def test_refill_matches_fresh_assembly(self):
        rng = np.random.default_rng(41)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        reg = ipm.REG
        cones = _Cones(prog.cones)
        kkt = _Kkt(prog.P, prog.A, prog.G, cones)
        kkt.factor(_NTScaling(cones, cones.identity(), cones.identity()))
        assert not np.array_equal(kkt.position, np.arange(kkt.K.shape[0]))
        for _ in range(5):
            scaling = _NTScaling(cones, interior_point(rng, prog.cones),
                                 interior_point(rng, prog.cones))
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
            np.testing.assert_allclose(kkt.solve(rhs, refine_steps=2), expected,
                                       rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_solves_in_the_factor_ordering(self):
        # Every KKT solve, with the first (minimum-degree) factorization, a
        # later one, and one on a reused analysis, refined in K's ordering
        # against the unregularized matrix assembled afresh.
        rng = np.random.default_rng(53)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = _Cones(prog.cones)
        first = _Kkt(prog.P, prog.A, prog.G, cones)
        for i in range(3):
            kkt = first if i < 2 else \
                _Kkt(prog.P, prog.A, prog.G, cones, first.analysis)
            scaling = _NTScaling(cones, interior_point(rng, prog.cones),
                                 interior_point(rng, prog.cones))
            kkt.factor(scaling)
            assert kkt.reordered == (kkt is first)
            rhs = rng.normal(size=kkt.K.shape[0])
            residual = rhs - self.fresh(prog, scaling, 0.0) @ kkt.solve(rhs, 2)
            assert np.abs(residual).max() <= 1e-12 * np.abs(rhs).max()

    def test_reused_analysis_fills_the_same_matrix(self):
        rng = np.random.default_rng(59)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = _Cones(prog.cones)
        scaling = _NTScaling(cones, interior_point(rng, prog.cones),
                             interior_point(rng, prog.cones))
        first = _Kkt(prog.P, prog.A, prog.G, cones)
        first.factor(scaling)
        again = _Kkt(prog.P, prog.A, prog.G, cones, first.analysis)
        again.factor(scaling)
        assert again.analysis is first.analysis
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again.K, name), getattr(first.K, name))

    def test_freed_without_the_cycle_collector(self):
        # Each solve's KKT system and LU factors go when the solve returns;
        # a reference cycle would keep them until a collection and show up
        # in the plans' peak memory.
        rng = np.random.default_rng(43)
        prog = random_feasible_conic(rng, n=6, me=2, cones=MIXED_CONES, rank=3)
        cones = _Cones(prog.cones)
        gc.disable()
        try:
            kkt = _Kkt(prog.P, prog.A, prog.G, cones)
            for _ in range(2):
                kkt.factor(_NTScaling(cones, interior_point(rng, prog.cones),
                                      interior_point(rng, prog.cones)))
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


class TestStepLength:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           blocks=st.lists(st.one_of(
               st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 5)),
               st.builds(ConeBlock, st.just(SOC), st.integers(2, 5))),
               min_size=1, max_size=4))
    def test_max_step_is_the_boundary(self, seed, blocks):
        # The closed-form step against a bisection on the interior test:
        # u + t du is inside the cones for t below the step, outside above.
        rng = np.random.default_rng(seed)
        cones = _Cones(blocks)
        u = interior_point(rng, blocks, margin=(1e-3, 1.0))
        du = rng.normal(size=u.size) * 10.0 ** rng.uniform(-2, 2)
        alpha = cones.max_step(u, du)

        def inside(t):
            return cones.interior_violation(u + t * du) < 0

        if np.isinf(alpha):
            assert inside(1e8)
            return
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
        tight = SolverSettings(tol_feas=1e-10, tol_gap=1e-10)
        warm = solve(perturbed, tight)
        cold = solve(replace(perturbed, start=None), tight)
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
        loose = solve(prog, SolverSettings(tol_feas=1e-4, tol_gap=1e-4))
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
        from rlv_landing.conic import make_scaling
        rec = make_scaling(np.array([0.0]), np.array([10.0]))
        assert rec.scale(np.array([5.0]))[0] == 0.0
        assert rec.unscale(rec.scale(np.array([7.3])))[0] == pytest.approx(7.3, abs=1e-12)

    def test_unit_box_is_identity(self):
        from rlv_landing.conic import make_scaling
        rec = make_scaling(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(rec.scale(x), x)

    def test_degenerate_bounds_error_names_variable(self):
        prog = lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        prog.var_names = ["alpha", "beta"]
        with pytest.raises(ValueError, match="beta"):
            scale_program(prog, np.array([0.0, 2.0]), np.array([1.0, 2.0]))

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
            scaled = scale_program(prog, lo, hi)
            sol_scaled = solve(scaled)
            assert sol_scaled.optimal
            np.testing.assert_allclose(sol_scaled.x_physical(scaled), direct.x,
                                       atol=1e-6)
            assert sol_scaled.objective == pytest.approx(direct.objective, abs=1e-6)


class TestDumpLoad:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        P, q, G, h, A, b = random_feasible_qp(rng, n=4, m=5, with_eq=True)
        prog = ConicProgram(c=q, P=sp.csr_matrix(P), G=sp.csr_matrix(G), h=h,
                            cones=[ConeBlock(NONNEG, G.shape[0])],
                            A=sp.csr_matrix(A), b=np.atleast_1d(b),
                            obj_offset=0.125)
        path = tmp_path / "prog.txt"
        dump_program(prog, path)
        loaded = load_program(path)
        assert np.array_equal(loaded.c, prog.c)
        assert np.array_equal(loaded.h, prog.h)
        assert np.array_equal(loaded.P.toarray(), prog.P.toarray())
        assert np.array_equal(loaded.A.toarray(), prog.A.toarray())
        assert loaded.obj_offset == prog.obj_offset
        assert loaded.cones == prog.cones
        sol1, sol2 = solve(prog), solve(loaded)
        assert sol1.x.tobytes() == sol2.x.tobytes()
