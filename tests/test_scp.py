"""SCP engine tests: trust-region cost, the loop contract on a linear
fixture (one-iteration convergence), the fixed-point stopping rule and its
projection on a nonlinear fixture, logging discipline, and failure paths.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from rlv_landing.conic import Cones, ConicProgram, ldl, make_scaling, solve
from rlv_landing.scp import (
    ACTIVE_TOL,
    EPS_FEASIBLE,
    INEXACT_TOL,
    RELAXATION_TOL,
    ScpFailure,
    ScpSettings,
    fixed_point_residual,
    project_onto_rows,
    run_scp,
    trust_region_cost,
)

from helpers import MULTI_BLOCK_CONES, cone_blocks


class TestTrustRegionCost:
    def test_zero_at_reference(self):
        Z = np.arange(12.0).reshape(3, 4)
        assert trust_region_cost(Z, Z, 0.5) == 0.0

    def test_unit_deviation(self):
        Z = np.zeros((1, 4))
        Z_ref = np.zeros((1, 4))
        Z[0, 0] = 1.0
        assert trust_region_cost(Z, Z_ref, 1.0) == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(3)
        Z_ref = rng.normal(size=(5, 4))
        dZ = rng.normal(size=(5, 4))
        j1 = trust_region_cost(Z_ref + dZ, Z_ref, 0.7)
        j2 = trust_region_cost(Z_ref + 2 * dZ, Z_ref, 0.7)
        assert j2 == pytest.approx(4 * j1, rel=1e-12)


class _LinearFixture:
    """A convex-from-the-start problem: min -x s.t. x <= 3, 'linearized'
    about any reference identically, with no quadratic term (the trust
    region is a subproblem's only one). SCP must converge in exactly one
    iteration because the subproblem does not depend on the reference."""

    def __init__(self):
        self.scaling = make_scaling(np.array([-10.0]), np.array([10.0]))

    def build(self, reference):
        return ConicProgram(
            c=np.array([-10.0]),                 # x = 10 * x_scaled
            G=sp.csr_matrix([[10.0]]),
            h=np.array([3.0]),
            cones=Cones(1),
        )

    def reference_vector(self, reference):
        return self.scaling.scale(np.array([reference]))

    def decode(self, reference, x_scaled):
        return float(self.scaling.unscale(x_scaled)[0])

    def relaxation_gap(self, reference):
        return 0.0


class _SquareRootFixture:
    """min 0 s.t. x^2 = 2 and x >= 0, linearized about x_ref as the row
    2 x_ref x = 2 + x_ref^2 (a Newton step per iteration). The row's
    residual at the reference is x_ref^2 - 2, so a short step is not yet a
    fixed point."""

    def __init__(self):
        self.scaling = make_scaling(np.array([-10.0]), np.array([10.0]))

    def build(self, reference):
        return ConicProgram(
            c=np.zeros(1),
            A=sp.csr_matrix([[2.0 * reference * 10.0]]),
            b=np.array([2.0 + reference * reference]),
            G=sp.csr_matrix([[-10.0]]),
            h=np.array([0.0]),
            cones=Cones(1),
        )

    def reference_vector(self, reference):
        return self.scaling.scale(np.array([reference]))

    def decode(self, reference, x_scaled):
        return float(self.scaling.unscale(x_scaled)[0])

    def relaxation_gap(self, reference):
        return 0.0


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
@pytest.mark.parametrize("entry", ["solve", "run_scp"])
def test_tolerance_not_positive_raises(monkeypatch, entry, tol):
    # No iterate meets such a tolerance: ipm.solve ran all its MAX_ITER
    # iterations and returned max_iter. It raises ValueError naming tol
    # before any library call, and run_scp, which passes its tol to the
    # solver, before its first build.
    fixture = _LinearFixture()
    program = fixture.build(0.0)
    calls = []
    monkeypatch.setattr(ldl, "_library", lambda: calls.append("library"))
    monkeypatch.setattr(fixture, "build", lambda ref: calls.append("build"))
    with pytest.raises(ValueError, match="tol"):
        if entry == "solve":
            solve(program, tol)
        else:
            run_scp(fixture, 0.0, ScpSettings(1e-10, 10, 1e-9), tol)
    assert not calls


class TestRunScp:
    def test_linear_fixture_two_iterations(self):
        # Iteration 1 jumps to (nearly) the fixed point; iteration 2
        # re-solves to itself and the deviation cost vanishes.
        fixture = _LinearFixture()
        out = run_scp(fixture, 0.0, ScpSettings(1e-10, 10, 1e-9))
        assert out.converged
        assert out.iterations <= 2
        assert out.reference == pytest.approx(3.0, abs=1e-6)

    def test_log_discipline(self):
        fixture = _LinearFixture()
        out = run_scp(fixture, -5.0, ScpSettings(1e-10, 10, 1e-9))
        assert len(out.log) == out.iterations
        assert out.log[-1].J_tr < 1e-10
        assert all(rec.solver_status == "optimal" for rec in out.log)
        assert all(rec.millis >= 0 for rec in out.log)
        # Convergence flag matches the final trust-region cost.
        assert out.converged == (out.log[-1].J_tr < 1e-10)

    def test_infeasible_subproblem_raises(self):
        class Bad(_LinearFixture):
            def build(self, reference):
                prog = super().build(reference)
                # x >= 1 and x <= 0 simultaneously
                import scipy.sparse as sp2
                prog.G = sp2.csr_matrix([[-10.0], [10.0]])
                prog.h = np.array([-1.0, 0.0])
                prog.cones = Cones(2)
                return prog

        with pytest.raises(ScpFailure) as err:
            run_scp(Bad(), 0.0, ScpSettings(1e-10, 10, 1e-9))
        assert err.value.iteration == 1
        assert err.value.status in ("infeasible", "numerical_failure")

    def test_inexact_solves_until_the_step_is_small(self):
        # Newton steps toward sqrt(2) from 1: J_tr is 2.5e-3, 6.9e-5 and
        # 6e-8 before the fourth step passes the step test at 1e-8.
        solves = []

        def recorded(program, tol):
            solves.append((tol, program.start))
            return solve(program, tol)

        fixture = _SquareRootFixture()
        tol = 1e-8
        out = run_scp(fixture, 1.0, ScpSettings(1e-8, 10, 1.0), tol,
                      solve_fn=recorded)
        assert out.converged
        assert out.iterations == 4
        assert len(solves) == out.iterations + 1
        assert [t for t, _ in solves[:-1]] == [INEXACT_TOL] * out.iterations
        assert solves[-1][0] == tol
        assert solves[-1][1] is not None and solves[-1][1].optimal
        assert solves[0][1] is None
        assert all(start is not None for *_, start in solves[1:])
        assert [rec.resolved for rec in out.log] == [False] * 3 + [True]
        assert out.log[-1].J_tr < 1e-8

    def test_loop_folds_the_trust_region_into_every_solve(self):
        # The fixture's programs carry no quadratic term. Every program the
        # loop solves, the full-tolerance re-solve's included, carries the
        # trust region about the reference it was built about, added once;
        # a program only the fixed-point test reads carries none. Each
        # logged J_tr is that term at the solution of the iteration's last
        # solve.
        w_tr = 1.0
        fixture = _SquareRootFixture()
        built, solved, solves = {}, set(), []
        build = fixture.build

        def recorded_build(ref):
            program = build(ref)
            built[id(program)] = (ref, program)
            return program

        def spy(program, tol):
            solved.add(id(program))
            ref = built[id(program)][0]
            x_ref = fixture.reference_vector(ref)
            np.testing.assert_array_equal(program.P.toarray(),
                                          2.0 * w_tr * np.eye(1))
            np.testing.assert_array_equal(
                program.c, build(ref).c - 2.0 * w_tr * x_ref)
            sol = solve(program, tol)
            solves.append(trust_region_cost(sol.x, x_ref, w_tr))
            return sol

        fixture.build = recorded_build
        assert build(1.0).P.nnz == 0
        out = run_scp(fixture, 1.0, ScpSettings(1e-8, 10, w_tr), 1e-8,
                      solve_fn=spy)
        assert out.converged and out.log[-1].resolved
        assert len(solves) == out.iterations + 1
        last = np.cumsum([1 + rec.resolved for rec in out.log]) - 1
        assert [rec.J_tr for rec in out.log] == [solves[i] for i in last]
        unsolved = [p for key, (_, p) in built.items() if key not in solved]
        assert unsolved and all(p.P.nnz == 0 for p in unsolved)

    def test_loose_small_step_is_not_enough(self):
        # The inexact solves claim no move at all; the full-tolerance
        # re-solve of the first step moves from -5 to 3, so that step
        # converges nothing and the plan takes one more iteration.
        fixture = _LinearFixture()
        refs = []
        build = fixture.build
        fixture.build = lambda ref: refs.append(ref) or build(ref)

        def still(program, tol):
            sol = solve(program, tol)
            if tol == INEXACT_TOL:
                sol.x = fixture.reference_vector(refs[-1])
            return sol

        settings = ScpSettings(1e-10, 10, 1e-9)
        out = run_scp(fixture, -5.0, settings, solve_fn=still)
        assert out.log[0].resolved
        assert out.log[0].J_tr > settings.eps_converge
        assert out.converged
        assert out.iterations == 2
        assert out.reference == pytest.approx(3.0, abs=1e-6)

    def test_max_iter_not_converged(self):
        # A strong trust region freezes progress; the loop must stop at the
        # iteration budget and report not-converged.
        fixture = _LinearFixture()
        out = run_scp(fixture, -8.0, ScpSettings(1e-12, 4, 1e3))
        assert not out.converged
        assert out.iterations == 4

    def test_no_build_after_last_iteration_without_small_step(self):
        # The program about the last reference would be neither solved nor
        # tested: one build per subproblem and no more.
        fixture = _LinearFixture()
        builds = []
        build = fixture.build
        fixture.build = lambda ref: builds.append(ref) or build(ref)
        out = run_scp(fixture, -8.0, ScpSettings(1e-12, 4, 1e3))
        assert len(builds) == out.iterations == 4
        assert np.isnan(out.log[-1].residual)
        assert not np.isnan(out.log[-2].residual)

    def test_small_step_off_the_fixed_point_is_not_converged(self):
        # From x = 1 the first step lands on 1.5 with J_tr = 2.5e-3, below
        # eps_converge, while the rebuilt row misses by 1.5^2 - 2 = 0.25 and
        # two projection steps, to 17/12 and 577/408, leave it at 6e-6.
        # That projection is kept, though it misses EPS_FEASIBLE. Each
        # projection step builds once, about its result: with the builds
        # about 1 and 1.5 that makes four.
        fixture = _SquareRootFixture()
        builds = []
        build = fixture.build
        fixture.build = lambda ref: builds.append(ref) or build(ref)
        settings = ScpSettings(1e-2, 1, 1.0)
        out = run_scp(fixture, 1.0, settings)
        assert len(builds) == 4
        assert out.log[0].J_tr < settings.eps_converge
        assert not out.converged
        assert out.log[0].projected
        assert out.log[0].residual == pytest.approx(577**2 / 408**2 - 2,
                                                    rel=1e-6)
        assert out.log[0].residual > EPS_FEASIBLE
        assert out.reference == builds[-1] == pytest.approx(577 / 408,
                                                            rel=1e-12)

    def test_fixed_point_with_a_loose_relaxation_is_not_converged(self):
        # The linear fixture reaches its fixed point in one step, but the
        # stub reports its relaxation ten times looser than RELAXATION_TOL
        # until the third check: the loop keeps iterating, and converges
        # only once the gap closes.
        checks = []

        class Loose(_LinearFixture):
            def __init__(self, tight_from):
                super().__init__()
                self.tight_from = tight_from

            def relaxation_gap(self, reference):
                checks.append(reference)
                return 0.0 if len(checks) >= self.tight_from \
                    else 10.0 * RELAXATION_TOL

        settings = ScpSettings(1e-10, 4, 1e-9)
        out = run_scp(Loose(tight_from=np.inf), 3.0, settings)
        assert not out.converged
        assert out.iterations == settings.max_iter
        assert all(rec.J_tr < settings.eps_converge for rec in out.log)
        assert all(rec.residual <= EPS_FEASIBLE for rec in out.log)
        assert len(checks) == settings.max_iter

        checks.clear()
        out = run_scp(Loose(tight_from=3), 3.0, settings)
        assert out.converged
        assert out.iterations == 3

    def test_projection_closes_the_gap(self):
        # The first iteration projects in two steps, each onto the rows
        # built before it and building once, about its result; it ends 6e-6
        # off the rows, and the second subproblem is built about that
        # projection. The second step is small enough to need none: the
        # builds about 1, 1.5, the two projections and the second step's
        # result make five.
        fixture = _SquareRootFixture()
        builds = []
        build = fixture.build
        fixture.build = lambda ref: builds.append(ref) or build(ref)
        settings = ScpSettings(1e-2, 10, 1.0)
        out = run_scp(fixture, 1.0, settings)
        assert out.converged
        assert out.iterations == 2
        assert len(builds) == 5
        assert out.log[0].projected and not out.log[-1].projected
        assert out.log[-1].residual <= EPS_FEASIBLE
        assert abs(out.reference ** 2 - 2.0) <= EPS_FEASIBLE

    def test_fixed_point_residual_counts_every_block(self):
        prog = ConicProgram(
            c=np.zeros(2),
            A=sp.csr_matrix([[1.0, 0.0]]), b=np.array([1.0]),
            G=sp.csr_matrix([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
            h=np.array([0.5, 0.0, 0.0]),
            cones=Cones(1, 1, 2))
        # Equality misses by 0.25, the orthant row by 0.25, the SOC block
        # (s = (x0, x1)) by |x1| - x0 = 0.5.
        x = np.array([0.75, 1.25])
        assert fixed_point_residual(prog, x) == pytest.approx(0.5)
        assert fixed_point_residual(prog, np.array([0.5, 0.25])) == \
            pytest.approx(0.5)
        assert fixed_point_residual(prog, np.array([1.0, -0.25])) == \
            pytest.approx(0.5)


# Slacks h - G x on MULTI_BLOCK_CONES, rows 0-2 | 3-5 | 6-8. Each block
# kind is violated, held (within ACTIVE_TOL of its bound) and inactive at
# one of them; the worst violation is row 2's, row 0's and the second SOC
# block's, and of their negatives the first, second and first SOC block's.
MULTI_BLOCK_SLACKS = {
    "soc3-violated": [5e-5, 0.7, -0.3, 0.5, 0.6, 0.48, 0.4, -0.39995, 0.0],
    "soc3-held": [-0.2, 3e-5, 0.9, 0.50005, 0.3, 0.4, 1.0, 0.2, 0.0],
    "soc3-inactive": [0.5, -0.05, 2e-5, 1.0, 0.1, -0.2, 0.1, -0.6, 0.0],
}


class TestInterleavedLayout:
    """The cone layout read on three orthant rows and two SOC blocks,
    against per-block loops over the layout (``helpers.cone_blocks``)."""

    @staticmethod
    def program(slack):
        rng = np.random.default_rng(67)
        n = 9
        G, A, x = (rng.normal(size=(len(slack), n)), rng.normal(size=(1, n)),
                   rng.normal(size=n))
        prog = ConicProgram(c=np.zeros(n), A=sp.csr_matrix(A), b=A @ x + 0.1,
                            G=sp.csr_matrix(G), h=np.asarray(slack) + G @ x,
                            cones=MULTI_BLOCK_CONES)
        return prog, x

    @staticmethod
    def reference_projection(prog, x):
        """The Gauss-Newton step of project_onto_rows, one block at a time,
        through a dense solve."""
        G, s = prog.G.toarray(), prog.h - prog.G @ x
        rows, residual = [prog.A.toarray()], [prog.A @ x - prog.b]
        for soc, block in cone_blocks(prog.cones):
            if not soc:
                for i in block[s[block] < ACTIVE_TOL]:
                    rows.append(G[i])
                    residual.append([max(-s[i], 0.0)])
                continue
            norm = np.linalg.norm(s[block[1:]])
            if norm > 0.0 and norm - s[block[0]] > -ACTIVE_TOL:
                weights = np.concatenate([[1.0], -s[block[1:]] / norm])
                rows.append(weights @ G[block])
                residual.append([max(norm - s[block[0]], 0.0)])
        J, r = np.vstack(rows), np.concatenate(residual)
        n, m = x.size, J.shape[0]
        K = np.block([[np.eye(n), J.T], [J, -1e-10 * np.eye(m)]])
        return x + np.linalg.solve(K, np.concatenate([np.zeros(n), -r]))[:n]

    @pytest.mark.parametrize("name", MULTI_BLOCK_SLACKS)
    def test_projection_matches_block_loop(self, name):
        prog, x = self.program(MULTI_BLOCK_SLACKS[name])
        expected = self.reference_projection(prog, x)
        np.testing.assert_allclose(project_onto_rows(prog, x), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", MULTI_BLOCK_SLACKS)
    def test_cone_violation_matches_block_loop(self, name):
        prog, _ = self.program(MULTI_BLOCK_SLACKS[name])
        for u in (np.asarray(MULTI_BLOCK_SLACKS[name]),
                  -np.asarray(MULTI_BLOCK_SLACKS[name])):
            worst = 0.0
            for soc, block in cone_blocks(prog.cones):
                if not soc:
                    worst = max(worst, float(np.max(-u[block])))
                else:
                    worst = max(worst, float(np.linalg.norm(u[block[1:]])
                                             - u[block[0]]))
            assert max(prog.cones.interior_violation(u), 0.0) == \
                pytest.approx(worst, abs=1e-12)
        inside = np.array([0.3, 0.4, 0.6, 1.0, 0.1, 0.2, 1.0, 0.5, 0.0])
        assert max(prog.cones.interior_violation(inside), 0.0) == 0.0
