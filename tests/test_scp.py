"""SCP engine tests: trust-region cost, the loop contract on a linear
fixture (one-iteration convergence), the fixed-point stopping rule and its
projection on a nonlinear fixture, logging discipline, and failure paths.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from rlv_landing.conic import (ConeBlock, ConicProgram, NONNEG, SOC,
                               SolverSettings, make_scaling, solve)
from rlv_landing.scp import (
    EPS_FEASIBLE,
    INEXACT_TOL,
    ScpFailure,
    ScpSettings,
    add_trust_region,
    fixed_point_residual,
    run_scp,
    trust_region_cost,
)


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

    def test_matrix_weight(self):
        W = np.diag([1.0, 2.0, 3.0])
        Z_ref = np.zeros((2, 3))
        Z = np.ones((2, 3))
        assert trust_region_cost(Z, Z_ref, W) == pytest.approx(2 * 6.0)


class _LinearFixture:
    """A convex-from-the-start problem: min (x-3)^2 s.t. x >= 1, 'linearized'
    about any reference identically. SCP must converge in exactly one
    iteration because the subproblem does not depend on the reference."""

    def __init__(self, w_tr):
        self.w_tr = w_tr
        self.scaling = make_scaling(np.array([-10.0]), np.array([10.0]))

    def build(self, reference):
        prog = ConicProgram(
            c=np.array([-6.0 * 10.0]),           # d/dx of (x-3)^2 linear part, scaled
            P=sp.csr_matrix([[2.0 * 100.0]]),    # x = 10 * x_scaled
            G=sp.csr_matrix([[-10.0]]),
            h=np.array([-1.0]),
            cones=[ConeBlock(NONNEG, 1)],
            obj_offset=9.0,
        )
        prog.scaling = self.scaling
        add_trust_region(prog, self.reference_vector(reference), self.w_tr)
        return prog

    def projection_program(self, reference):
        return self.build(reference)

    def reference_vector(self, reference):
        return self.scaling.scale(np.array([reference]))

    def decode(self, reference, x_scaled):
        return float(self.scaling.unscale(x_scaled)[0])


class _SquareRootFixture:
    """min 0 s.t. x^2 = 2 and x >= 0, linearized about x_ref as the row
    2 x_ref x = 2 + x_ref^2 (a Newton step per iteration). The row's
    residual at the reference is x_ref^2 - 2, so a short step is not yet a
    fixed point."""

    def __init__(self, w_tr):
        self.w_tr = w_tr
        self.scaling = make_scaling(np.array([-10.0]), np.array([10.0]))

    def build(self, reference):
        prog = ConicProgram(
            c=np.zeros(1),
            A=sp.csr_matrix([[2.0 * reference * 10.0]]),
            b=np.array([2.0 + reference * reference]),
            G=sp.csr_matrix([[-10.0]]),
            h=np.array([0.0]),
            cones=[ConeBlock(NONNEG, 1)],
        )
        prog.scaling = self.scaling
        add_trust_region(prog, self.reference_vector(reference), self.w_tr)
        return prog

    def projection_program(self, reference):
        return self.build(reference)

    def reference_vector(self, reference):
        return self.scaling.scale(np.array([reference]))

    def decode(self, reference, x_scaled):
        return float(self.scaling.unscale(x_scaled)[0])


class TestRunScp:
    def test_linear_fixture_two_iterations(self):
        # Iteration 1 jumps to (nearly) the fixed point; iteration 2
        # re-solves to itself and the deviation cost vanishes.
        fixture = _LinearFixture(w_tr=1e-9)
        out = run_scp(fixture, 0.0, ScpSettings(1e-10, 10, 1e-9))
        assert out.converged
        assert out.iterations <= 2
        assert out.reference == pytest.approx(3.0, abs=1e-6)

    def test_log_discipline(self):
        fixture = _LinearFixture(w_tr=1e-9)
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
                prog.cones = [ConeBlock(NONNEG, 2)]
                return prog

        with pytest.raises(ScpFailure) as err:
            run_scp(Bad(1e-9), 0.0, ScpSettings(1e-10, 10, 1e-9))
        assert err.value.iteration == 1
        assert err.value.status in ("infeasible", "numerical_failure")

    def test_inexact_solves_until_the_step_is_small(self):
        # Newton steps toward sqrt(2) from 1: J_tr is 2.5e-3, 6.9e-5 and
        # 6e-8 before the fourth step passes the step test at 1e-8.
        solves = []

        def recorded(program, settings):
            solves.append((settings.tol_feas, settings.tol_gap, program.start))
            return solve(program, settings)

        fixture = _SquareRootFixture(w_tr=1.0)
        solver_settings = SolverSettings()
        out = run_scp(fixture, 1.0, ScpSettings(1e-8, 10, 1.0),
                      solver_settings, solve_fn=recorded)
        assert out.converged
        assert out.iterations == 4
        assert len(solves) == out.iterations + 1
        assert [tols for *tols, _ in solves[:-1]] == \
            [[INEXACT_TOL, INEXACT_TOL]] * out.iterations
        assert solves[-1][:2] == (solver_settings.tol_feas,
                                  solver_settings.tol_gap)
        assert solves[-1][2] is not None and solves[-1][2].optimal
        assert solves[0][2] is None
        assert all(start is not None for *_, start in solves[1:])
        assert [rec.resolved for rec in out.log] == [False] * 3 + [True]
        assert out.log[-1].J_tr < 1e-8

    def test_loose_small_step_is_not_enough(self):
        # The inexact solves claim no move at all; the full-tolerance
        # re-solve of the first step moves from -5 to 3, so that step
        # converges nothing and the plan takes one more iteration.
        fixture = _LinearFixture(w_tr=1e-9)
        refs = []
        build = fixture.build
        fixture.build = lambda ref: refs.append(ref) or build(ref)

        def still(program, settings):
            sol = solve(program, settings)
            if settings.tol_feas == INEXACT_TOL:
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
        fixture = _LinearFixture(w_tr=1e3)
        out = run_scp(fixture, -8.0, ScpSettings(1e-12, 4, 1e3))
        assert not out.converged
        assert out.iterations == 4

    def test_no_build_after_last_iteration_without_small_step(self):
        # The program about the last reference would be neither solved nor
        # tested: one build per subproblem and no more.
        fixture = _LinearFixture(w_tr=1e3)
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
        # two projection steps leave it at 6e-6.
        fixture = _SquareRootFixture(w_tr=1.0)
        settings = ScpSettings(1e-2, 1, 1.0)
        out = run_scp(fixture, 1.0, settings)
        assert out.log[0].J_tr < settings.eps_converge
        assert not out.converged
        assert out.log[0].projected
        assert out.log[0].residual == pytest.approx(0.25, rel=1e-6)
        assert out.reference == pytest.approx(1.5, rel=1e-6)

    def test_projection_closes_the_gap(self):
        fixture = _SquareRootFixture(w_tr=1.0)
        settings = ScpSettings(1e-2, 10, 1.0)
        out = run_scp(fixture, 1.0, settings)
        assert out.converged
        assert out.iterations == 2
        assert out.log[-1].projected
        assert out.log[-1].residual <= EPS_FEASIBLE
        assert abs(out.reference ** 2 - 2.0) <= EPS_FEASIBLE

    def test_fixed_point_residual_counts_every_block(self):
        prog = ConicProgram(
            c=np.zeros(2),
            A=sp.csr_matrix([[1.0, 0.0]]), b=np.array([1.0]),
            G=sp.csr_matrix([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
            h=np.array([0.5, 0.0, 0.0]),
            cones=[ConeBlock(NONNEG, 1), ConeBlock(SOC, 2)])
        # Equality misses by 0.25, the orthant row by 0.25, the SOC block
        # (s = (x0, x1)) by |x1| - x0 = 0.5.
        x = np.array([0.75, 1.25])
        assert fixed_point_residual(prog, x) == pytest.approx(0.5)
        assert fixed_point_residual(prog, np.array([0.5, 0.25])) == \
            pytest.approx(0.5)
        assert fixed_point_residual(prog, np.array([1.0, -0.25])) == \
            pytest.approx(0.5)
