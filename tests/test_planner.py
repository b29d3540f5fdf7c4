"""Planner tests: coast propagation and fit, tilt profile, initial guess,
linearization against finite differences, subproblem structure, and a full
SCP solve to convergence on a reduced grid.
"""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlv_landing import env, planner, scp
from rlv_landing.conic import ipm, scaling
from rlv_landing.conic.cones import ConePoints, Cones
from rlv_landing.conic.ipm import _Kkt, _NTScaling, factor_quasidefinite
from rlv_landing.params import PlanningConfig, VehicleParams
from rlv_landing.planner import (
    NZ,
    CoastFit,
    PlanningBoundary,
    PlanningProblem,
    PlanningReference,
    fit_coast_polynomial,
    initial_guess_planning,
    linearize_planning,
    propagate_coast,
    tilt_limit_profile,
)
from rlv_landing.scp import ScpSettings, run_scp

from helpers import central_diff_jacobian, rel_jac_error

VP = VehicleParams()
R0 = np.array([-700.0, -700.0, -6000.0])
V0 = np.array([58.8, 58.8, 391.0])


def make_problem(N=40, r0=R0, v0=V0, cfg_kwargs=None):
    cfg = PlanningConfig(N=N, **(cfg_kwargs or {}))
    coast = propagate_coast(r0, v0, VP.m0, VP, horizon=16.0, step=cfg.coast_step)
    fit = fit_coast_polynomial(coast, cfg.tc_window)
    boundary = PlanningBoundary(mode="ignition-fit", m0=VP.m0, coast_fit=fit)
    return PlanningProblem(boundary, VP, cfg), cfg


class TestCoast:
    def test_vacuum_ballistic_closed_form(self):
        # From 500 km altitude the atmosphere is numerically absent, so the
        # RK4 coast must match the constant-gravity parabola exactly.
        r0 = np.array([0.0, 0.0, -500e3])
        v0 = np.array([10.0, -5.0, 40.0])
        coast = propagate_coast(r0, v0, VP.m0, VP, horizon=5.0, step=0.25)
        t = coast.times[-1]
        v_expected = v0 + np.array([0, 0, VP.g_ref * t])
        r_expected = r0 + v0 * t + 0.5 * np.array([0, 0, VP.g_ref]) * t * t
        np.testing.assert_allclose(coast.v[-1], v_expected, rtol=1e-12)
        np.testing.assert_allclose(coast.r[-1], r_expected, rtol=1e-12)

    def test_zero_horizon(self):
        coast = propagate_coast(R0, V0, VP.m0, VP, horizon=0.0)
        assert coast.times.size == 1
        np.testing.assert_array_equal(coast.r[0], R0)

    def test_drag_slows_descent(self):
        coast = propagate_coast(R0, V0, VP.m0, VP, horizon=5.0, step=0.25)
        v_vac = np.linalg.norm(V0 + np.array([0, 0, VP.g_ref * 5.0]))
        assert np.linalg.norm(coast.v[-1]) < v_vac

    def test_ground_truncation(self):
        low = np.array([0.0, 0.0, -200.0])
        coast = propagate_coast(low, V0, VP.m0, VP, horizon=15.0, step=0.25)
        assert coast.truncated
        assert coast.times[-1] < 15.0

    @pytest.mark.parametrize("horizon, step, name", [(-1.0, 0.25, "horizon"),
                                                     (5.0, 0.0, "step"),
                                                     (5.0, -0.25, "step")])
    def test_bad_horizon_or_step_raises(self, horizon, step, name):
        with pytest.raises(ValueError, match=name):
            propagate_coast(R0, V0, VP.m0, VP, horizon=horizon, step=step)

    def test_equals_rk4_over_the_kernel_bitwise(self):
        # The reference is RK4 written over dynamics_3dof on arrays, the
        # physical model: nominal, ground-truncated and vacuum coasts. The
        # coast from 1 km is one whose samples change when the atmosphere's
        # exp rounds as math.exp does.
        opts = env.AeroOptions(drag_only=True)

        def f(x):
            return env.dynamics_3dof(x, np.zeros(3), VP, opts)

        cases = [(R0, V0, 16.0, False),
                 (np.array([0.0, 0.0, -1000.0]), V0, 15.0, True),
                 (np.array([0.0, 0.0, -500e3]), np.array([10.0, -5.0, 40.0]),
                  5.0, False)]
        for r0, v0, horizon, truncated in cases:
            step = 0.25
            x = np.concatenate([r0, v0, [VP.m0]])
            times, states = [0.0], [x]
            for i in range(int(round(horizon / step))):
                k1 = f(x)
                k2 = f(x + 0.5 * step * k1)
                k3 = f(x + 0.5 * step * k2)
                k4 = f(x + step * k3)
                x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                times.append((i + 1) * step)
                states.append(x)
                if x[2] >= 0.0:
                    break
            states = np.array(states)
            coast = propagate_coast(r0, v0, VP.m0, VP, horizon=horizon,
                                    step=step)
            assert coast.truncated == truncated
            assert coast.times.tobytes() == np.array(times).tobytes()
            assert coast.r.tobytes() == states[:, 0:3].tobytes()
            assert coast.v.tobytes() == states[:, 3:6].tobytes()

    def test_skips_the_batched_kernel(self, monkeypatch):
        calls = Counter()

        def counted(*args, _fn=env.translational_dynamics, **kwargs):
            calls["translational_dynamics"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(env, "translational_dynamics", counted)
        coast = propagate_coast(R0, V0, VP.m0, VP, horizon=16.0, step=0.25)
        assert coast.times.size == 65
        assert not calls


class TestCoastFit:
    def test_recovers_exact_quadratic(self):
        t = np.arange(0.0, 10.25, 0.25)
        K = np.array([[1.0, -2.0, 3.0], [0.5, 1.0, -1.0], [0.0, 4.0, 2.0]])
        r = (K @ np.vstack([t * t, t, np.ones_like(t)])).T
        from rlv_landing.planner import CoastTrajectory
        coast = CoastTrajectory(times=t, r=r, v=np.zeros_like(r), truncated=False)
        fit = fit_coast_polynomial(coast, (0.0, 10.0))
        np.testing.assert_allclose(fit.K_r, K, atol=1e-9)
        assert fit.max_residual_r < 1e-9

    def test_constant_samples_flat_fit(self):
        t = np.arange(0.0, 5.25, 0.25)
        r = np.tile([3.0, -1.0, 2.0], (t.size, 1))
        from rlv_landing.planner import CoastTrajectory
        coast = CoastTrajectory(times=t, r=r, v=r.copy(), truncated=False)
        fit = fit_coast_polynomial(coast, (0.0, 5.0))
        np.testing.assert_allclose(fit.K_r[:, 0:2], 0.0, atol=1e-10)
        np.testing.assert_allclose(fit.K_r[:, 2], [3.0, -1.0, 2.0], atol=1e-10)

    def test_vacuum_ballistic_fit_exact(self):
        # Constant-gravity coast is exactly quadratic in ignition time.
        r0 = np.array([0.0, 0.0, -500e3])
        v0 = np.array([10.0, -5.0, 40.0])
        coast = propagate_coast(r0, v0, VP.m0, VP, horizon=15.0, step=0.25)
        fit = fit_coast_polynomial(coast, (0.0, 15.0))
        assert fit.max_residual_r < 1e-6
        assert fit.max_residual_v < 1e-9
        t_c = 7.3
        np.testing.assert_allclose(
            fit.position(t_c),
            r0 + v0 * t_c + 0.5 * np.array([0, 0, VP.g_ref]) * t_c**2,
            rtol=1e-9)

    def test_narrow_window_rejected(self):
        coast = propagate_coast(R0, V0, VP.m0, VP, horizon=15.0, step=0.25)
        with pytest.raises(ValueError):
            fit_coast_polynomial(coast, (3.0, 3.3))

    def test_synthetic_drag_residual_bounded(self):
        # The spec's synthetic drag makes the quadratic fit crude over the
        # full 15 s window; keep it under a sanity bound and report it.
        coast = propagate_coast(R0, V0, VP.m0, VP, horizon=16.0, step=0.25)
        fit = fit_coast_polynomial(coast, (0.0, 15.0))
        assert fit.max_residual_r < 15.0
        assert fit.max_residual_v < 2.0


class TestTiltProfile:
    def test_zero_at_touchdown(self):
        assert tilt_limit_profile(20.0, 20.0, 5.0, math.radians(15)) == 0.0

    def test_constant_before_taper(self):
        lim = math.radians(15)
        assert tilt_limit_profile(14.9, 20.0, 5.0, lim) == lim
        assert tilt_limit_profile(2.0, 20.0, 5.0, lim) == lim

    def test_quadratic_branch_value(self):
        # t = t_f - t_theta/2 with 15 deg max and t_theta = 5:
        # 0.5 * (2*15/25) * 2.5^2 = 3.75 deg
        lim = math.radians(15)
        got = tilt_limit_profile(17.5, 20.0, 5.0, lim)
        assert math.degrees(got) == pytest.approx(3.75, rel=1e-12)

    def test_zero_ttheta_constant(self):
        lim = math.radians(15)
        assert tilt_limit_profile(19.99, 20.0, 0.0, lim) == lim


class TestInitialGuess:
    def test_endpoints(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        np.testing.assert_allclose(
            ref.r[0], prob.boundary.coast_fit.position(ref.t_c), rtol=1e-12)
        np.testing.assert_allclose(ref.r[-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(ref.v[-1], 0.0, atol=1e-9)

    def test_tc_is_window_midpoint(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        lo, hi = prob.boundary.coast_fit.window
        assert ref.t_c == pytest.approx(0.5 * (lo + hi))

    def test_mass_strictly_decreasing(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        assert np.all(np.diff(ref.m) < 0)
        assert ref.m[0] == VP.m0

    def test_eta_estimate_formula(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        v0 = prob.boundary.coast_fit.velocity(ref.t_c)
        accel = 0.5 * (VP.T_min + VP.T_max) / VP.m0 - VP.g_ref
        assert ref.eta == pytest.approx(
            np.clip(np.linalg.norm(v0) / accel, 5.0, 60.0))

    def test_thrust_vertical_mid_throttle(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        np.testing.assert_allclose(ref.T[:, 0:2], 0.0)
        np.testing.assert_allclose(ref.T[:, 2], -ref.Gamma)
        mid = 0.5 * (VP.T_min + VP.T_max)
        assert abs(ref.Gamma[0] - (mid - VP.A_exit * env.ambient_pressure(
            -ref.r[0, 2]))) < 1e-9


class TestLinearization:
    def test_matches_finite_differences(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        k = 10
        node = linearize_planning(ref.Z[k], ref.eta, VP, cfg, prob.opts, k)
        f_fd = central_diff_jacobian(
            lambda z: ref.eta * env.planner_rhs(z, VP, prob.opts), ref.Z[k])
        assert rel_jac_error(node.A, f_fd) < 1e-5

    def test_C_equals_rhs(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        node = linearize_planning(ref.Z[4], ref.eta, VP, cfg, prob.opts, 4)
        np.testing.assert_allclose(node.C, env.planner_rhs(ref.Z[4], VP, prob.opts),
                                   rtol=1e-12)

    def test_affine_exact_at_reference(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        node = linearize_planning(ref.Z[7], ref.eta, VP, cfg, prob.opts, 7)
        recon = node.A @ ref.Z[7] + node.C * ref.eta + node.D
        np.testing.assert_allclose(recon, ref.eta * node.C, rtol=1e-9)

    def test_degenerate_node_raises(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        bad = ref.Z[5].copy()
        bad[6] = -1.0
        with pytest.raises(env.DegenerateStateError, match="node 5"):
            linearize_planning(bad, ref.eta, VP, cfg, prob.opts, 5)

    def test_zero_reference_thrust_raises(self):
        # The lower thrust bound acts along the reference thrust direction,
        # which a zero reference thrust does not have.
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        Z = ref.Z.copy()
        Z[5, 7:10] = 0.0
        bad = PlanningReference(N=ref.N, eta=ref.eta, t_c=ref.t_c, Z=Z)
        with pytest.raises(env.DegenerateStateError, match="node 5"):
            prob.build(bad)


class TestBuildStructure:
    def test_dimensions_and_counts(self):
        prob, cfg = make_problem(N=40)
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        prog = prob.build(ref)
        N = cfg.N
        # Variables: (N+1) nodes of 11 plus eta and t_c.
        assert prog.n == NZ * (N + 1) + 2
        # One node sits in the vertical taper end and is encoded by three
        # extra equalities with its tilt row and SOC cone dropped.
        n_vertical = sum(
            1 for k in range(N + 1)
            if tilt_limit_profile(ref.eta * k / N, ref.eta, cfg.t_theta,
                                  cfg.theta_lim_max) < 1e-5)
        assert n_vertical >= 1
        expected_eq = 7 * N + 7 + 6 + 3 * n_vertical
        assert prog.A.shape[0] == expected_eq
        soc = [cb for cb in prog.cones if cb.kind == "soc"]
        assert len(soc) == N + 1 - n_vertical
        assert all(cb.dim == 4 for cb in soc)
        # Orthant rows: 2 Gamma bounds per node, tilt rows on non-vertical
        # nodes, load rows where dynamic pressure is meaningful, 2N rate
        # rows, 2 eta bounds, 2 ignition-window bounds.
        n_load = 0
        for k in range(N + 1):
            speed = np.linalg.norm(ref.Z[k, 3:6])
            q_bar = 0.5 * env.air_density(-ref.Z[k, 2]) * speed * speed
            if q_bar > cfg.L_lim / math.pi and speed >= env.V_EPS:
                n_load += 1
        expected_nonneg = 2 * (N + 1) + (N + 1 - n_vertical) + n_load + 2 * N + 4
        assert prog.cones[0].dim == expected_nonneg

    def test_current_state_counts(self):
        # Current-state boundary: no t_c column, 7 boundary rows (r, v, m
        # pinned to the state), no load row at the first node and no
        # ignition-window bounds.
        cfg = PlanningConfig(N=40)
        boundary = PlanningBoundary(
            mode="current-state", m0=33000.0,
            r_now=np.array([-300.0, -250.0, -3500.0]),
            v_now=np.array([40.0, 35.0, 230.0]))
        prob = PlanningProblem(boundary, VP, cfg)
        ref = initial_guess_planning(boundary, cfg, VP)
        prog = prob.build(ref)
        N = cfg.N
        assert prog.n == NZ * (N + 1) + 1
        n_vertical = sum(
            1 for k in range(N + 1)
            if tilt_limit_profile(ref.eta * k / N, ref.eta, cfg.t_theta,
                                  cfg.theta_lim_max) < 1e-5)
        assert n_vertical >= 1
        assert prog.A.shape[0] == 7 * N + 7 + 6 + 3 * n_vertical
        soc = [cb for cb in prog.cones if cb.kind == "soc"]
        assert len(soc) == N + 1 - n_vertical
        loaded = []
        for k in range(N + 1):
            speed = np.linalg.norm(ref.Z[k, 3:6])
            q_bar = 0.5 * env.air_density(-ref.Z[k, 2]) * speed * speed
            loaded.append(q_bar > cfg.L_lim / math.pi and speed >= env.V_EPS)
        assert loaded[0]          # the first node would carry a load row
        n_load = sum(loaded[1:])
        expected_nonneg = (2 * (N + 1) + (N + 1 - n_vertical) + n_load
                           + 2 * N + 2)
        assert prog.cones[0].dim == expected_nonneg

    def test_rows_stored_in_descending_column_order(self):
        # The IPM's products add up each row in its stored order, and the
        # planner's answers were fixed with rows stored this way (see
        # conic.scaling._scale_columns).
        prob, cfg = make_problem(N=10)
        prog = prob.build(initial_guess_planning(prob.boundary, cfg, VP))
        for M in (prog.A, prog.G):
            rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
            same_row = rows[1:] == rows[:-1]
            assert np.all(np.diff(M.indices)[same_row] < 0)

    def test_gamma_bound_value(self):
        # At sea level with Table-2 numbers: 816 kN * 0.95 - 67.36 kN.
        prob, cfg = make_problem(N=10)
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        Z = ref.Z.copy()
        Z[:, 2] = 0.0   # force sea level
        ref_sea = PlanningReference(N=ref.N, eta=ref.eta, t_c=ref.t_c, Z=Z)
        P_e = env.ambient_pressure(0.0)
        hi = VP.T_max * (1 - cfg.mu_T) - P_e * VP.A_exit
        assert hi == pytest.approx(707840, abs=200)
        prog = prob.build(ref_sea)
        # Bound rows were normalized; reconstruct the physical bound from the
        # scaled row h * scale / coefficient using the scaling record.
        assert prog.validate() is None

    def test_reference_feasible_after_convergence(self):
        prob, cfg = make_problem(N=30)
        ref0 = initial_guess_planning(prob.boundary, cfg, VP)
        out = run_scp(prob, ref0,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        ref = out.reference
        prog = prob.build(ref)
        x_ref = prob.reference_vector(ref)
        # The converged reference must satisfy the linear rows it generated
        # (it is a fixed point of the linearization).
        resid = prog.A @ x_ref - prog.b
        assert np.abs(resid).max() < 1e-6
        slack = prog.h - prog.G @ x_ref
        nonneg = prog.cones[0].dim
        assert slack[:nonneg].min() > -1e-7


def first_kkt_n30():
    """The IPM's first KKT matrix (W = I) of the first N=30 subproblem, in
    its own row and column order."""
    prob, cfg = make_problem(N=30)
    prog = prob.build(initial_guess_planning(prob.boundary, cfg, VP))
    cones = Cones(prog.cones)
    kkt = _Kkt(prog.P, prog.A.tocsr(), prog.G.tocsr(), cones)
    kkt.factor(_NTScaling(cones.points(cones.identity(), cones.identity())))
    return kkt.K[kkt.position][:, kkt.position].tocsc()


# Run in a child process: factors the saved KKT 25 times by minimum degree
# and 25 times in natural order after that ordering.
FACTOR_50_TIMES = """
import sys
import numpy as np
import scipy.sparse as sp
from rlv_landing.conic.ipm import factor_quasidefinite
K = sp.load_npz(sys.argv[1]).tocsc()
order = np.argsort(factor_quasidefinite(K).perm_c)
permuted = K[order][:, order].tocsc()
for _ in range(25):
    factor_quasidefinite(K)
    factor_quasidefinite(permuted, natural=True)
"""


class TestKktFactorization:
    def test_symmetric_ordering_halves_the_fill(self):
        # The pivot-free symmetric ordering fills the first N=30 KKT to at
        # most half of what SuperLU's defaults (COLAMD, partial pivoting) do.
        K = first_kkt_n30()
        ours = factor_quasidefinite(K)
        default = spla.splu(K)
        assert ours.L.nnz + ours.U.nnz <= 0.5 * (default.L.nnz + default.U.nnz)

    @pytest.mark.parametrize("natural", [False, True],
                             ids=["minimum-degree", "natural"])
    def test_supernode_settings_keep_fill_and_accuracy(self, natural):
        # The supernode settings change only the order in which SuperLU
        # adds up the updates: the fill is that of the same call at scipy's
        # supernode defaults, and a solve is as accurate, within 10x.
        K = first_kkt_n30()
        if natural:
            order = np.argsort(factor_quasidefinite(K).perm_c)
            K = K[order][:, order].tocsc()
        ours = factor_quasidefinite(K, natural=natural)
        default = spla.splu(
            K, permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        assert ours.L.nnz + ours.U.nnz == default.L.nnz + default.U.nnz
        rhs = np.random.default_rng(18).standard_normal(K.shape[0])

        def residual(lu):
            return np.abs(K @ lu.solve(rhs) - rhs).max()

        assert residual(ours) <= 10.0 * residual(default)

    def test_factorization_leaves_the_heap_intact(self, tmp_path):
        # SuperLU's panel_size=64 corrupts the heap in scipy 1.17.1: a
        # process that factors this KKT 50 times with it aborts, at exit or
        # when the debug allocator checks a free. The factorization runs 50
        # times in a child process under that allocator and must exit 0.
        path = tmp_path / "kkt.npz"
        sp.save_npz(path, first_kkt_n30())
        src = str(Path(ipm.__file__).resolve().parents[2])
        child_env = dict(os.environ, PYTHONMALLOC="debug",
                         PYTHONPATH=os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-X", "dev", "-c", FACTOR_50_TIMES, str(path)],
            env=child_env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]

    def test_direction_solves_refine_only_as_needed(self, monkeypatch):
        # Over the nominal N=30 plan, the IPM's direction solves (predictor,
        # corrector, Gondzio) take fewer than 2 LU solves each: two fixed
        # refinement steps took 3, the residual rule takes 1.17.
        lu_solves, per_direction = [], []
        factor, solve = _Kkt.factor, _Kkt.solve

        def counted_factor(self, scaling):
            factor(self, scaling)
            inner = self._lu_solve
            self._lu_solve = lambda rhs: lu_solves.append(1) or inner(rhs)

        def counted_solve(self, rhs, tol):
            before = len(lu_solves)
            out = solve(self, rhs, tol)
            if tol == ipm.REFINE_TOL:
                per_direction.append(len(lu_solves) - before)
            return out

        monkeypatch.setattr(_Kkt, "factor", counted_factor)
        monkeypatch.setattr(_Kkt, "solve", counted_solve)
        prob, cfg = make_problem(N=30)
        out = run_scp(prob, initial_guess_planning(prob.boundary, cfg, VP),
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        assert len(per_direction) > 100
        assert sum(per_direction) < 2 * len(per_direction)


class TestPlanningScp:
    def test_converges_small_grid(self):
        prob, cfg = make_problem(N=30)
        ref0 = initial_guess_planning(prob.boundary, cfg, VP)
        out = run_scp(prob, ref0,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        ref = out.reference
        # Exact relaxation at every node.
        tight = np.abs(np.linalg.norm(ref.T, axis=1) - ref.Gamma) / ref.Gamma
        assert tight.max() < 1e-6
        # Terminal boundary conditions.
        np.testing.assert_allclose(ref.r[-1], 0.0, atol=1e-4)
        np.testing.assert_allclose(ref.v[-1], 0.0, atol=1e-5)
        # Mass strictly decreasing, ignition inside the window.
        assert np.all(np.diff(ref.m) < 0)
        lo, hi = cfg.tc_window
        assert lo <= ref.t_c <= hi
        # Terminal thrust vertical (tilt taper endpoint).
        tilt = math.acos(min(1.0, -ref.T[-1, 2] / ref.Gamma[-1]))
        assert tilt <= 1e-6

    def test_trapezoid_consistency(self):
        prob, cfg = make_problem(N=30)
        ref0 = initial_guess_planning(prob.boundary, cfg, VP)
        out = run_scp(prob, ref0,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        ref = out.reference
        # Residual of the trapezoidal rule on the *nonlinear* dynamics in
        # scaled units stays small at convergence.
        scale = prob.reference_vector(ref)  # ensures scaling cached
        lo, hi = prob.scaling_bounds(ref)
        half = 0.5 * (np.asarray(hi) - np.asarray(lo))
        worst = 0.0
        for k in range(cfg.N):
            fk = env.planner_rhs(ref.Z[k], VP, prob.opts)
            fk1 = env.planner_rhs(ref.Z[k + 1], VP, prob.opts)
            lhs = ref.Z[k + 1, :7] - ref.Z[k, :7]
            rhs = (ref.eta / (2 * cfg.N)) * (fk + fk1)
            err = np.abs(lhs - rhs) / half[k * NZ:k * NZ + 7]
            worst = max(worst, err.max())
        assert worst < 1e-5

    def test_load_constraint_respected(self):
        prob, cfg = make_problem(N=30)
        ref0 = initial_guess_planning(prob.boundary, cfg, VP)
        out = run_scp(prob, ref0,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        ref = out.reference
        for k in range(cfg.N + 1):
            speed = np.linalg.norm(ref.v[k])
            if speed < 1.0:
                continue
            q_bar = 0.5 * env.air_density(-ref.r[k, 2]) * speed**2
            alpha = env.total_aoa(ref.T[k], ref.v[k])
            assert q_bar * alpha <= cfg.L_lim * 1.01 + 1.0

    def test_replan_mode_from_midcourse_state(self):
        # Current-state boundary: no ignition variable, first load row dropped.
        cfg = PlanningConfig(N=30)
        boundary = PlanningBoundary(
            mode="current-state", m0=33000.0,
            r_now=np.array([-300.0, -250.0, -3500.0]),
            v_now=np.array([40.0, 35.0, 230.0]))
        prob = PlanningProblem(boundary, VP, cfg)
        ref0 = initial_guess_planning(boundary, cfg, VP)
        assert ref0.t_c is None
        out = run_scp(prob, ref0,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        ref = out.reference
        np.testing.assert_allclose(ref.r[0], boundary.r_now, atol=1e-6)
        np.testing.assert_allclose(ref.r[-1], 0.0, atol=1e-4)

    def test_replan_thrust_above_lower_bound(self):
        # Minimum throttle is where the replan plan sits for its first nodes;
        # the converged plan keeps the thrust itself, not only Gamma, above
        # the bound there.
        cfg = PlanningConfig(N=30)
        boundary = PlanningBoundary(
            mode="current-state", m0=33000.0,
            r_now=np.array([-300.0, -250.0, -3500.0]),
            v_now=np.array([40.0, 35.0, 230.0]))
        prob = PlanningProblem(boundary, VP, cfg)
        out = run_scp(prob, initial_guess_planning(boundary, cfg, VP),
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        ref = out.reference
        gamma_min = (VP.T_min * (1.0 + cfg.mu_T)
                     - VP.A_exit * env.ambient_pressure(-ref.r[:, 2]))
        thrust = np.linalg.norm(ref.T, axis=1)
        assert np.all(thrust >= gamma_min * (1.0 - 1e-6))
        assert np.any(thrust <= gamma_min * (1.0 + 1e-6))   # bound is active


# What planbench/spans.py wraps and planbench/planning.py calls, by module.
# The benchmark skips a hook whose target is gone and reports the per-layer
# metrics that need it as None, so a rename would pass unnoticed there.
BENCH_NAMES = {
    planner: ("propagate_coast", "fit_coast_polynomial",
              "initial_guess_planning", "linearize_planning",
              "scale_program", "equilibrate_rows", "PlanningBoundary",
              "PlanningProblem", "NZ"),
    planner.PlanningProblem: ("build", "scaling_bounds"),
    env: ("planner_jacobian", "planner_rhs", "DegenerateStateError"),
    scp: ("run_scp", "ScpSettings", "ScpFailure"),
    ipm: ("solve", "solve_robust", "spla"),
    ipm.spla: ("splu",),
}


class TestBenchmarkHooks:
    def test_hooked_names_exist(self):
        missing = [f"{getattr(owner, '__name__', owner)}.{name}"
                   for owner, names in BENCH_NAMES.items()
                   for name in names if not hasattr(owner, name)]
        assert not missing

    def test_build_calls_each_hooked_layer_once(self, monkeypatch):
        # The tracer patches module attributes, so a build must reach each
        # layer through its module to be timed.
        calls = Counter()
        for owner, name in ((planner, "linearize_planning"),
                            (env, "planner_jacobian"),
                            (planner, "scale_program"),
                            (planner, "equilibrate_rows")):
            def counted(*args, _fn=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        prob, cfg = make_problem(N=10)
        prob.build(initial_guess_planning(prob.boundary, cfg, VP))
        assert calls == {"linearize_planning": 1, "planner_jacobian": 1,
                         "scale_program": 1, "equilibrate_rows": 1}


class TestConeLayout:
    def test_one_layout_per_built_program(self, monkeypatch):
        # Over a nominal N=30 plan, each program the planner builds makes its
        # cone layout once, no reader of the layout makes another, and the
        # projection reads only programs that ``build`` returned.
        readers = {fn.__code__ for fn in (ipm.solve, scp.fixed_point_residual,
                                          scp.project_onto_rows,
                                          scaling.equilibrate_rows)}
        layouts, inside = [], []
        init = Cones.__init__

        def counted_init(self, cones):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in readers:
                    inside.append(frame.f_code.co_name)
                frame = frame.f_back
            layouts.append(self)
            init(self, cones)

        programs, projected = [], []
        build = PlanningProblem.build
        project = scp.project_onto_rows

        def counted_build(self, ref):
            programs.append(build(self, ref))
            return programs[-1]

        def recorded_project(program, x):
            projected.append(program)
            return project(program, x)

        monkeypatch.setattr(Cones, "__init__", counted_init)
        monkeypatch.setattr(PlanningProblem, "build", counted_build)
        monkeypatch.setattr(scp, "project_onto_rows", recorded_project)
        prob, cfg = make_problem(N=30)
        out = run_scp(prob, initial_guess_planning(prob.boundary, cfg, VP),
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged
        assert inside == []
        assert len(layouts) == len(programs)
        assert [p.layout for p in programs] == layouts
        assert projected
        built = {id(p) for p in programs}
        assert all(id(p) in built for p in projected)

    def test_one_cone_pass_per_ipm_iteration(self, monkeypatch):
        # Solving the first N=30 subproblem forms each iterate's cone data,
        # the stack (s, z), once: one per KKT factorization, the cold
        # start's (e, e) and then one per iteration that takes a step (the
        # last one meets the tolerances at its top and takes none). Every
        # other stack is one point: lambda, once per scaling, and the cold
        # start's two shifts into the cones.
        stacks, factors = [], []
        init, factor = ConePoints.__init__, _Kkt.factor

        def counted_init(self, cones, u):
            stacks.append(len(u))
            init(self, cones, u)

        def counted_factor(self, scaling):
            factors.append(scaling)
            factor(self, scaling)

        monkeypatch.setattr(ConePoints, "__init__", counted_init)
        monkeypatch.setattr(_Kkt, "factor", counted_factor)
        prob, cfg = make_problem(N=30)
        sol = ipm.solve(prob.build(initial_guess_planning(prob.boundary, cfg, VP)))
        assert sol.status == "optimal" and not sol.warm
        assert stacks.count(2) == len(factors) == sol.iterations
        assert stacks.count(1) == len(factors) + 2
        assert len(stacks) == 2 * len(factors) + 2
