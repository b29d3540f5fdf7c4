"""Planner tests: coast propagation and fit, tilt profile, initial guess,
linearization against finite differences, subproblem structure, and a full
SCP solve to convergence on a reduced grid.
"""

import gc
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from rlv_landing import env, planner, scp
from rlv_landing.conic import ConicProgram, ipm, ldl, scaling
from rlv_landing.conic.cones import ConePoints, Cones
from rlv_landing.conic.ipm import _Analysis, _Session
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

from helpers import (NTScaling, central_diff_jacobian, coo_csr, factor,
                     flat_arrays, ipm_session, kkt_matrix, python_step,
                     rel_jac_error, scipy_equilibrate_rows,
                     scipy_scale_program, scipy_stage_order, splu_calls,
                     superlu, total_aoa)

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

    @pytest.mark.parametrize("horizon, step, name", [
        (-1.0, 0.25, "horizon"), (5.0, 0.0, "step"), (5.0, -0.25, "step"),
        (math.inf, 0.25, "horizon"), (math.nan, 0.25, "horizon"),
        (5.0, math.inf, "step"), (5.0, math.nan, "step")])
    def test_bad_horizon_or_step_raises(self, horizon, step, name):
        with pytest.raises(ValueError, match=name):
            propagate_coast(R0, V0, VP.m0, VP, horizon=horizon, step=step)

    def test_equals_rk4_over_the_kernel_bitwise(self):
        # The reference is RK4 written over the kernel on arrays, at
        # T = 0 and Gamma = 0: nominal, ground-truncated and vacuum coasts.
        # The coast from 1 km is one whose samples change when the
        # atmosphere's exp rounds as math.exp does.
        opts = env.AeroOptions(drag_only=True)

        def f(x):
            z = np.concatenate([x, np.zeros(4)])
            return env.translational_dynamics(z, VP, opts)[0]

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
        lin = linearize_planning(ref.Z, ref.eta, VP, cfg, prob.opts)
        f_fd = central_diff_jacobian(
            lambda z: ref.eta * env.planner_rhs(z, VP, prob.opts), ref.Z[k])
        assert rel_jac_error(lin.A[k], f_fd) < 1e-5

    def test_C_equals_rhs(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        lin = linearize_planning(ref.Z, ref.eta, VP, cfg, prob.opts)
        np.testing.assert_allclose(lin.C[4],
                                   env.planner_rhs(ref.Z[4], VP, prob.opts),
                                   rtol=1e-12)

    def test_affine_exact_at_reference(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        lin = linearize_planning(ref.Z, ref.eta, VP, cfg, prob.opts)
        recon = lin.A[7] @ ref.Z[7] + lin.C[7] * ref.eta + lin.D[7]
        np.testing.assert_allclose(recon, ref.eta * lin.C[7], rtol=1e-9)

    def test_degenerate_node_raises(self):
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        bad = ref.Z.copy()
        bad[5, 6] = -1.0
        with pytest.raises(env.DegenerateStateError, match="node 5"):
            linearize_planning(bad, ref.eta, VP, cfg, prob.opts)

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

    @pytest.mark.parametrize("field, value, error", [
        ("eta", math.nan, env.DegenerateStateError),
        ("eta", -5.0, env.DegenerateStateError),
        ("eta", 0.0, env.DegenerateStateError),
        ("eta", math.inf, env.DegenerateStateError),
        ("t_c", None, env.DegenerateStateError),
        ("t_c", math.nan, env.DegenerateStateError),
        ("Z", "other N", ValueError),
    ])
    def test_reference_it_cannot_linearize_about_raises(self, monkeypatch,
                                                       field, value, error):
        # Before linearizing, the build rejects a reference naming what it
        # cannot use: an eta that is not finite and positive, a t_c that is
        # not finite in ignition-fit mode, a Z of another grid.
        prob, cfg = make_problem()
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        if value == "other N":
            value = initial_guess_planning(prob.boundary,
                                           PlanningConfig(N=cfg.N - 1), VP).Z

        def unreached(*args, **kwargs):
            raise AssertionError("linearized a reference it should reject")

        monkeypatch.setattr(planner, "linearize_planning", unreached)
        with pytest.raises(error, match=field):
            prob.build(replace(ref, **{field: value}))


class TestBuildStructure:
    def test_dimensions_and_counts(self):
        prob, cfg = make_problem(N=40)
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        prog = prob.build(ref)
        N = cfg.N
        # Variables: (N+1) nodes of 11 plus eta and t_c. The cost is -m_N
        # alone: the trust region is the SCP loop's.
        assert prog.n == NZ * (N + 1) + 2
        assert prog.P.nnz == 0
        # One node sits in the vertical taper end and is encoded by three
        # extra equalities with its tilt row and SOC cone dropped.
        n_vertical = sum(
            1 for k in range(N + 1)
            if tilt_limit_profile(ref.eta * k / N, ref.eta, cfg.t_theta,
                                  cfg.theta_lim_max) < 1e-5)
        assert n_vertical >= 1
        expected_eq = 7 * N + 7 + 6 + 3 * n_vertical
        assert prog.A.shape[0] == expected_eq
        assert prog.cones.n_soc == N + 1 - n_vertical
        assert prog.cones.d == 4
        # Orthant rows: 2 Gamma bounds per node, tilt rows on non-vertical
        # nodes, a load row at every node, 2N rate rows, 2 eta bounds, 2
        # ignition-window bounds. The load gate, where dynamic pressure is
        # meaningful, leaves nodes out, and their rows are kept.
        n_load = 0
        for k in range(N + 1):
            speed = np.linalg.norm(ref.Z[k, 3:6])
            q_bar = 0.5 * env.air_density(-ref.Z[k, 2]) * speed * speed
            if q_bar > cfg.L_lim / math.pi and speed >= env.V_EPS:
                n_load += 1
        assert 0 < n_load < N + 1
        expected_nonneg = 2 * (N + 1) + (N + 1 - n_vertical) + (N + 1) \
            + 2 * N + 4
        assert prog.cones.n_nn == expected_nonneg

    def test_current_state_counts(self):
        # Current-state boundary: no t_c column, 7 boundary rows (r, v, m
        # pinned to the state), no load row at the first node, one at every
        # other node, and no ignition-window bounds.
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
        assert prog.cones.n_soc == N + 1 - n_vertical
        loaded = []
        for k in range(N + 1):
            speed = np.linalg.norm(ref.Z[k, 3:6])
            q_bar = 0.5 * env.air_density(-ref.Z[k, 2]) * speed * speed
            loaded.append(q_bar > cfg.L_lim / math.pi and speed >= env.V_EPS)
        assert loaded[0]          # the first node would carry a load row
        assert not all(loaded[1:])      # rows outside the gate are kept
        expected_nonneg = (2 * (N + 1) + (N + 1 - n_vertical) + N
                           + 2 * N + 2)
        assert prog.cones.n_nn == expected_nonneg

    @pytest.mark.parametrize("mode", ["ignition-fit", "current-state"])
    def test_row_families_partition_the_rows(self, mode):
        # Every row of A and of G belongs to exactly one named family, and
        # the SOC family's rows are the cone layout's SOC blocks.
        prob, cfg = make_problem()
        if mode == "current-state":
            boundary = PlanningBoundary(
                mode=mode, m0=33000.0,
                r_now=np.array([-300.0, -250.0, -3500.0]),
                v_now=np.array([40.0, 35.0, 230.0]))
            prob = PlanningProblem(boundary, VP, cfg)
        prog = prob.build(initial_guess_planning(prob.boundary, cfg, VP))
        t = prob._last_template
        assert t.vertical.size > 0 and t.rows["load"].size > 0
        families = planner._FAMILIES
        names = [f[0] for matrix in families.values() for f in matrix]
        assert len(set(names)) == len(names) and set(names) == set(t.rows)
        for matrix, M in (("A", prog.A), ("G", prog.G)):
            rows = np.concatenate([t.rows[f[0]].ravel()
                                   for f in families[matrix]])
            assert np.array_equal(np.sort(rows), np.arange(M.shape[0]))
        soc, = [t.rows[f[0]] for f in families["G"] if f[1] == "soc"]
        _, soc_part = prog.cones.split(np.arange(prog.G.shape[0]))
        assert np.array_equal(soc, soc_part)

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

    def test_entries_store_what_a_coo_list_stores(self):
        # Pieces of entries whose positions repeat at most twice, as the
        # build's do, with zero values among them: each build stores, bit
        # for bit, what scipy's COO conversion stores, explicit zeros
        # included, on the one pattern the block made, whatever its zeros.
        # Two of the values are functions of the build data, which each
        # build writes, and one a constant.
        rng = np.random.default_rng(5)
        rows, cols = np.arange(40).reshape(8, 5), rng.integers(0, 9, (8, 5))
        pieces = [(rows, cols), (rows[:, 0], cols[:, 0]), (rows[1:4], 9)]
        entries = planner._Entries(
            list(zip(pieces, [lambda p, d: d[0], -1.0, lambda p, d: d[2]])),
            [], 40, np.ones(10))
        made = entries.pattern
        for zeros in (0.0, 0.0, 0.5, 0.5, 0.0):
            values = [rng.normal(size=(8, 5)), -1.0, rng.normal(size=(3, 5))]
            values[0][rng.random((8, 5)) < zeros] = 0.0
            pattern, data, _ = entries.block(None, values)
            assert pattern is made
            expected = coo_csr([(r, c, v) for (r, c), v in zip(pieces, values)],
                               (40, 10))
            for name, a in (("indptr", pattern.indptr),
                            ("indices", pattern.indices), ("data", data)):
                e = getattr(expected, name)
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes()

    @staticmethod
    def reference_sequence(prob, cfg):
        """References one problem builds about in turn, each chosen by its
        gates rather than taken from a solve: the initial guess, whose
        vertical thrust zeros the x and y entries of the lower thrust bound
        rows; the guess with its thrust tilted (the same gates, other exact
        zeros); the tilted guess slowed at the last node inside the load
        gate, which leaves that node's row storing zeros (a change of the
        load gate alone); the tilted guess with eta cut, so that three
        taper nodes turn vertical; and the initial guess again."""
        guess = initial_guess_planning(prob.boundary, cfg, VP)
        Z = guess.Z.copy()
        Z[:, 7:9] = 0.1 * Z[:, 9:10]
        tilted = replace(guess, Z=Z.copy())
        speed = np.linalg.norm(Z[:, 3:6], axis=1)
        q_bar = 0.5 * env.air_density(-Z[:, 2]) * speed * speed
        last = np.flatnonzero(q_bar > cfg.L_lim / math.pi)[-1]
        Z[last, 3:6] *= 0.1
        # Node k is vertical where eta (1 - k/N) is below the taper's
        # threshold, t_theta sqrt(1e-5 / theta_lim_max).
        cut = cfg.N * cfg.t_theta * math.sqrt(1e-5 / cfg.theta_lim_max) / 2.5
        return [guess, tilted, replace(tilted, Z=Z),
                replace(tilted, eta=cut), guess]

    def test_reused_template_builds_what_a_fresh_problem_builds(self):
        # Each build equals, bit for bit, that of a fresh problem with the
        # same scaling, whether it reuses the last build's template (the
        # SCP iterate, or a change of the load gate) or makes its own (the
        # vertical nodes changed). Writing into a returned program's arrays
        # changes no later build.
        prob, cfg = make_problem()
        refs = self.reference_sequence(prob, cfg)
        templates, sessions = [], []
        for ref in refs:
            prog = prob.build(ref)
            fresh = PlanningProblem(prob.boundary, VP, cfg)
            fresh.scaling(refs[0])
            expected = fresh.build(ref)
            for M, E in ((prog.A, expected.A), (prog.G, expected.G)):
                for name in ("indptr", "indices", "data"):
                    a, e = getattr(M, name), getattr(E, name)
                    assert a.dtype == e.dtype and a.tobytes() == e.tobytes()
            for name in ("b", "h", "c"):
                a, e = getattr(prog, name), getattr(expected, name)
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes()
            assert prog.obj_offset == expected.obj_offset
            assert prog.cones.shape == expected.cones.shape
            t = prob._last_template
            load = prog.G[t.rows["load"].ravel()]
            templates.append((t, t.A.pattern, t.G.pattern,
                              np.flatnonzero(t.G.vals == 0.0),
                              np.count_nonzero(abs(load).sum(axis=1))))
            if len(sessions) < 3:
                last = sessions[-1].analysis if sessions else None
                sessions.append(ipm_session(prog, analysis=last))
            for M in (prog.A, prog.G):
                M.data[:], M.indices[:], M.indptr[:] = -1.0, 0, 0
            for name in ("b", "h", "c"):
                getattr(prog, name)[:] = np.nan
        # The tilted guess, which has other exact zeros than the guess, and
        # the slowed one, which has one load row fewer inside the gate,
        # reused the guess's template and its patterns, and sessions on
        # their programs the guess's KKT analysis; the two later references
        # changed the vertical nodes.
        (t0, *patterns0, zeros0, _), (t1, *patterns1, zeros1, _), \
            (t2, *patterns2, _, _) = templates[:3]
        assert t1 is t0 and t2 is t0 and not np.array_equal(zeros0, zeros1)
        assert all(a is b is c for a, b, c in zip(patterns0, patterns1,
                                                  patterns2))
        assert [s.reordered for s in sessions] == [True, False, False]
        assert sessions[2].analysis is sessions[1].analysis \
            is sessions[0].analysis
        assert len({id(t) for t, *_ in templates[1:]}) == 3
        vertical = [t.vertical.size for t, *_ in templates]
        loads = [gated for *_, gated in templates]
        assert vertical[2] == vertical[1] and loads[2] == loads[1] - 1
        assert vertical[3] == vertical[1] + 2

    def test_template_holds_only_the_last_patterns_int32_arrays(self):
        # After the reference sequence, the problem holds one template, the
        # one a fresh problem makes for the last reference, and each of its
        # blocks one pattern, made with it, which builds with other exact
        # zeros (the tilted guess, then the guess again) keep. It holds
        # int32 arrays but for the values the builds write, the constant
        # ones included, the half range of the scaling there and which rows
        # store entries.
        prob, cfg = make_problem()
        refs = self.reference_sequence(prob, cfg)
        for ref in refs:
            prob.build(ref)
        t = prob._last_template
        patterns = t.A.pattern, t.G.pattern
        for ref in (refs[1], refs[-1]):
            prob.build(ref)
            assert prob._last_template is t
            assert all(a is b for a, b in zip((t.A.pattern, t.G.pattern),
                                              patterns))
        fresh = PlanningProblem(prob.boundary, VP, cfg)
        fresh.build(refs[-1])
        held = [v for v in vars(prob).values()
                if isinstance(v, planner._BuildTemplate)]
        assert held == [prob._last_template]
        arrays, expected = (
            flat_arrays([vars(t), *(vars(x) for block in (t.A, t.G)
                                    for x in (block, block.pattern))])
            for t in (prob._last_template, fresh._last_template))
        assert len(arrays) == len(expected)
        values = [x for block in (t.A, t.G) for x in (
            block.vals, block.rhs, block.pattern.half, block.pattern.stored)]
        for a, e in zip(arrays, expected):
            assert a.dtype == e.dtype and np.array_equal(a, e)
            assert a.dtype == np.int32 or any(np.shares_memory(a, v)
                                              for v in values)

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
        nonneg = prog.cones.n_nn
        assert slack[:nonneg].min() > -1e-7


def nominal_problem(mode, N):
    """The nominal problem at N: ignition-fit from the planner tests'
    initial state, or current-state from the replan tests' mid-course
    state."""
    if mode == "ignition-fit":
        return make_problem(N=N)
    cfg = PlanningConfig(N=N)
    boundary = PlanningBoundary(
        mode="current-state", m0=33000.0,
        r_now=np.array([-300.0, -250.0, -3500.0]),
        v_now=np.array([40.0, 35.0, 230.0]))
    return PlanningProblem(boundary, VP, cfg), cfg


class TestValuePass:
    def test_every_build_is_the_scipy_scaling_of_its_blocks(self,
                                                            monkeypatch):
        # Every build of the nominal N=30 and N=100 plans in both boundary
        # modes, the projection's included, equals byte for byte the scipy
        # scaling and equilibration that the build's pass over its blocks'
        # values replaced (``helpers.scipy_scale_program`` and
        # ``scipy_equilibrate_rows``) of the same unscaled blocks: A, G, b,
        # h and c. Every build of a plan is on its one template and keeps its
        # patterns; the builds cross changes of the load gate, and builds
        # with the same load gate have other exact zeros.
        blocks, built = [], []
        scale, build = planner.scale_program, PlanningProblem.build

        def recorded_scale(eq, ineq, offset):
            blocks.append([(p, d.copy(), r.copy()) for p, d, r in (eq, ineq)])
            return scale(eq, ineq, offset)

        def recorded_build(self, ref):
            # run_scp's trust region replaces c and obj_offset later.
            prog = build(self, ref)
            t = self._last_template
            load = prog.G[t.rows["load"].ravel()]
            built.append((replace(prog), t, t.A.pattern, t.G.pattern,
                          [np.flatnonzero(x.vals == 0.0) for x in (t.A, t.G)],
                          np.flatnonzero(abs(load).sum(axis=1))))
            return prog

        monkeypatch.setattr(planner, "scale_program", recorded_scale)
        monkeypatch.setattr(PlanningProblem, "build", recorded_build)
        gates = zeros = 0
        for mode in ("ignition-fit", "current-state"):
            for N in (30, 100):
                blocks.clear()
                built.clear()
                prob, cfg = nominal_problem(mode, N)
                out = run_scp(prob, initial_guess_planning(prob.boundary, cfg,
                                                           VP),
                              ScpSettings(cfg.eps_scp, cfg.max_scp_iter,
                                          cfg.W_tr))
                assert out.converged and len(blocks) == len(built)
                record = prob.scaling(out.reference)
                cost = np.zeros(prob.n_vars)
                cost[NZ * N + 6] = -1.0
                for (prog, *_), ((A, a, b), (G, g, h)) in zip(built, blocks):
                    expected = scipy_equilibrate_rows(scipy_scale_program(
                        ConicProgram(c=np.zeros(prob.n_vars), b=b, h=h,
                                     cones=prog.cones, **{
                            name: sp.csr_matrix((data, M.indices, M.indptr),
                                                shape=M.shape)
                            for name, M, data in (("A", A, a), ("G", G, g))}),
                        record))
                    expected.c = expected.c + cost
                    for got, want in [
                            *((getattr(getattr(p, name), part)
                               for p in (prog, expected))
                              for name in ("A", "G")
                              for part in ("indptr", "indices", "data")),
                            *((getattr(p, name) for p in (prog, expected))
                              for name in ("b", "h", "c"))]:
                        assert got.dtype == want.dtype, (mode, N)
                        assert got.tobytes() == want.tobytes(), (mode, N)
                    assert prog.obj_offset == expected.obj_offset
                for (_, t0, *p0, z0, g0), (_, t1, *p1, z1, g1) in zip(
                        built, built[1:]):
                    assert t1 is t0
                    assert all(a is b for a, b in zip(p0, p1))
                    if np.array_equal(g0, g1):
                        zeros += any(not np.array_equal(a, b)
                                     for a, b in zip(z0, z1))
                    else:
                        gates += 1
        assert gates and zeros

    def test_matrices_made_and_taken_as_they_are(self, monkeypatch):
        # A build makes two scipy sparse matrices, A and G, whether it
        # makes its template or reuses it; the trust region makes P + 2 w I
        # as one matrix, byte for byte scipy's sum, and adds no two; and
        # the IPM takes A, G and P as they are (``ipm._kernel_csr``).
        made, added = [], []
        init, add = sp._base._spbase.__init__, sp._base._spbase.__add__

        def counted_init(self, *args, **kwargs):
            made.append(type(self).__name__)
            init(self, *args, **kwargs)

        def counted_add(self, other):
            added.append(type(self).__name__)
            return add(self, other)

        prob, cfg = make_problem(N=30)
        ref = initial_guess_planning(prob.boundary, cfg, VP)
        x_ref, w = prob.reference_vector(ref), cfg.W_tr
        with monkeypatch.context() as patch:
            patch.setattr(sp._base._spbase, "__init__", counted_init)
            patch.setattr(sp._base._spbase, "__add__", counted_add)
            for _ in range(2):
                prog = prob.build(ref)
                assert made == ["csr_matrix"] * 2 and not added
                made.clear()
            P = prog.P
            scp.add_trust_region(prog, x_ref, w)
            assert made == ["csr_matrix"] and not added
        expected = P + 2.0 * w * sp.eye(prog.n, format="csr")
        for part in ("indptr", "indices", "data"):
            got, want = getattr(prog.P, part), getattr(expected, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for M in (prog.A, prog.G, prog.P):
            assert ipm._kernel_csr(M) is M

    def test_trust_region_refuses_a_quadratic_term(self):
        # The trust region is a subproblem's only quadratic term: on a
        # program whose P stores an entry, even an explicit zero, it raises
        # and leaves the program as it was.
        for P in (sp.csr_matrix(np.diag([0.0, 1.0, 0.0])),
                  sp.csr_matrix(([0.0], [1], [0, 0, 1, 1]), shape=(3, 3))):
            prog = ConicProgram(c=np.ones(3), P=P, G=sp.csr_matrix(-np.eye(3)),
                                h=np.ones(3), cones=Cones(3))
            with pytest.raises(ValueError, match="quadratic term"):
                scp.add_trust_region(prog, np.zeros(3), 0.7)
            assert prog.P is P and prog.obj_offset == 0.0
            np.testing.assert_array_equal(prog.c, np.ones(3))


def first_subproblem(prob, cfg):
    """The plan's first subproblem as ``run_scp`` solves it: the program
    built about the initial guess, with the trust region added."""
    ref = initial_guess_planning(prob.boundary, cfg, VP)
    prog = prob.build(ref)
    scp.add_trust_region(prog, prob.reference_vector(ref), cfg.W_tr)
    return prog


def first_kkt(N=30):
    """The IPM's first KKT matrix (W = I) of the first subproblem at N, whole
    (``helpers.kkt_matrix``) and in its own row and column order, and the
    IPM's session that holds its upper triangle."""
    prob, cfg = make_problem(N=N)
    prog = first_subproblem(prob, cfg)
    cones = prog.cones
    kkt = ipm_session(prog)
    factor(kkt, NTScaling(cones.points(cones.identity(), cones.identity())))
    position = kkt.analysis.position
    return kkt_matrix(kkt)[position][:, position].tocsc(), kkt


def stage_rule_position(prog, variables_first=False):
    """Where the stage rule puts each KKT row and column, row by row: a
    row of A or G takes the mean stage of the columns it stores outside
    the last stage (the last stage if none), and rows and variables are
    sorted by (stage, rows first, index), or with ``variables_first`` by
    (stage, variables first, index)."""
    n, stage = prog.n, prog.stage
    last = stage.max()
    keys = [(stage[j], int(not variables_first), j) for j in range(n)]
    rows = sp.vstack([prog.A, prog.G], format="csr")
    for i in range(rows.shape[0]):
        columns = rows.indices[rows.indptr[i]:rows.indptr[i + 1]]
        inner = [stage[j] for j in columns if stage[j] < last]
        keys.append((sum(inner) / len(inner) if inner else last,
                     int(variables_first), n + i))
    position = np.empty(len(keys), int)
    position[[key[2] for key in sorted(keys)]] = np.arange(len(keys))
    return position


class TestStageOrdering:
    """The planner's KKT matrices are ordered by stage: node k's columns
    in stage k, eta and t_c in stage N + 1."""

    def test_stages_are_the_nodes(self):
        prob, cfg = make_problem(N=10)
        prog = prob.build(initial_guess_planning(prob.boundary, cfg, VP))
        np.testing.assert_array_equal(
            prog.stage, np.r_[np.repeat(np.arange(11), NZ), 11, 11])

    def test_cold_solve_orders_by_stage_without_minimum_degree(self):
        # The first N=30 subproblem, solved cold: its analysis is the stage
        # rule's, and no factorization calls SuperLU.
        prob, cfg = make_problem(N=30)
        prog = first_subproblem(prob, cfg)
        with splu_calls() as calls:
            sol = ipm.solve(prog)
        assert sol.optimal and sol.reordered and not sol.warm
        assert not calls
        np.testing.assert_array_equal(sol._analysis.position,
                                      stage_rule_position(prog))

    def test_projection_orders_each_stage_variables_first(self, monkeypatch):
        # The Gauss-Newton projection about the first N=30 reference
        # factors [[I, J'], [J, -1e-10 I]], J = [A; W G], in the stage
        # rule's ordering with each stage's variables before its rows:
        # rows first, the kernel would pivot on -1e-10 first.
        calls, stage_order = [], ipm._stage_order

        def recorded(A, G, stage, variables_first=False):
            order = stage_order(A, G, stage, variables_first)
            calls.append((A, G, variables_first, order))
            return order

        monkeypatch.setattr(ipm, "_stage_order", recorded)
        prob, cfg = make_problem(N=30)
        prog = first_subproblem(prob, cfg)
        x = prob.reference_vector(initial_guess_planning(prob.boundary, cfg,
                                                         VP))
        scp.project_onto_rows(prog, x)
        (A, WG, variables_first, order), = calls
        assert A is prog.A and variables_first and WG.shape[0] > 0
        rows = SimpleNamespace(n=prog.n, stage=prog.stage, A=A, G=WG)
        np.testing.assert_array_equal(
            np.argsort(order), stage_rule_position(rows, variables_first=True))

    def test_stage_order_is_scipy_s(self, monkeypatch):
        # The stage sums by np.bincount order as the scipy product they
        # replaced (helpers.scipy_stage_order): on the first N=30
        # subproblem, on its projection's (A, W G) with each stage's
        # variables first, and on that subproblem without stages.
        calls, stage_order = [], ipm._stage_order

        def recorded(A, G, stage, variables_first=False):
            calls.append((A, G, stage, variables_first))
            return stage_order(A, G, stage, variables_first)

        monkeypatch.setattr(ipm, "_stage_order", recorded)
        prob, cfg = make_problem(N=30)
        prog = first_subproblem(prob, cfg)
        x = prob.reference_vector(initial_guess_planning(prob.boundary, cfg,
                                                         VP))
        scp.project_onto_rows(prog, x)
        (projection,) = calls
        assert projection[3]      # variables_first
        for A, G, stage, variables_first in [
                (prog.A, prog.G, prog.stage, False), projection,
                (prog.A, prog.G, None, False)]:
            np.testing.assert_array_equal(
                stage_order(A, G, stage, variables_first),
                scipy_stage_order(A, G, stage, variables_first))

    def test_fill_at_n100_is_at_most_minimum_degree(self):
        # nnz(L) of the first N=100 KKT matrix: 30,471 in the stage
        # ordering, 31,868 by SuperLU's minimum degree. (At N=30 the stage
        # ordering fills more: 9,191 against 8,574.)
        K, kkt = first_kkt(N=100)
        order = np.argsort(superlu(K).perm_c)
        upper = sp.triu(K[order][:, order], format="csc")
        _, Lp = ldl.etree(upper.indptr.astype(np.intc),
                          upper.indices.astype(np.intc))
        assert kkt.analysis.Lp[-1] <= Lp[-1]


# Run in a child process: factors the saved KKT, in the IPM's ordering, 25
# times with the LDL' kernel and solves with it 25 times; then solves the
# saved program cold, and warm from that solution, each through one IPM
# context.
FACTOR_25_TIMES = """
import pickle
import sys
from dataclasses import replace
import numpy as np
import scipy.sparse as sp
from rlv_landing.conic import ipm, ldl
K = sp.load_npz(sys.argv[1]).tocsc()
upper = sp.triu(K, format="csc")
pattern = upper.indptr.astype(np.intc), upper.indices.astype(np.intc)
factors = ldl.Factors(*pattern, *ldl.analyze(*pattern))
rhs, reg = np.ones(K.shape[0]), np.full(K.shape[0], ipm.REG)
for _ in range(25):
    assert factors.factor(upper.data, reg) >= 0
    factors.solve(rhs)
with open(sys.argv[2], "rb") as f:
    program = pickle.load(f)
cold = ipm.solve(program)
warm = ipm.solve(replace(program, start=cold))
assert cold.optimal and warm.optimal and warm.warm
"""


class TestKktFactorization:
    def test_nominal_plan_makes_no_superlu_call(self):
        # Every factorization of a plan, the IPM's and the Gauss-Newton
        # projection's, is the LDL' kernel's.
        prob, cfg = make_problem(N=30)
        with splu_calls() as calls:
            out = run_scp(prob, initial_guess_planning(prob.boundary, cfg, VP),
                          ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
        assert out.converged and any(rec.projected for rec in out.log)
        assert not calls

    def test_factorization_leaves_the_heap_intact(self, tmp_path):
        # A kernel that writes outside its buffers aborts a process under
        # the debug allocator, at exit or when it checks a free. The
        # factorization and solve run 25 times each in a child process
        # under that allocator, and a cold and a warm IPM solve of the
        # nominal N=10 subproblem once each, and it must exit 0.
        path, program = tmp_path / "kkt.npz", tmp_path / "program.pickle"
        sp.save_npz(path, kkt_matrix(first_kkt()[1]))
        program.write_bytes(
            pickle.dumps(first_subproblem(*make_problem(N=10))))
        src = str(Path(ipm.__file__).resolve().parents[2])
        child_env = dict(os.environ, PYTHONMALLOC="debug",
                         PYTHONPATH=os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-X", "dev", "-c", FACTOR_25_TIMES, str(path),
             str(program)],
            env=child_env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]

    def test_direction_solves_refine_only_as_needed(self, monkeypatch):
        # Over the nominal N=30 plan, the IPM's direction solves (predictor,
        # corrector, Gondzio) take fewer than 2 LDL' solves each: two fixed
        # refinement steps took 3, the residual rule takes 1.14. A solve's
        # ``ldl_solves`` counts its cold start's one unrefined solve too.
        # The directions are counted by replaying each step, from the
        # residual vectors in the session's buffers, in the Python loop the
        # kernel calls replaced (``helpers.python_step``), whose Gondzio
        # rounds each solve for one more.
        solutions, steps = [], []
        step = _Session.step

        def recorded_step(self, gap, mu):
            r = [v.copy() for v in (self.r_dual, self.r_eq, self.r_ineq)]
            steps.append((solutions[-1], r, self.s.copy(), self.z.copy(),
                          gap, mu))
            return step(self, gap, mu)

        def recorded_solve(program, tol):
            solutions.append(program)
            sol = ipm.solve(program, tol)
            solutions[-1] = sol
            return sol

        monkeypatch.setattr(_Session, "step", recorded_step)
        prob, cfg = make_problem(N=30)
        out = run_scp(prob, initial_guess_planning(prob.boundary, cfg, VP),
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr),
                      solve_fn=recorded_solve)
        assert out.converged
        directions = 0
        for program, r, s, z, gap, mu in steps:
            events = []
            assert python_step(ipm_session(program), r, s, z, gap, mu,
                               program.P.nnz > 0, events) is not None
            directions += 2 + sum(e in ("accepted", "rejected")
                                  for e in events)
        direction_solves = sum(sol.ldl_solves - (not sol.warm)
                               for sol in solutions)
        assert directions > 100
        assert direction_solves < 2 * directions


class TestPlanningScp:
    def test_one_kkt_analysis_is_alive_at_each_build(self, monkeypatch):
        # A build holds the KKT analysis of the last solution alone: the
        # solution before last, the start of the last solve, goes with its
        # analysis once that solve returns, and the projection's analysis
        # with its step. A plan from the slowed reference of
        # ``TestBuildStructure.reference_sequence`` crosses a load gate: its
        # first solution brings back the load row the slowed node stored as
        # zeros. Every solve from a start reuses that start's analysis, and
        # the projection makes one of its own.
        alive, build = [], PlanningProblem.build

        def analyses():
            return sum(isinstance(o, _Analysis) for o in gc.get_objects())

        def counted_build(self, reference):
            alive.append(analyses())
            return build(self, reference)

        fresh_from_a_start, made = [], []
        of = _Analysis.of.__func__

        def recorded_solve(program, tol):
            sol = ipm.solve(program, tol)
            fresh_from_a_start.append(program.start is not None
                                      and sol.reordered)
            return sol

        def counted_of(cls, *args):
            made.append(cls.__name__)
            return of(cls, *args)

        monkeypatch.setattr(PlanningProblem, "build", counted_build)
        monkeypatch.setattr(_Analysis, "of", classmethod(counted_of))
        prob, cfg = make_problem(N=30)
        slowed = TestBuildStructure.reference_sequence(prob, cfg)[2]
        gc.collect()
        before = analyses()     # those other tests left alive
        out = run_scp(prob, slowed,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr),
                      solve_fn=recorded_solve)
        assert out.converged and not any(fresh_from_a_start)
        assert any(rec.projected for rec in out.log) and len(made) == 2
        assert alive[0] == before and max(alive) == before + 1

    def test_a_load_gate_crossing_keeps_the_template_and_warm_start(
            self, monkeypatch):
        # The plan from the slowed reference of
        # ``TestBuildStructure.reference_sequence`` drops a load row from
        # the gate and gets it back. The gate is a value: the plan makes
        # one build template, and every solve after the first starts warm
        # on the first one's KKT analysis. Each build's load rows outside
        # the gate store only zeros, 0 . x <= 1 after equilibration, and
        # the rows inside it store some nonzero.
        templates, builds, solutions = [], [], []
        make, build = planner._BuildTemplate, PlanningProblem.build

        def counted_make(*args):
            templates.append(make(*args))
            return templates[-1]

        def recorded_build(self, ref):
            prog = build(self, ref)
            builds.append((ref, prog, self._last_template))
            return prog

        def recorded_solve(program, tol):
            solutions.append(ipm.solve(program, tol))
            return solutions[-1]

        monkeypatch.setattr(planner, "_BuildTemplate", counted_make)
        monkeypatch.setattr(PlanningProblem, "build", recorded_build)
        prob, cfg = make_problem(N=30)
        slowed = TestBuildStructure.reference_sequence(prob, cfg)[2]
        out = run_scp(prob, slowed,
                      ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr),
                      solve_fn=recorded_solve)
        assert out.converged and len(templates) == 1
        assert all(t is templates[0] for *_, t in builds)
        assert [(s.warm, s.reordered) for s in solutions[1:]] == \
            [(True, False)] * (len(solutions) - 1)
        gates = []
        for ref, prog, t in builds:
            speed = np.linalg.norm(ref.v, axis=1)
            q_bar = 0.5 * env.air_density(-ref.r[:, 2]) * speed * speed
            gate = (q_bar > cfg.L_lim / math.pi) & (speed >= env.V_EPS)
            rows = t.rows["load"].ravel()
            stored = abs(prog.G[rows]).sum(axis=1).A1 > 0
            assert np.array_equal(stored, gate) and not gate.all()
            assert np.all(np.diff(prog.G.indptr)[rows]
                          == env.LOAD_COLUMNS.size)
            assert np.all(prog.h[rows[~gate]] == 1.0)
            gates.append(np.flatnonzero(gate))
        assert gates[1].size == gates[0].size + 1

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
            alpha = total_aoa(ref.T[k], ref.v[k])
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
        # Over a nominal N=30 plan, the planner makes one cone layout per
        # build template, which every program built on that template
        # holds; no reader of the layout makes another, and the projection
        # reads only programs that ``build`` returned.
        readers = {fn.__code__ for fn in (ipm.solve, scp.fixed_point_residual,
                                          scp.project_onto_rows,
                                          scaling.equilibrate_rows)}
        layouts, inside = [], []
        init = Cones.__init__

        def counted_init(self, *counts):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in readers:
                    inside.append(frame.f_code.co_name)
                frame = frame.f_back
            layouts.append(self)
            init(self, *counts)

        programs, templates, projected = [], [], []
        build = PlanningProblem.build
        project = scp.project_onto_rows

        def counted_build(self, ref):
            programs.append(build(self, ref))
            templates.append(self._last_template)
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
        made = list({id(t): t for t in templates}.values())
        assert len(layouts) == len(made) < len(programs)
        assert all(t.cones is layout for t, layout in zip(made, layouts))
        assert all(p.cones is t.cones for p, t in zip(programs, templates))
        assert projected
        built = {id(p) for p in programs}
        assert all(id(p) in built for p in projected)

    def test_one_cone_pass_per_ipm_iteration(self, monkeypatch):
        # Solving the first N=30 subproblem forms each iterate's cone data,
        # the stack (s, z), once per iteration that takes a step, in its
        # predictor call (``ipm_predictor``, whose data the corrector
        # reads); the last iteration meets the tolerances at its top and
        # takes none. In Python only the cold start forms cone data: its
        # two shifts into the cones, one point each; its factorization at
        # W = I forms the data of (e, e) and lambda in C (ipm_factor).
        stacks, predictors = [], []
        init, predictor = ConePoints.__init__, _Session.predictor

        def counted_init(self, cones, u):
            stacks.append(len(u))
            init(self, cones, u)

        def counted_predictor(self):
            predictors.append(1)
            return predictor(self)

        monkeypatch.setattr(ConePoints, "__init__", counted_init)
        monkeypatch.setattr(_Session, "predictor", counted_predictor)
        prob, cfg = make_problem(N=30)
        sol = ipm.solve(first_subproblem(prob, cfg))
        assert sol.status == "optimal" and not sol.warm
        assert stacks == [1, 1]
        assert len(predictors) == sol.iterations - 1
