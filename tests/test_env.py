"""Vehicle environment tests: atmosphere, aero model, dynamics.

Expected numbers are either direct evaluations of the documented model or
finite-difference cross-checks of the hand-derived Jacobians.
"""

import math

import numpy as np
import pytest

from rlv_landing import env
from rlv_landing.env import (
    AeroOptions,
    DegenerateStateError,
    aero_force_jac,
    air_density,
    ambient_pressure,
    lift_slope,
    load_constraint_planner,
    planner_jacobian,
    planner_rhs,
    translational_dynamics,
)
from rlv_landing.params import VehicleParams

from helpers import (
    aero_coefficients,
    central_diff_jacobian,
    compensated_lift_coeff,
    lift_force,
    random_planner_node,
    rel_jac_error,
    total_aoa,
)

VP = VehicleParams()


def with_gamma(x, T):
    """The kernel's z = (r, v, m, T, Gamma) for state x and thrust T, with
    the delivered magnitude Gamma = ||T||."""
    T = np.asarray(T, float)
    return np.concatenate([x, T, [np.linalg.norm(T)]])


class TestAtmosphere:
    def test_sea_level(self):
        assert air_density(0.0) == pytest.approx(1.225)
        assert ambient_pressure(0.0) == pytest.approx(101325.0)

    def test_one_scale_height(self):
        assert air_density(8500.0) == pytest.approx(1.225 / math.e, rel=1e-12)
        assert ambient_pressure(8500.0) == pytest.approx(101325.0 / math.e,
                                                         rel=1e-12)

    def test_decays_to_zero(self):
        assert air_density(500e3) < 1e-20
        assert ambient_pressure(500e3) < 1e-15

    def test_negative_altitude_clamped(self):
        assert air_density(-5.0) == pytest.approx(1.225)
        assert ambient_pressure(-5.0) == pytest.approx(101325.0)

    def test_dynamic_pressure(self):
        # Engine off at sea level the aero force is the zero-incidence drag
        # q_bar s_ref C_D0 along -v, with q_bar = rho v^2 / 2.
        v = np.array([0.0, 0.0, 100.0])
        F = aero_force_jac(0.0, v, np.zeros(3), VP, AeroOptions())[0]
        q_bar = 0.5 * 1.225 * 100.0**2
        assert F == pytest.approx([0.0, 0.0, -q_bar * VP.s_ref * VP.C_D0],
                                  rel=1e-12)


class TestTotalAoa:
    def test_retro_thrust(self):
        v = np.array([10.0, 0.0, 30.0])
        assert total_aoa(-2e5 * v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert total_aoa(np.array([1e5, 0, 0]), np.array([0, 0, 50.0])) == \
            pytest.approx(math.pi / 2)

    def test_parallel(self):
        v = np.array([0.0, 3.0, 40.0])
        assert total_aoa(5e4 * v, v) == pytest.approx(math.pi)

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateStateError):
            total_aoa(np.zeros(3), np.array([1.0, 0, 0]))


class TestAeroCoefficients:
    def test_zero_incidence(self):
        c = aero_coefficients(0.0, VP)
        assert c.C_L == 0.0
        assert c.C_D == VP.C_D0
        assert c.C_z == 0.0
        assert c.C_L_comp == 0.0

    def test_linear_slope(self):
        c = aero_coefficients(0.1, VP)
        assert c.C_L == pytest.approx(VP.C_L_alpha * 0.1)

    def test_cz_identity(self):
        # C_z = C_L cos(a) + C_D sin(a) with C_L = 0.5, C_D = 1.2, a = 0.1
        cz = 0.5 * math.cos(0.1) + 1.2 * math.sin(0.1)
        assert cz == pytest.approx(0.6173, abs=5e-5)
        c = aero_coefficients(0.1, VP)
        assert c.C_z == pytest.approx(
            c.C_L * math.cos(0.1) + c.C_D * math.sin(0.1), rel=1e-12)


class TestCompensatedLift:
    def test_zero_incidence_identity(self):
        assert compensated_lift_coeff(0.5, 1.2, 0.0, 10.0, 15.0) == \
            pytest.approx(0.5 - (10.0 / 15.0) * 0.5)
        # C_z(0) = C_L, so only the C_L part survives in the moment term.

    def test_cp_at_cg(self):
        assert compensated_lift_coeff(0.5, 1.2, 0.3, 0.0, 15.0) == 0.5

    def test_reference_value(self):
        got = compensated_lift_coeff(0.5, 1.2, 0.1, 7.5, 15.0)
        assert got == pytest.approx(0.5 - 0.5 * 0.6173, abs=5e-5)

    def test_zero_hinge_arm_raises(self):
        with pytest.raises(DegenerateStateError):
            compensated_lift_coeff(0.5, 1.2, 0.1, 10.0, 0.0)

    def test_reduces_lift_when_cz_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(0.0, 1.2)
            C_L = VP.C_L_alpha * a
            C_D = VP.C_D0 + VP.C_D2 * a * a
            C_z = C_L * math.cos(a) + C_D * math.sin(a)
            if C_z >= 0:
                assert compensated_lift_coeff(C_L, C_D, a, VP.l_cp, VP.l_c) <= C_L


class TestLiftSlope:
    def test_small_angle_limit(self):
        E0, _ = lift_slope(0.0, VP, AeroOptions())
        expected = VP.C_L_alpha - (VP.l_cp / VP.l_c) * (VP.C_L_alpha + VP.C_D0)
        assert E0 == pytest.approx(expected, rel=1e-12)

    def test_matches_pointwise_ratio(self):
        for alpha in (1e-3, 0.05, 0.3, 1.0):
            E, _ = lift_slope(alpha**2, VP, AeroOptions())
            c = aero_coefficients(alpha, VP)
            assert E == pytest.approx(c.C_L_comp / alpha, rel=1e-9)

    def test_derivative_matches_fd(self):
        for beta in (1e-9, 1e-4, 0.01, 0.4):
            _, dE = lift_slope(beta, VP, AeroOptions())
            eps = 1e-7 * max(beta, 1e-3)
            Ep, _ = lift_slope(beta + eps, VP, AeroOptions())
            Em, _ = lift_slope(max(beta - eps, 0.0), VP, AeroOptions())
            fd = (Ep - Em) / (eps + min(beta, eps))
            assert dE == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_uncompensated_is_constant(self):
        E, dE = lift_slope(0.3, VP, AeroOptions(lift_compensation=False))
        assert E == VP.C_L_alpha and dE == 0.0

    def test_drag_only_zeroes_lift(self):
        E, dE = lift_slope(0.3, VP, AeroOptions(drag_only=True))
        assert E == 0.0 and dE == 0.0


class TestLiftForce:
    def test_antiparallel_gives_zero(self):
        v = np.array([5.0, -3.0, 40.0])
        assert np.allclose(lift_force(-1e4 * v, v, 1.0, VP.s_ref, 2.0), 0.0)

    def test_vacuum_gives_zero(self):
        assert np.allclose(
            lift_force(np.array([1e5, 0, -5e5]), np.array([50, 0, 300.0]),
                       0.0, VP.s_ref, 2.0), 0.0)

    def test_orthogonal_to_velocity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            T = rng.normal(scale=3e5, size=3)
            v = rng.normal(scale=150, size=3)
            if np.linalg.norm(v) < 1.0:
                continue
            F = lift_force(T, v, 1.0, VP.s_ref, 2.0)
            assert abs(F @ v) <= 1e-9 * max(np.linalg.norm(F) * np.linalg.norm(v), 1.0)

    def test_magnitude_is_qbar_s_slope_sin_alpha(self):
        T = np.array([2e5, 0.0, -6e5])
        v = np.array([60.0, 10.0, 350.0])
        rho = 0.7
        alpha = total_aoa(T, v)
        F = lift_force(T, v, rho, VP.s_ref, VP.C_L_alpha)
        q_bar = 0.5 * rho * (v @ v)
        assert np.linalg.norm(F) == pytest.approx(
            q_bar * VP.s_ref * VP.C_L_alpha * math.sin(alpha), rel=1e-12)


class TestAeroForce:
    def test_force_matches_scalar_reference(self):
        # The kernel writes the force through beta = alpha^2 and a stacked
        # projection; the reference is drag -q_bar s C_D v_hat plus
        # lift_force, from the scalar angle and coefficient functions.
        rng = np.random.default_rng(46)
        for opts in (AeroOptions(), AeroOptions(lift_compensation=False),
                     AeroOptions(drag_only=True)):
            Z = np.array([random_planner_node(rng, VP) for _ in range(200)])
            F = aero_force_jac(Z[:, 2], Z[:, 3:6], Z[:, 7:10], VP, opts)[0]
            for z, F_k in zip(Z, F):
                v, T = z[3:6], z[7:10]
                rho = air_density(-z[2])
                q_bar = 0.5 * rho * (v @ v)
                alpha = total_aoa(T, v)
                c = aero_coefficients(alpha, VP)
                if opts.drag_only:
                    slope = 0.0
                elif opts.lift_compensation:
                    slope = c.C_L_comp / alpha
                else:
                    slope = VP.C_L_alpha
                ref = (-q_bar * VP.s_ref * c.C_D * v / np.linalg.norm(v)
                       + lift_force(T, v, rho, VP.s_ref, slope))
                assert np.linalg.norm(F_k - ref) <= \
                    1e-12 * np.linalg.norm(ref)


class TestDynamics3Dof:
    def test_mass_flow_at_sea_level(self):
        # Gamma = 816 kN delivered at sea level, Table-2 engine.
        x = np.concatenate([[0, 0, 0], [0, 0, -1.0], [VP.m0]])
        T = np.array([0.0, 0.0, -816e3])
        xdot = translational_dynamics(with_gamma(x, T), VP)[0]
        expected = -(816e3 + 101325.0 * VP.A_exit) / (VP.g_ref * VP.Isp)
        assert xdot[6] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-319.4, abs=0.1)

    def test_free_fall_vacuum(self):
        x = np.concatenate([[0, 0, -500e3], np.zeros(3), [VP.m0]])
        xdot = translational_dynamics(with_gamma(x, np.zeros(3)), VP)[0]
        assert np.allclose(xdot[3:6], [0, 0, VP.g_ref])

    def test_hover(self):
        m = 30000.0
        x = np.concatenate([[0, 0, -400e3], np.zeros(3), [m]])
        T = np.array([0.0, 0.0, -m * VP.g_ref])
        xdot = translational_dynamics(with_gamma(x, T), VP)[0]
        assert np.allclose(xdot[3:6], 0.0, atol=1e-12)

    def test_mass_monotonic(self):
        # mdot < 0 whenever thrust or ambient pressure is nonzero.
        x = np.concatenate([[0, 0, -3000.0], [10, 0, 100.0], [VP.m0]])
        z = with_gamma(x, np.zeros(3))
        assert translational_dynamics(z, VP)[0][6] < 0.0
        x_vac = np.concatenate([[0, 0, -800e3], [10, 0, 100.0], [VP.m0]])
        z_vac = with_gamma(x_vac, np.array([0, 0, -1e3]))
        assert translational_dynamics(z_vac, VP)[0][6] < 0.0

    def test_low_speed_zeroes_aero(self):
        x = np.concatenate([[0, 0, -1000.0], [0.05, 0, 0], [VP.m0]])
        T = np.array([0.0, 0.0, -5e5])
        xdot = translational_dynamics(with_gamma(x, T), VP)[0]
        assert np.allclose(xdot[3:6], T / VP.m0 + VP.gravity)


class TestCoastDynamics:
    def test_equals_the_kernel_bitwise(self):
        # Altitudes from 60 km to below the ground (r_z > 0), and about a
        # fifth of the speeds under V_EPS. The atmosphere's exp is where a
        # float rewrite would round differently, so most states sit where
        # it is neither 1 nor 0.
        rng = np.random.default_rng(17)
        opts = AeroOptions(drag_only=True)
        xs = []
        for i in range(2000):
            r = np.array([*rng.uniform(-1e3, 1e3, 2), rng.uniform(-60e3, 500.0)])
            v = rng.normal(0.0, 0.04 if i % 4 == 0 else 300.0, 3)
            xs.append(np.concatenate([r, v, [rng.uniform(1e3, 4e4)]]))
        assert sum(np.linalg.norm(x[3:6]) < env.V_EPS for x in xs) > 300
        got = [env.coast_dynamics(list(x), VP) for x in xs]
        want = [translational_dynamics(with_gamma(x, np.zeros(3)), VP,
                                       opts)[0] for x in xs]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m, r_z", [(0.0, -3e3), (-1.0, -3e3),
                                        (VP.m0, math.nan), (VP.m0, math.inf)])
    def test_degenerate_state_raises(self, m, r_z):
        with pytest.raises(DegenerateStateError):
            env.coast_dynamics([0.0, 0.0, r_z, 10.0, 0.0, 100.0, m], VP)


class TestJacobians:
    def test_planner_jacobian_fd(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(30):
            z = random_planner_node(rng, VP)
            f, J = planner_jacobian(z, VP)
            J_fd = central_diff_jacobian(lambda zz: planner_rhs(zz, VP), z)
            worst = max(worst, rel_jac_error(J, J_fd))
        assert worst < 1e-5

    def test_jacobians_all_aero_modes(self):
        rng = np.random.default_rng(44)
        for opts in (AeroOptions(), AeroOptions(lift_compensation=False),
                     AeroOptions(drag_only=True)):
            for _ in range(10):
                z = random_planner_node(rng, VP)
                _, J = planner_jacobian(z, VP, opts)
                J_fd = central_diff_jacobian(
                    lambda zz: planner_rhs(zz, VP, opts), z)
                assert rel_jac_error(J, J_fd) < 1e-5

    def test_velocity_rows_zero_aero(self):
        # In vacuum the velocity-row Jacobian w.r.t. T is I/m.
        z = random_planner_node(np.random.default_rng(2), VP)
        z[2] = -900e3
        _, J = planner_jacobian(z, VP)
        assert np.allclose(J[3:6, 7:10], np.eye(3) / z[6], rtol=1e-12)

class TestLoadConstraint:
    def test_planner_gradient_fd(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            z = random_planner_node(rng, VP)
            g, grad = load_constraint_planner(z, VP, 3.0e3)
            grad_fd = central_diff_jacobian(
                lambda zz: np.array([load_constraint_planner(zz, VP, 3.0e3)[0]]), z)
            assert rel_jac_error(grad[None, :], grad_fd) < 1e-5

    def test_sign_matches_load(self):
        # g_L <= 0 iff q_bar * alpha <= L_lim (away from the clamp region).
        rng = np.random.default_rng(23)
        for _ in range(50):
            z = random_planner_node(rng, VP)
            z[10] = np.linalg.norm(z[7:10])   # tight relaxation
            nv = np.linalg.norm(z[3:6])
            q_bar = 0.5 * env.air_density(-z[2]) * nv * nv
            alpha = total_aoa(z[7:10], z[3:6])
            if q_bar <= 3.0e3 / math.pi:
                continue
            g, _ = load_constraint_planner(z, VP, 3.0e3)
            assert (g <= 0) == (q_bar * alpha <= 3.0e3 + 1e-9)


class TestKernelBranches:
    """Batched kernels on the nodes ``random_planner_node`` never reaches."""

    L_LIM = 3.0e3
    MODES = (AeroOptions(), AeroOptions(lift_compensation=False),
             AeroOptions(drag_only=True))

    @staticmethod
    def _node(r, v, T, Gamma=None, m=30000.0):
        T = np.asarray(T, float)
        Gamma = np.linalg.norm(T) * 1.02 if Gamma is None else Gamma
        return np.concatenate([r, v, [m], T, [Gamma]])

    def _batch(self):
        """Mixed nodes and, per node, the columns where f is not smooth."""
        v_retro = np.array([10.0, -5.0, 120.0])
        side = np.cross(v_retro, [0.0, 0.0, 1.0])
        T_retro = -4e5 * v_retro / np.linalg.norm(v_retro) \
            + 20.0 * side / np.linalg.norm(side)
        rng = np.random.default_rng(31)
        cases = [
            # engine off: the model switches at ||T|| = T_EPS
            (self._node([100, -50, -3000], [20, 5, 150], np.zeros(3), 4.2e5),
             slice(7, 10)),
            # below V_EPS airspeed
            (self._node([30, 10, -800], [0.05, 0, 0.02], [1e4, 0, -5e5]),
             None),
            # terminal node: v = 0 on the pad, h = 0 is the density kink
            (self._node([0, 0, 0], [0, 0, 0], [0, 0, -4.5e5]), slice(2, 3)),
            # near retro-thrust: the small-alpha sinc series
            (self._node([-200, 100, -2500], v_retro, T_retro), None),
            # q_bar <= L_lim/pi: the clamped load angle
            (self._node([0, 0, -2000], [20, 5, 22], [1e5, 2e4, -3e5]), None),
            # below ground: h <= 0 clamps the density
            (self._node([40, 0, 5], [3, 2, 40], [3e4, 1e4, -6e5]), None),
            (random_planner_node(rng, VP), None),
            (random_planner_node(rng, VP), None),
        ]
        Z = np.array([z for z, _ in cases])
        return Z, [kink for _, kink in cases]

    def test_batch_reaches_every_branch(self):
        Z, _ = self._batch()
        speed = np.linalg.norm(Z[:, 3:6], axis=1)
        assert np.linalg.norm(Z[0, 7:10]) <= env.T_EPS
        assert speed[1] < env.V_EPS and speed[2] == 0.0
        assert total_aoa(Z[3, 7:10], Z[3, 3:6]) < 1e-4
        q_bar = 0.5 * env.air_density(-Z[4, 2]) * speed[4] ** 2
        assert q_bar <= self.L_LIM / math.pi
        assert -Z[5, 2] < 0.0
        g, _ = load_constraint_planner(Z, VP, self.L_LIM)
        Tv = np.einsum("ki,ki->k", Z[:, 7:10], Z[:, 3:6])
        # Clamped angle pi: g = T.v - Gamma ||v||; no airspeed: g = T.v.
        assert g[4] == pytest.approx(Tv[4] - Z[4, 10] * speed[4], rel=1e-12)
        assert g[1] == pytest.approx(Tv[1], rel=1e-12)

    def test_batch_rows_equal_single_nodes(self):
        Z, _ = self._batch()

        def close(batch, single):
            scale = max(np.abs(single).max(), 1e-300)
            assert np.abs(batch - single).max() <= 1e-14 * scale

        for opts in self.MODES:
            f, J = planner_jacobian(Z, VP, opts)
            assert f.shape == (len(Z), 7) and J.shape == (len(Z), 7, 11)
            for k, z in enumerate(Z):
                f1, J1 = planner_jacobian(z, VP, opts)
                close(f[k], f1)
                close(J[k], J1)
                close(planner_rhs(z, VP, opts), f1)
        g, grad = load_constraint_planner(Z, VP, self.L_LIM)
        for k, z in enumerate(Z):
            g1, grad1 = load_constraint_planner(z, VP, self.L_LIM)
            close(np.array([g[k]]), np.array([g1]))
            close(grad[k], grad1)

    def test_jacobian_fd_where_smooth(self):
        Z, kinks = self._batch()
        for opts in self.MODES:
            _, J = planner_jacobian(Z, VP, opts)
            for z, Jk, kink in zip(Z, J, kinks):
                J_fd = central_diff_jacobian(
                    lambda zz: planner_rhs(zz, VP, opts), z)
                smooth = np.ones(11, bool)
                if kink is not None:
                    smooth[kink] = False
                assert rel_jac_error(Jk[:, smooth], J_fd[:, smooth]) < 1e-5
            # Engine off: no incidence, so thrust enters only as T/m.
            np.testing.assert_array_equal(J[0, 3:6, 7:10], np.eye(3) / Z[0, 6])

    def test_load_gradient_fd(self):
        Z, _ = self._batch()
        _, grad = load_constraint_planner(Z, VP, self.L_LIM)
        for z, gk in zip(Z, grad):
            grad_fd = central_diff_jacobian(
                lambda zz: np.array(
                    [load_constraint_planner(zz, VP, self.L_LIM)[0]]), z)
            assert rel_jac_error(gk[None, :], grad_fd) < 1e-5


class TestStructure:
    """J and the load gradient are exactly 0 outside the entries
    ``env.JACOBIAN_ENTRIES`` and ``env.LOAD_COLUMNS`` state, which are all
    the planner's build template stores of them: an entry outside would be
    dropped from every subproblem without a word."""

    @staticmethod
    def _nodes():
        """Random nodes, then the corner cases of the kernels' branches."""
        node = TestKernelBranches._node
        rng = np.random.default_rng(47)
        return np.array([random_planner_node(rng, VP) for _ in range(20)] + [
            # vertical thrust with v along z, where dP/dT's terms cancel
            node([50, -20, -3000], [0, 0, 150], [0, 0, -5e5]),
            # speed below V_EPS
            node([30, 10, -800], [0.05, 0, 0.02], [1e4, 0, -5e5]),
            # altitude <= 0: on the pad at rest, and below ground
            node([0, 0, 0], [0, 0, 0], [0, 0, -4.5e5]),
            node([40, 0, 5], [3, 2, 40], [3e4, 1e4, -6e5]),
            # thrust below T_EPS
            node([100, -50, -3000], [20, 5, 150], [1e-10, 0, 0], 4.2e5)])

    def test_corner_cases_are_reached(self):
        Z = self._nodes()[20:]
        speed = np.linalg.norm(Z[:, 3:6], axis=1)
        assert np.all(Z[0, 7:9] == 0.0) and np.all(Z[0, 3:5] == 0.0)
        assert speed[1] < env.V_EPS
        assert np.all(-Z[2:4, 2] <= 0.0)
        assert np.linalg.norm(Z[4, 7:10]) < env.T_EPS

    def test_jacobian_is_zero_outside_its_entries(self):
        Z = self._nodes()
        listed = np.zeros((7, 11), bool)
        listed[env.JACOBIAN_ENTRIES] = True
        assert listed.sum() == len(env.JACOBIAN_ENTRIES[0]) == 29
        for opts in TestKernelBranches.MODES:
            _, J = planner_jacobian(Z, VP, opts)
            assert not J[:, ~listed].any()
            for z in Z:
                assert not planner_jacobian(z, VP, opts)[1][~listed].any()
            # No listed entry is zero at every node.
            assert (J != 0.0).any(axis=0)[listed].all()

    def test_load_gradient_is_zero_outside_its_columns(self):
        Z = self._nodes()
        listed = np.zeros(11, bool)
        listed[env.LOAD_COLUMNS] = True
        assert listed.sum() == len(env.LOAD_COLUMNS) == 8
        _, grad = load_constraint_planner(Z, VP, TestKernelBranches.L_LIM)
        assert not grad[:, ~listed].any()
        for z in Z:
            _, g = load_constraint_planner(z, VP, TestKernelBranches.L_LIM)
            assert not g[~listed].any()
        assert (grad != 0.0).any(axis=0)[listed].all()
