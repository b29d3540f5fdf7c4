"""Vehicle environment: atmosphere, aerodynamic forces with optional lift
compensation, and the continuous-time translational dynamics of the planning
optimal control problem.

Conventions
-----------
- NED inertial frame, origin at the landing pad, down positive. Altitude is
  h = -r_z. Gravity is (0, 0, g_ref).
- The total angle of attack alpha_T is the angle between the thrust vector
  (assumed along the longitudinal axis) and -v, so alpha_T = 0 means perfect
  retro-thrust.
- Aerodynamics: C_L = C_L_alpha * alpha_T, C_D = C_D0 + C_D2 * alpha_T**2,
  drag along -v, lift perpendicular to v in the plane spanned by (T, v):

      F_lift = q_bar * s_ref * slope * ((T x v) x v) / (||T|| ||v||^2)

  whose magnitude is q_bar * s_ref * slope * sin(alpha_T). With lift
  compensation the slope is C_L'/alpha_T where C_L' = C_L - (l_cp/l_c) C_z
  accounts for the steady TVC deflection that trims the aero moment.
- Every aero quantity is a smooth function of beta = alpha_T**2, which keeps
  the analytic Jacobians finite through the retro-thrust condition alpha = 0.

The translational model (f and its Jacobian) and the aerodynamic load
constraint are each written once, over arrays with a leading batch axis, so
one call serves a single node or a whole trajectory; the planning form is
the kernel itself. The engine-off coast, integrated one node at a time, has
its own float form (``coast_dynamics``), which the tests hold bit-equal to
the kernel. All Jacobians here are hand-derived; the test suite checks each
against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import H_SCALE, P0, RHO0, VehicleParams

# Below this airspeed dynamic pressure is negligible: drag and lift are
# forced to zero to avoid the v/||v|| singularity.
V_EPS = 0.1
# Thrust below this is treated as engine-off coast (zero-incidence, no lift).
T_EPS = 1e-9


class DegenerateStateError(ValueError):
    """A state is unusable for the requested operation (zero norms, m <= 0)."""


@dataclass(frozen=True)
class AeroOptions:
    """Which guidance-side aero model variant to evaluate."""

    lift_compensation: bool = True
    drag_only: bool = False


def ambient_pressure(altitude):
    """Ambient pressure [Pa] at altitude [m], elementwise; clamped at h = 0."""
    return P0 * np.exp(-np.maximum(altitude, 0.0) / H_SCALE)


def air_density(altitude):
    """Air density [kg/m^3] at altitude [m], elementwise; clamped at h = 0."""
    return RHO0 * np.exp(-np.maximum(altitude, 0.0) / H_SCALE)


def _sinc_pair(alpha, beta):
    """sinc(alpha) = sin(alpha)/alpha and its derivative w.r.t. beta = alpha^2,
    elementwise; a series below alpha = 1e-4."""
    small = alpha < 1e-4
    a = np.where(small, 1.0, alpha)
    s = np.sin(a) / a
    s_small = 1.0 - beta / 6.0 + beta * beta / 120.0
    ds = (np.cos(a) - s) / (2.0 * np.where(small, 1.0, beta))
    return (np.where(small, s_small, s),
            np.where(small, -1.0 / 6.0 + beta / 60.0, ds))


def lift_slope(beta, vp: VehicleParams, opts: AeroOptions):
    """Effective lift slope E(beta) and dE/dbeta, elementwise in beta =
    alpha_T^2.

    Uncompensated: E = C_L_alpha. Compensated: E = C_L'/alpha_T evaluated
    pointwise, which stays finite as alpha_T -> 0 (limit C_L_alpha -
    (l_cp/l_c)(C_L_alpha + C_D0)).
    """
    if opts.drag_only:
        return 0.0, 0.0
    if not opts.lift_compensation:
        return vp.C_L_alpha, 0.0
    alpha = np.sqrt(np.maximum(beta, 0.0))
    ratio = vp.l_cp / vp.l_c
    s, ds = _sinc_pair(alpha, beta)
    c = np.cos(alpha)
    C_D = vp.C_D0 + vp.C_D2 * beta
    E = vp.C_L_alpha - ratio * (vp.C_L_alpha * c + C_D * s)
    dE = -ratio * (-vp.C_L_alpha * s / 2.0 + vp.C_D2 * s + C_D * ds)
    return E, dE


def _dot(a, b):
    """Dot product over the last axis. A stacked matmul keeps the BLAS dot
    that a single 1-D product uses, so every node rounds the same way."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a):
    return np.sqrt(_dot(a, a))


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _pow(x, p):
    """x**p through the C library's pow at every element. numpy's vectorized
    power rounds differently, and the terms of dP/dT cancel at vertical
    thrust, so the rounding decides which Jacobian entries are exact zeros:
    not the subproblem's pattern, which stores them, only its last bits."""
    return np.asarray(np.frompyfunc(math.pow, 2, 1)(x, p), float)


def aero_force_jac(r_z, v, T, vp: VehicleParams, opts: AeroOptions):
    """Aero force and its Jacobians w.r.t. r_z, v and T.

    r_z has shape (...,), v and T (..., 3). Returns (F (..., 3),
    dF_drz (..., 3), dF_dv (..., 3, 3), dF_dT (..., 3, 3)). Below V_EPS
    airspeed everything is zero; with thrust off the zero-incidence coast
    model is used (drag at C_D0, no lift) and dF_dT = 0.
    """
    r_z = np.asarray(r_z, float)
    v = np.asarray(v, float)
    T = np.asarray(T, float)
    nv = _norm(v)
    nT = _norm(T)
    aero = nv >= V_EPS
    thrust = aero & (nT > T_EPS)
    # Unit stand-ins keep the masked-out nodes finite.
    nv = np.where(aero, nv, 1.0)
    nT = np.where(thrust, nT, 1.0)

    h = -r_z
    rho = air_density(h)
    q_bar = 0.5 * rho * nv * nv
    vhat = v / nv[..., None]
    s = vp.s_ref

    # Engine-off coast is the same model at zero incidence with no lift.
    Tv = _dot(T, v)
    w = _norm(np.cross(T, v))
    alpha = np.where(thrust, np.arctan2(w, -Tv), 0.0)
    beta = alpha * alpha
    C_D = vp.C_D0 + vp.C_D2 * beta
    E, dE = lift_slope(beta, vp, opts)
    E = np.where(thrust, E, 0.0)
    PV = Tv[..., None] * v - (nv * nv)[..., None] * T
    P_vec = PV / (nT * nv * nv)[..., None]
    F = ((-q_bar * s * C_D)[..., None] * vhat
         + (q_bar * s * E)[..., None] * P_vec)
    on = aero[..., None]

    # Stable gradients of beta w.r.t. T and v. alpha/sin(alpha) -> 1 at
    # alpha = 0 and is clamped near alpha = pi (thrust along velocity never
    # occurs during a landing burn).
    sin_a = w / (nT * nv)
    asr = np.where(alpha > 1e-9, alpha / np.maximum(sin_a, 1e-12), 1.0)
    asr = np.minimum(asr, 1e9)
    denom = (nT * nT * nv * nv)[..., None]
    scale = (2.0 * asr * -Tv / (nT * nv))[..., None]
    aw = (2.0 * alpha * w)[..., None]
    q_T = (nv * nv)[..., None] * T - Tv[..., None] * v
    q_v = (nT * nT)[..., None] * v - Tv[..., None] * T
    burn = thrust[..., None]
    gb_T = np.where(burn, (scale * q_T + aw * v) / denom, 0.0)
    gb_v = np.where(burn, (scale * q_v + aw * T) / denom, 0.0)
    dE = np.where(thrust, dE, 0.0)
    dCD = vp.C_D2

    eye = np.eye(3)
    nT_, nv_ = nT[..., None, None], nv[..., None, None]
    dPV_dT = _outer(v, v) - nv_ * nv_ * eye
    dPV_dv = Tv[..., None, None] * eye + _outer(v, T) - 2.0 * _outer(T, v)
    dP_dT = (dPV_dT / (nT_ * nv_ * nv_)
             - _outer(PV, T) / (_pow(nT_, 3) * nv_ * nv_))
    dP_dv = (dPV_dv / (nT_ * nv_ * nv_)
             - 2.0 * _outer(PV, v) / (nT_ * _pow(nv_, 4)))

    drho_drz = np.where(h > 0.0, rho / H_SCALE, 0.0)
    dqbar_drz = 0.5 * drho_drz * nv * nv
    dF_drz = (dqbar_drz * s)[..., None] * (-C_D[..., None] * vhat
                                           + E[..., None] * P_vec)

    qs = (q_bar * s)[..., None, None]
    dF_dT = (-qs * dCD * _outer(vhat, gb_T)
             + qs * (_outer(P_vec, dE[..., None] * gb_T)
                     + E[..., None, None] * dP_dT))

    dqbar_dv = rho[..., None] * v
    dvhat_dv = (eye - _outer(vhat, vhat)) / nv_
    dF_dv = (-s * (C_D[..., None, None] * _outer(vhat, dqbar_dv)
                   + (q_bar * dCD)[..., None, None] * _outer(vhat, gb_v)
                   + (q_bar * C_D)[..., None, None] * dvhat_dv)
             + s * (_outer(P_vec, E[..., None] * dqbar_dv
                           + (q_bar * dE)[..., None] * gb_v)
                    + (q_bar * E)[..., None, None] * dP_dv))

    on3 = on[..., None]
    return (np.where(on, F, 0.0), np.where(on, dF_drz, 0.0),
            np.where(on3, dF_dv, 0.0), np.where(on3, dF_dT, 0.0))


# The (rows, columns) of J that ``translational_dynamics`` can make nonzero,
# row by row: r' at its own v, v' at r_z, v, m and T, m' at r_z and Gamma.
JACOBIAN_ENTRIES = (np.repeat(np.arange(7), [1, 1, 1, 8, 8, 8, 2]),
                    np.r_[3, 4, 5, np.tile(np.arange(2, 10), 3), 2, 10])


def translational_dynamics(z, vp: VehicleParams,
                           opts: AeroOptions = AeroOptions()):
    """The translational model f(z) (..., 7) and J = df/dz (..., 7, 11).

    z = (r, v, m, T, Gamma) has shape (..., 11): thrust, drag and lift,
    gravity, and a mass flow driven by the magnitude Gamma plus the
    back-pressure loss at the current altitude.
    """
    z = np.asarray(z, float)
    r_z, v, m = z[..., 2], z[..., 3:6], z[..., 6]
    T, Gamma = z[..., 7:10], z[..., 10]
    if np.any(m <= 0.0) or not np.all(np.isfinite(z)):
        raise DegenerateStateError("degenerate planning node")
    F, dF_drz, dF_dv, dF_dT = aero_force_jac(r_z, v, T, vp, opts)
    P_e = ambient_pressure(-r_z)
    mdot_coeff = 1.0 / (vp.g_ref * vp.Isp)
    m1 = m[..., None]

    f = np.empty(z.shape[:-1] + (7,))
    f[..., 0:3] = v
    f[..., 3:6] = (T + F) / m1 + vp.gravity
    f[..., 6] = -(Gamma + P_e * vp.A_exit) * mdot_coeff

    dPe_drz = np.where(-r_z > 0.0, P_e / H_SCALE, 0.0)
    J = np.zeros(z.shape[:-1] + (7, 11))
    J[..., 0:3, 3:6] = np.eye(3)
    J[..., 3:6, 2] = dF_drz / m1
    J[..., 3:6, 3:6] = dF_dv / m1[..., None]
    J[..., 3:6, 6] = -(T + F) / (m1 * m1)
    J[..., 3:6, 7:10] = (np.eye(3) + dF_dT) / m1[..., None]
    J[..., 6, 2] = -dPe_drz * vp.A_exit * mdot_coeff
    J[..., 6, 10] = -mdot_coeff
    return f, J


# The planning OCP's dynamics over z = (r, v, m, T, Gamma) are the kernel
# itself; the relaxed magnitude Gamma drives the mass flow.
planner_jacobian = translational_dynamics


def planner_rhs(z, vp: VehicleParams,
                opts: AeroOptions = AeroOptions()) -> np.ndarray:
    """Planning OCP dynamics f(z): the kernel's f. With Gamma = ||T|| it is
    the physical translational model."""
    return translational_dynamics(z, vp, opts)[0]


def coast_dynamics(x, vp: VehicleParams) -> list[float]:
    """``translational_dynamics`` at T = 0 under
    ``AeroOptions(drag_only=True)``: the engine-off coast f(x) for one state
    x = (r, v, m) of 7 floats, returned as a list of 7 floats.

    It rounds exactly as the kernel does: the same operations in the same
    order, with ||v||^2 through ``_dot`` and one ``np.exp`` for density and
    back-pressure, whose roundings a float sum of squares and ``math.exp``
    do not reproduce.
    """
    _, _, rz, vx, vy, vz, m = x
    if m <= 0.0 or not all(map(math.isfinite, x)):
        raise DegenerateStateError("degenerate coast state")
    v = np.array((vx, vy, vz))
    nv = math.sqrt(_dot(v, v))
    e = float(np.exp(-max(-rz, 0.0) / H_SCALE))
    ax = ay = az = 0.0
    if nv >= V_EPS:
        drag = -(0.5 * (RHO0 * e) * nv * nv) * vp.s_ref * vp.C_D0
        ax, ay, az = drag * (vx / nv), drag * (vy / nv), drag * (vz / nv)
    # Gravity is (0, 0, g_ref); adding its zeros turns a -0.0 into 0.0, as
    # the kernel's T + F does.
    return [vx, vy, vz, ax / m + 0.0, ay / m + 0.0, az / m + vp.g_ref,
            -((P0 * e) * vp.A_exit) * (1.0 / (vp.g_ref * vp.Isp))]


def _load_angle(q_bar, L_lim: float):
    """Clamped load-bound angle a = min(L_lim/q_bar, pi) and da/dq_bar."""
    clamp = q_bar <= L_lim / math.pi
    q = np.where(clamp, 1.0, q_bar)
    return (np.where(clamp, math.pi, L_lim / q),
            np.where(clamp, 0.0, -L_lim / (q * q)))


# The columns of z that ``load_constraint_planner``'s gradient writes: r_z,
# v, T and Gamma. Its r_x, r_y and m entries are exactly 0.
LOAD_COLUMNS = np.array([2, 3, 4, 5, 7, 8, 9, 10])


def load_constraint_planner(z, vp: VehicleParams, L_lim: float):
    """Aerodynamic load constraint g_L <= 0 and its gradient over z (..., 11).

    g_L = T.v + Gamma ||v|| cos(min(L_lim/q_bar, pi)), the planner form with
    ||T|| replaced by the relaxed magnitude. Near-zero airspeed keeps the
    bilinear term only, with the direction convention v/||v|| -> 0.
    """
    z = np.asarray(z, float)
    r_z, v, T, Gamma = z[..., 2], z[..., 3:6], z[..., 7:10], z[..., 10]
    nv = _norm(v)
    aero = nv >= V_EPS
    nv = np.where(aero, nv, 1.0)
    h = -r_z
    rho = air_density(h)
    drho_drz = np.where(h > 0.0, rho / H_SCALE, 0.0)
    q_bar = 0.5 * rho * nv * nv
    a, da_dq = _load_angle(q_bar, L_lim)
    c_a = np.where(aero, np.cos(a), 0.0)
    dca_dq = np.where(aero, -np.sin(a) * da_dq, 0.0)

    g = _dot(T, v) + Gamma * nv * c_a
    vhat = v / nv[..., None]
    grad = np.zeros(z.shape)
    grad[..., 2] = Gamma * nv * dca_dq * (0.5 * drho_drz * nv * nv)
    grad[..., 3:6] = T + Gamma[..., None] * (
        c_a[..., None] * vhat + (nv * dca_dq * rho)[..., None] * v)
    grad[..., 7:10] = v
    grad[..., 10] = nv * c_a
    return g, grad
