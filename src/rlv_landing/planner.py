"""Fuel-optimal planning subproblem: coast-phase embedding, time dilation,
linearization, and assembly of the convex (SOCP) subproblem.

The free-final-time problem is transcribed on the unit grid s_k = k/N with
physical time t = eta * s, so the burn duration eta is a decision variable.
Dynamics are linearized about a reference as

    X' ~= Abar Z + Cbar eta + Dbar,
    Abar = eta_ref * df/dZ,  Cbar = f(Z_ref),  Dbar = -eta_ref * (df/dZ) Z_ref

and discretized with the trapezoidal rule. The thrust magnitude is the
variable Gamma with the cone ||T_k|| <= Gamma_k, tight at a converged plan
(``relaxation_gap``); the upper thrust bound acts on Gamma. The non-convex
lower bound ||T_k|| >= Gamma_min,k is linearized about the reference thrust
direction as (Tbar_k / ||Tbar_k||) . T_k >= Gamma_min,k, which implies
Gamma_k >= Gamma_min,k through the cone and, at minimum throttle, ties the
thrust to its reference direction: a bound on Gamma alone leaves the thrust
azimuth there free to swing from one subproblem to the next. Both bounds
are net of the back-pressure loss A_exit P_e(h). In
ignition-fit mode the initial condition couples to the ignition time t_c
through a quadratic least-squares fit of the coast trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from . import env
from .conic import (
    Cones,
    ConicProgram,
    VariableScaling,
    make_scaling,
    scale_program,
)
from .conic import ldl
from .conic.scaling import equilibrate_rows
from .env import AeroOptions, DegenerateStateError
from .params import PlanningConfig, VehicleParams

NZ = 11          # per-node variables (r, v, m, T, Gamma)
NX = 7           # state dimension
IDX_GAMMA = 10   # Gamma offset inside a node block


@dataclass(frozen=True)
class CoastTrajectory:
    """Time-stamped ballistic samples from the current state."""

    times: np.ndarray      # (n,)
    r: np.ndarray          # (n, 3)
    v: np.ndarray          # (n, 3)
    truncated: bool        # reached the ground before the horizon


@dataclass(frozen=True)
class CoastFit:
    """Quadratic polynomial fit of the coast trajectory vs ignition time."""

    K_r: np.ndarray        # (3, 3): r(t_c) = K_r @ [t_c^2, t_c, 1]
    K_v: np.ndarray        # (3, 3)
    window: tuple[float, float]
    max_residual_r: float
    max_residual_v: float

    def position(self, t_c: float) -> np.ndarray:
        return self.K_r @ np.array([t_c * t_c, t_c, 1.0])

    def velocity(self, t_c: float) -> np.ndarray:
        return self.K_v @ np.array([t_c * t_c, t_c, 1.0])


@dataclass(frozen=True)
class PlanningBoundary:
    """Initial-condition mode of the planning problem."""

    mode: Literal["ignition-fit", "current-state"]
    m0: float
    coast_fit: CoastFit | None = None       # ignition-fit mode
    r_now: np.ndarray | None = None         # current-state mode
    v_now: np.ndarray | None = None


@dataclass(frozen=True)
class PlanningReference:
    """SCP reference point: node variables plus dilation and ignition time."""

    N: int
    eta: float
    t_c: float | None
    Z: np.ndarray          # (N+1, NZ)

    @property
    def r(self) -> np.ndarray:
        return self.Z[:, 0:3]

    @property
    def v(self) -> np.ndarray:
        return self.Z[:, 3:6]

    @property
    def m(self) -> np.ndarray:
        return self.Z[:, 6]

    @property
    def T(self) -> np.ndarray:
        return self.Z[:, 7:10]

    @property
    def Gamma(self) -> np.ndarray:
        return self.Z[:, 10]


def propagate_coast(r0: np.ndarray, v0: np.ndarray, m0: float,
                    vp: VehicleParams, horizon: float,
                    step: float = 0.25) -> CoastTrajectory:
    """RK4 ballistic propagation with zero thrust and zero angle of attack.

    Samples every ``step`` seconds up to ``horizon`` and stops at the first
    sample on or below the ground (``truncated``). The stages evaluate
    ``env.coast_dynamics`` on floats in the array form's order of
    operations, so the samples equal RK4 over the kernel,
    ``env.translational_dynamics`` at T = 0 and Gamma = 0, bit for bit. A
    stage with m <= 0 or a non-finite state raises ``DegenerateStateError``,
    and a horizon or step that is not finite, or out of range, a
    ``ValueError`` naming it.
    """
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, not "
                         f"{horizon!r}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, not {step!r}")
    f = env.coast_dynamics
    x = [*map(float, r0), *map(float, v0), float(m0)]
    half, sixth = 0.5 * step, step / 6.0
    n_steps = int(round(horizon / step))
    times = [0.0]
    states = [x]
    truncated = False
    for i in range(n_steps):
        k1 = f(x, vp)
        k2 = f([a + half * k for a, k in zip(x, k1)], vp)
        k3 = f([a + half * k for a, k in zip(x, k2)], vp)
        k4 = f([a + step * k for a, k in zip(x, k3)], vp)
        x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        times.append((i + 1) * step)
        states.append(x)
        if x[2] >= 0.0:
            truncated = True
            break
    arr = np.array(states)
    return CoastTrajectory(times=np.array(times), r=arr[:, 0:3], v=arr[:, 3:6],
                           truncated=truncated)


def fit_coast_polynomial(coast: CoastTrajectory,
                         window: tuple[float, float]) -> CoastFit:
    """Row-wise least squares of r(t), v(t) against the basis [t^2, t, 1]."""
    lo, hi = window
    mask = (coast.times >= lo - 1e-9) & (coast.times <= hi + 1e-9)
    t = coast.times[mask]
    if t.size < 3:
        raise ValueError("need at least 3 coast samples inside the fit window")
    basis = np.column_stack([t * t, t, np.ones_like(t)])
    if np.linalg.matrix_rank(basis) < 3:
        raise ValueError("coast fit window too narrow: rank-deficient basis")
    K_r, _, _, _ = np.linalg.lstsq(basis, coast.r[mask], rcond=None)
    K_v, _, _, _ = np.linalg.lstsq(basis, coast.v[mask], rcond=None)
    res_r = np.abs(basis @ K_r - coast.r[mask]).max()
    res_v = np.abs(basis @ K_v - coast.v[mask]).max()
    return CoastFit(K_r=K_r.T, K_v=K_v.T, window=(float(t[0]), float(t[-1])),
                    max_residual_r=float(res_r), max_residual_v=float(res_v))


def tilt_limit_profile(t, t_f: float, t_theta: float, theta_lim_max: float):
    """Time-varying tilt bound, elementwise in t: constant, then a parabolic
    taper to vertical."""
    if t_theta <= 0.0:
        return np.full(np.shape(t), theta_lim_max)
    K_theta = 2.0 * theta_lim_max / (t_theta * t_theta)
    dt = np.maximum(t_f - t, 0.0)
    return np.where(t <= t_f - t_theta, theta_lim_max, 0.5 * K_theta * dt * dt)


def initial_guess_planning(boundary: PlanningBoundary, cfg: PlanningConfig,
                           vp: VehicleParams) -> PlanningReference:
    """Straight-line reference with vertical mid-throttle thrust."""
    if boundary.mode == "ignition-fit":
        t_c = 0.5 * sum(boundary.coast_fit.window)
        r0 = boundary.coast_fit.position(t_c)
        v0 = boundary.coast_fit.velocity(t_c)
    else:
        t_c = None
        r0 = np.asarray(boundary.r_now, float)
        v0 = np.asarray(boundary.v_now, float)
    m0 = boundary.m0

    accel = 0.5 * (vp.T_min + vp.T_max) / m0 - vp.g_ref
    eta = float(np.clip(np.linalg.norm(v0) / accel, 5.0, 60.0))

    N = cfg.N
    tau = np.arange(N + 1) / N
    Z = np.zeros((N + 1, NZ))
    Z[:, 0:3] = r0 * (1.0 - tau)[:, None]
    Z[:, 3:6] = v0 * (1.0 - tau)[:, None]
    mid = 0.5 * (vp.T_min + vp.T_max)
    P_e = env.ambient_pressure(-Z[:, 2])
    Z[:, 9] = -(mid - vp.A_exit * P_e)     # T_z straight up
    Z[:, 10] = -Z[:, 9]
    # Mass from integrating the Gamma profile (gross flow = Gamma + Pe*Ae).
    flow = Z[:, 10] + P_e * vp.A_exit
    dm = 0.5 * (eta / N) * (flow[:-1] + flow[1:]) / (vp.g_ref * vp.Isp)
    Z[:, 6] = np.subtract.accumulate(np.concatenate([[m0], dm]))
    return PlanningReference(N=N, eta=eta, t_c=t_c, Z=Z)


@dataclass(frozen=True)
class LinearizedNode:
    """Trapezoidal-row ingredients at a stack of n reference nodes, one per
    row."""

    A: np.ndarray      # eta_ref * df/dZ  (n, 7, 11)
    C: np.ndarray      # f(Z_ref)         (n, 7)
    D: np.ndarray      # -eta_ref * (df/dZ) Z_ref (n, 7)
    g_load: np.ndarray      # load constraint values at the reference (n,)
    grad_load: np.ndarray   # (n, 11)


def linearize_planning(Z: np.ndarray, eta_ref: float,
                       vp: VehicleParams, cfg: PlanningConfig,
                       opts: AeroOptions) -> LinearizedNode:
    """Linearize dynamics and load constraint at every node of an (n, 11)
    stack in one kernel call; a degenerate node raises, naming its row."""
    z = np.asarray(Z, float)
    bad = (~np.all(np.isfinite(z), axis=-1) | (z[..., 6] <= 0.0)
           | (z[..., IDX_GAMMA] <= 0.0))
    if np.any(bad):
        raise DegenerateStateError("degenerate planning reference at node "
                                   f"{int(np.flatnonzero(bad)[0])}")
    f, J = env.planner_jacobian(z, vp, opts)
    A = eta_ref * J
    D = -(A @ z[..., None])[..., 0]
    g, grad = env.load_constraint_planner(z, vp, cfg.L_lim)
    return LinearizedNode(A=A, C=f, D=D, g_load=g, grad_load=grad)


class _Entries:
    """The candidate entries of one constraint matrix for a gate set, given
    as (rows, cols) pieces that broadcast to a common shape each, and the
    CSR pattern of the last call's zero values. ``csr`` stores the entries
    whose values are nonzero, in a pattern from the kernel's counting sort
    (``ldl.csc_pattern``), repeated positions summed, as ``sp.csr_matrix``
    stores such a COO list, to the bit: no position
    repeats more than twice, and a sum of two is the same in either order.
    A call whose values are zero where the last call's were writes only
    values, by one bincount: ``slots`` sends each entry to its stored
    entry, and a zero one to a spare slot past them."""

    def __init__(self, pieces, shape: tuple[int, int]):
        self.pieces = [tuple(np.asarray(x, np.intc) for x in piece)
                       for piece in pieces]
        self.sizes = [np.broadcast(*piece).size for piece in self.pieces]
        self.shape = shape
        self.zeros = None           # no call yet

    def csr(self, values) -> sp.csr_matrix:
        """The matrix with one value, or a scalar, per piece."""
        vals = np.concatenate([np.full(size, v) if np.ndim(v) == 0
                               else v.ravel()
                               for v, size in zip(values, self.sizes)])
        zeros = np.flatnonzero(vals == 0.0)
        if not np.array_equal(zeros, self.zeros):
            n_rows, n_cols = self.shape
            rows, cols = (np.concatenate(part) for part in zip(*(
                [x.ravel() for x in np.broadcast_arrays(*piece)]
                for piece in self.pieces)))
            kept = np.ones(vals.size, bool)
            kept[zeros] = False
            # CSR is the CSC of the transpose: its rows as columns.
            indptr, self.indices, slots = ldl.csc_pattern(
                cols[kept], rows[kept], max(n_rows, n_cols))
            self.indptr = indptr[:n_rows + 1].copy()
            self.slots = np.full(vals.size, self.indices.size, np.intc)
            self.slots[kept] = slots
            self.zeros = zeros.astype(np.intc)
        data = np.bincount(self.slots, vals, self.indices.size + 1)[:-1]
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)


@dataclass(frozen=True, eq=False)
class _BuildTemplate:
    """The index work of ``PlanningProblem.build`` for one gate set: the
    nodes whose thrust is vertical and those with a load row, the
    candidate entries of A and G, the rows of h a build writes, and the
    cone layout: the orthant rows, then a 4-dimensional SOC block
    ||T_k|| <= Gamma_k per tilted node. Its arrays are all int32."""

    vertical: np.ndarray     # nodes whose tilt bound is numerically zero
    load: np.ndarray         # nodes with a load row
    A: _Entries
    G: _Entries
    first: np.ndarray        # each node's lower thrust bound row
    load_rows: np.ndarray
    rate: np.ndarray         # the first of each pair of rate rows
    box: np.ndarray
    cones: Cones


class PlanningProblem:
    """Subproblem factory for one SCP run of the planning OCP.

    The variable scaling is made once, from the bounds about the first
    reference, and used for every iteration, so that trust-region costs and
    convergence thresholds stay comparable across iterations.
    """

    def __init__(self, boundary: PlanningBoundary, vp: VehicleParams,
                 cfg: PlanningConfig):
        self.boundary = boundary
        self.vp = vp
        self.cfg = cfg
        self.opts = AeroOptions(lift_compensation=cfg.lift_compensation,
                                drag_only=cfg.drag_only)
        self.N = cfg.N
        self.with_tc = boundary.mode == "ignition-fit"
        self.n_vars = NZ * (self.N + 1) + 1 + (1 if self.with_tc else 0)
        self.idx_eta = NZ * (self.N + 1)
        self.idx_tc = self.idx_eta + 1 if self.with_tc else None
        # The IPM's KKT ordering: node k's columns in stage k, eta and t_c
        # in stage N + 1.
        self.stage = np.repeat(np.arange(self.N + 2), NZ)[:self.n_vars]
        self._scaling_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._scaling: VariableScaling | None = None
        self._last_template: _BuildTemplate | None = None

    # -- variable layout helpers -------------------------------------------------

    def stack(self, ref: PlanningReference) -> np.ndarray:
        x = np.zeros(self.n_vars)
        x[:NZ * (self.N + 1)] = ref.Z.reshape(-1)
        x[self.idx_eta] = ref.eta
        if self.with_tc:
            x[self.idx_tc] = ref.t_c
        return x

    def unstack(self, x: np.ndarray) -> PlanningReference:
        Z = x[:NZ * (self.N + 1)].reshape(self.N + 1, NZ).copy()
        eta = float(x[self.idx_eta])
        t_c = float(x[self.idx_tc]) if self.with_tc else None
        return PlanningReference(N=self.N, eta=eta, t_c=t_c, Z=Z)

    # -- scaling -------------------------------------------------------------------

    def scaling_bounds(self, ref: PlanningReference):
        if self._scaling_bounds is not None:
            return self._scaling_bounds
        vp = self.vp
        r, v = ref.r, ref.v
        pad_r = 0.5 * np.maximum(r.max(0) - r.min(0), 1.0) + 200.0
        pad_v = 0.5 * np.maximum(v.max(0) - v.min(0), 1.0) + 30.0
        T_max = np.full(3, vp.T_max)
        node_lo = np.concatenate([r.min(0) - pad_r, v.min(0) - pad_v,
                                  [vp.m_dry_floor], -T_max, [0.0]])
        node_hi = np.concatenate([r.max(0) + pad_r, v.max(0) + pad_v,
                                  [vp.m0 * 1.001], T_max, [vp.T_max]])
        lo = [np.tile(node_lo, self.N + 1), [0.5 * ref.eta]]
        hi = [np.tile(node_hi, self.N + 1), [2.0 * ref.eta]]
        if self.with_tc:
            lo_tc, hi_tc = self.cfg.tc_window
            if hi_tc - lo_tc < 1e-9:
                lo_tc, hi_tc = lo_tc - 0.5, hi_tc + 0.5
            lo.append([lo_tc])
            hi.append([hi_tc])
        self._scaling_bounds = (np.concatenate(lo), np.concatenate(hi))
        return self._scaling_bounds

    def scaling(self, ref: PlanningReference) -> VariableScaling:
        """The plan's one scaling record, made from ``scaling_bounds``."""
        if self._scaling is None:
            self._scaling = make_scaling(*self.scaling_bounds(ref))
        return self._scaling

    # -- SCP adapter interface ------------------------------------------------------

    def build(self, ref: PlanningReference) -> ConicProgram:
        """The scaled SOCP subproblem linearized about ``ref``, with the
        cost -m_N only: ``run_scp`` adds the trust region.

        The index work depends only on the gates, the vertical nodes and
        the load rows: a build makes it once per gate set (``_template``),
        and keeps the last one's, with the CSR pattern of A's and G's last
        nonzero mask (``_Entries``). A build whose gates and masks match
        the last build's writes only values. Either way, it calls
        ``linearize_planning``, ``scale_program`` and ``equilibrate_rows``
        once each.

        Three row families depend on reference values they carry no column
        for. An r_z column in the thrust bounds' back-pressure loss
        A_exit P_e(h) and an eta column in the rate bound Tdot_lim eta / N
        raised the N=100 KKT fill by 1/6 and 0.19M -> 0.27M under SuperLU's
        column ordering; under the IPM's stage ordering they add 202 and no
        entries to the 30,179 of the first N=100 KKT matrix's L. An eta
        column in the taper tilt bound cos(theta_lim(eta (1 - s_k))) fails
        the first subproblem: its tangent passes 1 once eta drops by an
        eighth, and the first step from the initial guess cuts more.
        """
        N, vp, cfg = self.N, self.vp, self.cfg
        eta_ref, Z = ref.eta, ref.Z
        lin = linearize_planning(Z, eta_ref, vp, cfg, self.opts)
        T_norm = np.linalg.norm(Z[:, 7:10], axis=1)
        if not np.all(T_norm > 0.0):
            raise DegenerateStateError(
                "zero reference thrust at node "
                f"{int(np.flatnonzero(~(T_norm > 0.0))[0])}")

        # The gates. Nodes whose tilt bound is numerically zero (the taper
        # end) would pin their SOC cone to a boundary ray; their thrust is
        # vertical, by equalities, and their cone dropped. In the clamped
        # regime (q_bar <= L_lim/pi) the true load constraint
        # T.v <= Gamma ||v|| is already implied by the cone, so the load
        # row is dropped there, as it is at the current state.
        theta_lim = tilt_limit_profile(eta_ref * np.arange(N + 1) / N, eta_ref,
                                       cfg.t_theta, cfg.theta_lim_max)
        vertical = theta_lim < 1e-5
        speed = np.linalg.norm(Z[:, 3:6], axis=1)
        q_bar = 0.5 * env.air_density(-Z[:, 2]) * speed * speed
        load = (q_bar > cfg.L_lim / math.pi) & (speed >= env.V_EPS)
        if self.boundary.mode == "current-state":
            load[0] = False
        t = self._template(vertical, load)

        # Equality rows, in _template's order: the trapezoidal dynamics
        # X_{k+1} - X_k - (1/2N)(...) = rhs, the boundary rows (initial
        # position, velocity and mass, then the terminal pad condition
        # r = v = 0) and the vertical thrust.
        half = 1.0 / (2.0 * N)
        n_dyn = NX * N
        M = -half * lin.A
        eq = [M[:-1], M[1:], -1.0, 1.0, -half * (lin.C[:-1] + lin.C[1:]),
              1.0]
        if self.with_tc:
            fit = self.boundary.coast_fit
            tc_ref = ref.t_c
            lin_vec = np.array([2.0 * tc_ref, 1.0, 0.0])
            const_vec = np.array([-tc_ref * tc_ref, 0.0, 1.0])
            slope = np.concatenate([fit.K_r @ lin_vec, fit.K_v @ lin_vec])
            eq.append(-slope)
            start = np.concatenate([fit.K_r @ const_vec, fit.K_v @ const_vec])
        else:
            start = np.concatenate([self.boundary.r_now, self.boundary.v_now])
        A_mat = t.A.csr(eq + [1.0, 1.0, 1.0])
        b_vec = np.zeros(A_mat.shape[0])
        b_vec[:n_dyn] = (half * (lin.D[:-1] + lin.D[1:])).ravel()
        b_vec[n_dyn:n_dyn + NX] = np.append(start, self.boundary.m0)

        # Inequality rows, in _template's order: the Gamma bounds, the tilt
        # rows T_z + cos(theta_lim) Gamma <= 0, the linearized aerodynamic
        # load rows, the lower thrust bound on the thrust along its
        # reference direction, the thrust-magnitude rate rows, the box
        # bounds and the SOC blocks ||T_k|| <= Gamma_k. The thrust bounds
        # are net of the back-pressure loss at the reference altitude.
        tilt = ~vertical
        direction = Z[:, 7:10] / T_norm[:, None]
        G_mat = t.G.csr([1.0, 1.0, np.cos(theta_lim[tilt]),
                         lin.grad_load[t.load], -direction,
                         1.0, -1.0, 1.0, -1.0,
                         np.tile([-1.0, 1.0], t.box.size // 2), -1.0])

        loss = vp.A_exit * env.ambient_pressure(-Z[:, 2])
        h_vec = np.zeros(G_mat.shape[0])
        h_vec[t.first] = loss - vp.T_min * (1.0 + cfg.mu_T)
        h_vec[t.first + 1] = vp.T_max * (1.0 - cfg.mu_T) - loss
        h_vec[t.rate] = h_vec[t.rate + 1] = vp.Tdot_lim / N * eta_ref
        h_vec[t.load_rows] = (np.einsum("ki,ki->k", lin.grad_load[t.load],
                                        Z[t.load]) - lin.g_load[t.load])
        bounds = [-cfg.eta_bounds[0], cfg.eta_bounds[1]]
        if self.with_tc:
            lo_tc, hi_tc = self.boundary.coast_fit.window
            bounds += [-lo_tc, hi_tc]
        h_vec[t.box] = bounds

        program = ConicProgram(c=np.zeros(self.n_vars), A=A_mat, b=b_vec,
                               G=G_mat, h=h_vec, cones=t.cones,
                               stage=self.stage)
        # Looked up in this module at call time, so a wrapper of either sees
        # every call.
        scaled = equilibrate_rows(scale_program(program, self.scaling(ref)))
        # Objective: -m_N in scaled units.
        c = np.zeros(self.n_vars)
        c[NZ * self.N + 6] = -1.0
        scaled.c = scaled.c + c     # scaled cost of the affine program is zero
        return scaled

    def _template(self, vertical: np.ndarray,
                  load: np.ndarray) -> _BuildTemplate:
        """The last build's template if it has these gates, else a new one,
        which replaces it."""
        t = self._last_template
        if t is not None and np.array_equal(t.vertical,
                                            np.flatnonzero(vertical)) \
                and np.array_equal(t.load, np.flatnonzero(load)):
            return t
        N = self.N
        node = NZ * np.arange(N + 1)          # first column of each node
        col_gamma = node + IDX_GAMMA

        n_dyn = NX * N
        dyn = np.arange(n_dyn).reshape(N, NX)
        cols_k = node[:-1, None] + np.arange(NZ)
        state_k = node[:-1, None] + np.arange(NX)
        initial = n_dyn + np.arange(NX)
        eq = [(dyn[:, :, None], cols_k[:, None, :]),
              (dyn[:, :, None], cols_k[:, None, :] + NZ),
              (dyn, state_k), (dyn, state_k + NZ), (dyn, self.idx_eta),
              (initial, np.arange(NX))]
        if self.with_tc:
            eq.append((initial[:6], self.idx_tc))
        vert = node[vertical]
        vrows = n_dyn + NX + 6 + np.arange(3 * vert.size).reshape(-1, 3)
        eq += [(n_dyn + NX + np.arange(6), node[-1] + np.arange(6)),
               (vrows, vert[:, None] + np.array([7, 8, 9])),
               (vrows[:, 2], vert + IDX_GAMMA)]
        n_eq = n_dyn + NX + 6 + vrows.size

        # Each node owns a run of orthant rows: its two Gamma bounds, its
        # tilt row unless vertical, and its load row; then the rate rows,
        # the box bounds on eta (and t_c) and, below the orthant rows, the
        # SOC blocks.
        tilt = ~vertical
        count = 2 + tilt + load
        first = np.cumsum(count) - count
        tilt_rows = (first + 2)[tilt]
        load_rows = (first + 2 + tilt)[load]
        rate = count.sum() + 2 * np.arange(N)
        box_cols = [self.idx_eta] + ([self.idx_tc] if self.with_tc else [])
        box = rate[-1] + 2 + np.arange(2 * len(box_cols))
        n_soc = int(tilt.sum())
        soc = box[-1] + 1 + np.arange(4 * n_soc).reshape(-1, 4)
        ineq = [(first + 1, col_gamma),
                (tilt_rows, node[tilt] + 9),
                (tilt_rows, col_gamma[tilt]),
                (load_rows[:, None], node[load, None] + np.arange(NZ)),
                (first[:, None], node[:, None] + np.array([7, 8, 9])),
                (rate, col_gamma[1:]), (rate, col_gamma[:-1]),
                (rate + 1, col_gamma[:-1]), (rate + 1, col_gamma[1:]),
                (box, np.repeat(box_cols, 2)),
                (soc, node[tilt, None] + np.array([IDX_GAMMA, 7, 8, 9]))]
        t = self._last_template = _BuildTemplate(
            *(np.flatnonzero(gate).astype(np.intc) for gate in (vertical, load)),
            _Entries(eq, (n_eq, self.n_vars)),
            _Entries(ineq, (box[-1] + 1 + soc.size, self.n_vars)),
            *(rows.astype(np.intc) for rows in (first, load_rows, rate, box)),
            Cones(box[-1] + 1, n_soc, 4))
        return t

    def reference_vector(self, ref: PlanningReference) -> np.ndarray:
        return self.scaling(ref).scale(self.stack(ref))

    def decode(self, ref: PlanningReference,
               x_scaled: np.ndarray) -> PlanningReference:
        return self.unstack(self.scaling(ref).unscale(x_scaled))

    def relaxation_gap(self, ref: PlanningReference) -> float:
        """How far the thrust cone is from tight:
        max_k | ||T_k|| - Gamma_k | / Gamma_k."""
        T_norm = np.linalg.norm(ref.T, axis=1)
        return float((np.abs(T_norm - ref.Gamma) / ref.Gamma).max())
