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
from types import SimpleNamespace
from typing import Literal

import numpy as np
import scipy.sparse as sp

from . import env
from .conic import Cones, ConicProgram, VariableScaling, ldl, make_scaling
from .conic.scaling import RowPattern, equilibrate_rows, scale_program
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
    """One constraint block of a build template: its entries, as (rows, cols)
    pieces that broadcast to a common shape each, a value per piece and a
    right-hand side per family. A value is a constant, written once into
    ``vals`` (one per entry) or ``rhs``, or a function of the problem and
    build data, which each build writes. Every entry is stored, zeros
    included, in one ``pattern`` made here: a counting sort
    (``ldl.csc_pattern``), as a ``RowPattern`` over the variables of
    ``half_range``. ``slots`` sends each entry to its stored entry, so a
    build's data is one bincount, which sums a repeated position (none
    repeats more than twice) as ``sp.csr_matrix`` sums a COO list's, to the
    bit but for the sign of a zero."""

    def __init__(self, pieces, rhs, n_rows: int, half_range: np.ndarray):
        index = [np.broadcast_arrays(*(np.asarray(x, np.intc) for x in piece))
                 for piece, _ in pieces]
        rows, cols = (np.concatenate([x.ravel() for x in part])
                      for part in zip(*index))
        # CSR is the CSC of the transpose: its rows as columns.
        indptr, indices, self.slots = ldl.csc_pattern(
            cols, rows, max(n_rows, half_range.size))
        self.pattern = RowPattern(indptr[:n_rows + 1].copy(), indices,
                                  half_range)
        self.vals, self.rhs = np.empty(rows.size), np.zeros(n_rows)
        ends = np.cumsum([part.size for part, _ in index])
        # Each value's place, (array, index, value): a constant is written
        # here, once, and a function by each build (``written``).
        places = [(self.rhs, at, value) for at, value in rhs] + [
            (part.reshape(at.shape), ..., value) for part, (at, _), (_, value)
            in zip(np.split(self.vals, ends[:-1]), index, pieces)]
        self.written = [place for place in places if callable(place[2])]
        for target, at, value in places:
            if not callable(value):
                target[at] = value

    def block(self, problem, data) -> tuple:
        """This build's (pattern, data, rhs): the values written, the data
        in the pattern's stored order and the template's rhs vector."""
        for target, at, value in self.written:
            target[at] = value(problem, data)
        return self.pattern, np.bincount(self.slots, self.vals), self.rhs


# The row families of A and G: (name, where, over, width, pieces, rhs). A
# family has ``width`` rows per member of ``over`` (``_template``'s
# ``sets``, each member's first column): in A ("zero"), or in G in each
# node's run of rows ("node"), after them ("orthant") or in the SOC blocks
# ("soc"), in the table's order. A piece maps the problem, the rows (count,
# width) and the set to the (rows, cols) of entries, or None if the problem
# lacks the column, and gives their value, broadcast; ``rhs``, the rows' b
# or h. A value is a constant or a function of the problem and build data.
# A piece lists the entries its value can make nonzero: of Abar, _J.
_J = env.JACOBIAN_ENTRIES
_FAMILIES = {"A": (
    # Trapezoidal dynamics on interval k: X_{k+1} - X_k - sum_j (Abar_j Z_j +
    # Cbar_j eta) / 2N = sum_j Dbar_j / 2N over its ends j = k, k+1.
    ("dynamics", "zero", "intervals", NX, (
        (lambda p, r, n: (r[:, _J[0]], n + _J[1]),
         lambda p, d: -d.half * d.A[:-1, _J[0], _J[1]]),
        (lambda p, r, n: (r[:, _J[0]], n + NZ + _J[1]),
         lambda p, d: -d.half * d.A[1:, _J[0], _J[1]]),
        (lambda p, r, n: (r, n + range(NX)), -1.0),
        (lambda p, r, n: (r, n + NZ + range(NX)), 1.0),
        (lambda p, r, n: (r, p.idx_eta),
         lambda p, d: -d.half * (d.C[:-1] + d.C[1:]))),
     lambda p, d: d.half * (d.D[:-1] + d.D[1:])),
    # Initial r, v and m: the current state or, in ignition-fit mode, the
    # coast fit linearized about t_c, (r, v) - slope t_c = start.
    ("initial", "zero", "first", NX, (
        (lambda p, r, n: (r, n + range(NX)), 1.0),
        (lambda p, r, n: (r[:, :6], p.idx_tc) if p.with_tc else None,
         lambda p, d: -d.slope)), lambda p, d: d.start),
    # The pad, r = v = 0.
    ("terminal", "zero", "last", 6,
     ((lambda p, r, n: (r, n + range(6)), 1.0),), 0.0),
    # Vertical thrust, T_x = T_y = T_z + Gamma = 0, where the tilt bound is
    # numerically zero (the taper end) and would pin the cone to a ray.
    ("vertical", "zero", "vertical", 3,
     ((lambda p, r, n: (r[:, [0, 1, 2, 2]], n + [7, 8, 9, IDX_GAMMA]), 1.0),),
     0.0)), "G": (
    # Thrust bounds net of the back-pressure loss A_exit P_e(h) at the
    # reference, the lower along the reference thrust direction: -Tbar . T /
    # ||Tbar|| <= loss - T_min (1 + mu_T), Gamma <= T_max (1 - mu_T) - loss.
    ("thrust", "node", "nodes", 2, (
        (lambda p, r, n: (r[:, :1], n + [7, 8, 9]), lambda p, d: -d.direction),
        (lambda p, r, n: (r[:, 1:], n + IDX_GAMMA), 1.0)),
     lambda p, d: np.stack([d.loss - p.vp.T_min * (1.0 + p.cfg.mu_T),
                            p.vp.T_max * (1.0 - p.cfg.mu_T) - d.loss], 1)),
    # Tilt, T_z + cos(theta_lim) Gamma <= 0, where it is not vertical. An
    # eta column for the taper's cos(theta_lim(eta (1 - s_k))) fails the
    # first subproblem: its tangent passes 1 once eta drops by an eighth,
    # and the first step from the initial guess cuts more.
    ("tilt", "node", "tilted", 1, (
        (lambda p, r, n: (r, n + 9), 1.0),
        (lambda p, r, n: (r, n + IDX_GAMMA),
         lambda p, d: np.cos(d.theta_lim[~d.vertical])[:, None])), 0.0),
    # Aerodynamic load linearized, grad . Z <= grad . Zbar - g, at each node
    # but the current state. The cone implies it where q_bar <= L_lim/pi: out
    # of that gate (a value, ``d.load``) the row stays, as 0 . Z <= 1.
    ("load", "node", "loadable", 1,
     ((lambda p, r, n: (r, n + env.LOAD_COLUMNS),
       lambda p, d: np.where(d.load[:, None],
                             d.grad_load[p.loadable, env.LOAD_COLUMNS], 0.0)),),
     lambda p, d: np.where(d.load, (np.einsum("ki,ki->k", d.grad_load, d.Z)
                                    - d.g_load)[p.loadable], 1.0)[:, None]),
    # Thrust-magnitude rate, |Gamma_{k+1} - Gamma_k| <= Tdot_lim eta / N at
    # the reference eta. An eta column here and an r_z column for the thrust
    # bounds' loss raised the N=100 KKT fill 0.19M -> 0.27M and by 1/6 under
    # SuperLU's column ordering; under the IPM's stage ordering they add no
    # and 202 entries to the 30,471 of the first N=100 KKT matrix's L.
    ("rate", "orthant", "intervals", 2, (
        (lambda p, r, n: (r, n + NZ + IDX_GAMMA), [1.0, -1.0]),
        (lambda p, r, n: (r, n + IDX_GAMMA), [-1.0, 1.0])),
     lambda p, d: p.vp.Tdot_lim / p.N * d.eta),
    # The box lo <= x <= hi of eta (and t_c), as -x <= -lo and x <= hi.
    ("box", "orthant", "boxed", 2, ((lambda p, r, n: (r, n), [-1.0, 1.0]),),
     lambda p, d: [(-lo, hi) for lo, hi in p.box]),
    # The thrust cone ||T_k|| <= Gamma_k, an SOC block per tilted node.
    ("cone", "soc", "tilted", 4,
     ((lambda p, r, n: (r, n + [IDX_GAMMA, 7, 8, 9]), -1.0),), 0.0))}


@dataclass(frozen=True, eq=False)
class _BuildTemplate:
    """The index work of ``PlanningProblem.build`` for its vertical nodes:
    each family's rows, the blocks of A and G, one pattern each, the cones."""

    vertical: np.ndarray
    rows: dict
    A: _Entries
    G: _Entries
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
        self.loadable = slice(1 - self.with_tc, None)   # nodes with a load row
        self.box = [cfg.eta_bounds] + (     # [lo, hi] of eta and t_c
            [boundary.coast_fit.window] if self.with_tc else [])
        self._scaling_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._scaling: VariableScaling | None = None
        self._last_template: _BuildTemplate | None = None
        # The subproblems' P, none: every build's program holds this one,
        # and ``run_scp``'s trust region replaces it with a new matrix.
        self._no_cost = sp.csr_matrix((self.n_vars, self.n_vars))

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
        cost -m_N only: ``run_scp`` adds the trust region. It calls
        ``linearize_planning``, writes the values of ``_FAMILIES`` that are
        functions into the last template (``_template``), kept with its
        patterns while the vertical nodes stay (the load gate is a value),
        and passes once over the values: ``scale_program`` and
        ``equilibrate_rows``, each once and looked up in this module so that
        a wrapper sees every call, and one matrix each of A and G. It
        rejects a Z not (N+1, 11), and an eta (or in ignition-fit mode t_c)
        not finite, or eta not positive."""
        N, vp, cfg, eta_ref, Z = self.N, self.vp, self.cfg, ref.eta, ref.Z
        if np.shape(Z) != (N + 1, NZ):
            raise ValueError(f"reference Z has shape {np.shape(Z)}")
        if not 0.0 < eta_ref < math.inf:
            raise DegenerateStateError(f"reference eta = {eta_ref!r}")
        if self.with_tc and (ref.t_c is None or not math.isfinite(ref.t_c)):
            raise DegenerateStateError(f"reference t_c = {ref.t_c!r}")
        lin = linearize_planning(Z, eta_ref, vp, cfg, self.opts)
        T_norm = np.linalg.norm(Z[:, 7:10], axis=1)
        if not np.all(T_norm > 0.0):
            raise DegenerateStateError(
                "zero reference thrust at node "
                f"{int(np.flatnonzero(~(T_norm > 0.0))[0])}")

        theta_lim = tilt_limit_profile(eta_ref * np.arange(N + 1) / N, eta_ref,
                                       cfg.t_theta, cfg.theta_lim_max)
        vertical = theta_lim < 1e-5
        speed = np.linalg.norm(Z[:, 3:6], axis=1)
        q_bar = 0.5 * env.air_density(-Z[:, 2]) * speed * speed
        load = ((q_bar > cfg.L_lim / math.pi)
                & (speed >= env.V_EPS))[self.loadable]
        record = self.scaling(ref)
        t = self._template(vertical, record.half_range)
        data = SimpleNamespace(
            **vars(lin), Z=Z, eta=eta_ref, half=1.0 / (2.0 * N), load=load,
            vertical=vertical, theta_lim=theta_lim,
            direction=Z[:, 7:10] / T_norm[:, None],
            loss=vp.A_exit * env.ambient_pressure(-Z[:, 2]))
        start = (self.boundary.r_now, self.boundary.v_now)
        if self.with_tc:
            fit, tc_ref = self.boundary.coast_fit, ref.t_c
            lin_vec = np.array([2.0 * tc_ref, 1.0, 0.0])
            const_vec = np.array([-tc_ref * tc_ref, 0.0, 1.0])
            data.slope = np.concatenate([fit.K_r @ lin_vec, fit.K_v @ lin_vec])
            start = (fit.K_r @ const_vec, fit.K_v @ const_vec)
        data.start = np.concatenate([*start, [self.boundary.m0]])
        (A, a, b), (G, g, h) = equilibrate_rows(*scale_program(
            t.A.block(self, data), t.G.block(self, data), record.offset),
            t.cones)
        # Objective: -m_N in scaled units.
        c = np.zeros(self.n_vars)
        c[NZ * self.N + 6] = -1.0
        return ConicProgram(c=c, A=A.matrix(a), b=b, G=G.matrix(g), h=h,
                            cones=t.cones, P=self._no_cost, stage=self.stage)

    def _template(self, vertical: np.ndarray,
                  half_range: np.ndarray) -> _BuildTemplate:
        """The last build's template if it has these vertical nodes, else a
        new one over the variables of ``half_range``, which replaces it."""
        t = self._last_template
        nodes = np.flatnonzero(vertical).astype(np.intc)
        if t is not None and np.array_equal(t.vertical, nodes):
            return t
        node = NZ * np.arange(self.N + 1)[:, None]     # first columns
        sets = dict(nodes=node, intervals=node[:-1], first=node[:1],
                    last=node[-1:], vertical=node[vertical],
                    tilted=node[~vertical], loadable=node[self.loadable],
                    boxed=self.idx_eta + np.arange(len(self.box))[:, None])
        rows, entries = {}, []
        for families in _FAMILIES.values():
            # Each node's run of rows, then the rest, by the table's order.
            rank = np.argsort(np.argsort(np.concatenate([
                np.repeat(np.where(where == "node", sets[over], self.n_vars),
                          width) for _, where, over, width, _, _ in families]),
                kind="stable")).astype(np.intc)
            pieces, rhs, n_rows = [], [], rank.size
            for name, _, over, width, family, side in families:
                size = sets[over].size * width
                rows[name], rank = rank[:size].reshape(-1, width), rank[size:]
                rhs.append((rows[name], side))
                for index, value in family:
                    piece = index(self, rows[name], sets[over])
                    if piece is not None:
                        pieces.append((piece, value))
            entries.append(_Entries(pieces, rhs, n_rows, half_range))
        soc = rows["cone"]
        self._last_template = _BuildTemplate(nodes, rows, *entries, Cones(
            entries[1].rhs.size - soc.size, *soc.shape))
        return self._last_template

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
