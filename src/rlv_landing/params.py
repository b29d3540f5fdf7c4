"""Parameter bundles for the vehicle, both optimal control problems, the
guidance executive, the 6-DOF simulator, and the Monte-Carlo campaign.

All quantities are SI unless a field name says otherwise. Parameter sets are
frozen dataclasses so they can be shared freely between threads and worker
processes. Defaults describe a Falcon-9-class first stage booster landing
on a single engine.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np
import yaml

G_REF = 9.80665  # standard gravity [m/s^2]

# Exponential atmosphere: rho = RHO0 * exp(-h / H_SCALE), same scale height
# for ambient pressure.
RHO0 = 1.225          # sea-level density [kg/m^3]
P0 = 101325.0         # sea-level pressure [Pa]
H_SCALE = 8500.0      # scale height [m]


@dataclass(frozen=True)
class VehicleParams:
    """Physical booster model: geometry, propulsion, actuation, aero."""

    l_total: float = 42.6        # vehicle length [m]
    s_ref: float = 10.52         # aerodynamic reference area [m^2]
    A_exit: float = 0.6648       # nozzle exit area [m^2]
    m0: float = 36079.0          # initial (wet) mass [kg]
    Isp: float = 282.0           # specific impulse [s]
    T_max: float = 816e3         # max gross thrust [N]
    T_min: float = 419e3         # min gross thrust [N]
    Tdot_lim: float = 194.7e3    # throttle rate limit [N/s]
    tau_T: float = 0.5           # throttle lag time constant [s]
    tau_theta: float = 1.0       # attitude-loop time constant [s]
    omega_TVC: float = 6.0       # TVC actuator natural frequency [Hz]
    zeta_TVC: float = 0.707      # TVC actuator damping ratio
    l_cp: float = 10.0           # CG-to-center-of-pressure distance [m]
    l_c: float = 15.0            # CG-to-TVC-hinge distance [m]
    g_ref: float = G_REF         # gravitational acceleration [m/s^2]
    C_L_alpha: float = 2.0       # lift slope [1/rad]
    C_D0: float = 0.8            # zero-incidence drag coefficient
    C_D2: float = 2.0            # quadratic drag coefficient [1/rad^2]
    m_dry_floor: float = 24079.0  # m0 - 12000 kg guard for the simulator

    def __post_init__(self):
        if not (0 < self.T_min < self.T_max):
            raise ValueError("thrust bounds must satisfy 0 < T_min < T_max")
        if self.Isp <= 0 or self.s_ref <= 0 or self.m0 <= 0:
            raise ValueError("Isp, s_ref and m0 must be positive")
        if self.l_c <= 0:
            raise ValueError("hinge arm must be positive")
        if self.tau_T <= 0 or self.tau_theta <= 0:
            raise ValueError("lag time constants must be positive")

    @property
    def gravity(self) -> np.ndarray:
        """Gravity vector in NED (down positive)."""
        return np.array([0.0, 0.0, self.g_ref])


@dataclass(frozen=True)
class PlanningConfig:
    """Fuel-optimal planning problem parameters."""

    N: int = 100                     # trajectory intervals
    mu_T: float = 0.05               # thrust margin (fraction)
    L_lim: float = 3.0e3             # aerodynamic load bound [Pa*rad]
    theta_lim_max: float = math.radians(15.0)  # max tilt angle bound [rad]
    t_theta: float = 5.0             # terminal tilt shaping duration [s]
    W_tr: float = 1.4e-3             # soft trust-region weight (scaled vars)
    eps_scp: float = 1.0e-5          # SCP step test on J_tr; convergence also
    #                                  needs a fixed point (scp.EPS_FEASIBLE)
    max_scp_iter: int = 25
    tc_window: tuple[float, float] = (0.0, 15.0)  # ignition-time fit window [s]
    coast_step: float = 0.25         # coast sampling step for the fit [s]
    eta_bounds: tuple[float, float] = (1.0, 120.0)  # hard burn-duration bounds [s]
    lift_compensation: bool = True
    drag_only: bool = False          # drop lift entirely (ablation case)

    def __post_init__(self):
        if not (0 <= self.mu_T < 0.5):
            raise ValueError("mu_T must lie in [0, 0.5)")
        if self.L_lim <= 0:
            raise ValueError("L_lim must be positive")
        if self.t_theta < 0:
            raise ValueError("t_theta must be nonnegative")
        if self.N < 2:
            raise ValueError("need at least 2 intervals")


def _default_W_Q() -> np.ndarray:
    # diag weights on scaled state error (r, v, m, theta, psi, Gamma)
    return 20.0 * np.diag([1, 1, 3, 0, 0, 0, 0, 0.01, 0.01, 0]).astype(float)


def _default_W_R() -> np.ndarray:
    return np.diag([1.0, 1.0, 0.1])


def _default_W_F_pre() -> np.ndarray:
    return 40.0 * np.diag([1, 1, 3, 1, 1, 3, 0, 0.1, 0.1, 0]).astype(float)


def _default_W_F_terminal() -> np.ndarray:
    return 40.0 * np.diag([0, 0, 5, 5, 5, 15, 0, 0.1, 0.1, 0]).astype(float)


@dataclass(frozen=True)
class TrackingConfig:
    """Receding-horizon tracking problem parameters.

    Weight matrices act on scaled (dimensionless) state errors ordered
    (r, v, m, theta, psi, Gamma); W_R acts on the scaled lag-rate triple.
    """

    N: int = 32                      # horizon intervals
    t_h: float = 8.0                 # prediction horizon [s]
    L_lim: float = 3.5e3             # aerodynamic load bound [Pa*rad]
    theta_lim: float = math.radians(20.0)  # attitude box half-width [rad]
    W_Q: np.ndarray = field(default_factory=_default_W_Q)
    W_R: np.ndarray = field(default_factory=_default_W_R)
    W_F_pre: np.ndarray = field(default_factory=_default_W_F_pre)
    W_F_terminal: np.ndarray = field(default_factory=_default_W_F_terminal)
    W_tr: float = 2.0e-3             # soft trust-region weight (scaled vars)
    eps_scp: float = 1.0e-7
    max_scp_iter: int = 15
    rate_hz: float = 4.0             # guidance update frequency [Hz]
    lift_compensation: bool = True
    drag_only: bool = False

    def __post_init__(self):
        for name in ("W_Q", "W_R", "W_F_pre", "W_F_terminal"):
            w = getattr(self, name)
            if np.any(np.linalg.eigvalsh(np.asarray(w, float)) < -1e-12):
                raise ValueError(f"{name} must be positive semidefinite")

    def check_against_planning(self, plan_cfg: PlanningConfig) -> None:
        """Tracking feasible sets must strictly contain the planning ones."""
        if not self.theta_lim > plan_cfg.theta_lim_max:
            raise ValueError("tracking tilt bound must exceed the planning bound")
        if not self.L_lim > plan_cfg.L_lim:
            raise ValueError("tracking load bound must exceed the planning bound")


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance executive: re-plan trigger, computation delays, baseline law."""

    r_lim: float = 10.0              # re-plan position error trigger [m]
    track_delay: float = 0.050       # tracking solution latency [s]
    plan_delay: float = 0.500        # planning solution latency [s]
    replan_cooldown: float = 2.0     # min spacing between re-plans [s]
    baseline_h: float = 5.0          # analytic law time-to-go shaping [s]
    baseline_kr: float = 4.836       # analytic law position gain


@dataclass(frozen=True)
class AutopilotGains:
    """Three-loop attitude autopilot (per axis): attitude -> rate -> PI."""

    K_att: float = 1.0               # attitude loop gain [1/s]; tau_theta = 1/K_att
    K_rate: float = 6.0              # rate loop proportional gain [1/s]
    K_int: float = 9.0               # rate loop integral gain [1/s^2]
    delta_max: float = math.radians(8.0)  # TVC deflection clamp [rad]


@dataclass(frozen=True)
class SimConfig:
    """6-DOF simulator settings."""

    dt: float = 0.002               # integration step [s]
    max_time: float = 200.0         # hard stop [s]
    aero_cutoff_alt: float = 1.0    # disable aero below this altitude [m]
    gains: AutopilotGains = field(default_factory=AutopilotGains)
    wind: tuple[float, float] = (0.0, 0.0)   # (speed [m/s], azimuth [rad])
    dCD: float = 0.0                # fractional drag-coefficient dispersion
    dCL: float = 0.0                # fractional lift-coefficient dispersion


@dataclass(frozen=True)
class CampaignConfig:
    """Monte-Carlo dispersion campaign settings."""

    n_samples: int = 100
    seed: int = 0
    sd_r0: float = 100.0            # SD of initial position offset magnitude [m]
    sd_v0: float = 15.0             # SD of initial velocity offset magnitude [m/s]
    dCD_range: tuple[float, float] = (-0.15, 0.15)
    dCL_range: tuple[float, float] = (-0.15, 0.15)
    wind_speed_range: tuple[float, float] = (0.0, 8.0)
    wind_azimuth_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    jobs: int = 0                   # 0 -> use available cores

    def __post_init__(self):
        if self.sd_r0 < 0 or self.sd_v0 < 0:
            raise ValueError("dispersion SDs must be nonnegative")
        for name in ("dCD_range", "dCL_range", "wind_speed_range", "wind_azimuth_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must be ordered")


@dataclass(frozen=True)
class Scenario:
    """A complete run description: initial condition plus all configs."""

    r0: tuple[float, float, float] = (-700.0, -700.0, -6000.0)
    v0: tuple[float, float, float] = (58.8, 58.8, 391.0)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    @property
    def r0_vec(self) -> np.ndarray:
        return np.asarray(self.r0, float)

    @property
    def v0_vec(self) -> np.ndarray:
        return np.asarray(self.v0, float)


_SECTION_TYPES = {
    "vehicle": VehicleParams,
    "planning": PlanningConfig,
    "tracking": TrackingConfig,
    "guidance": GuidanceConfig,
    "sim": SimConfig,
    "campaign": CampaignConfig,
}

_ARRAY_FIELDS = {"W_Q", "W_R", "W_F_pre", "W_F_terminal"}
_TUPLE_FIELDS = {"tc_window", "eta_bounds", "dCD_range", "dCL_range",
                 "wind_speed_range", "wind_azimuth_range", "wind", "r0", "v0"}


def _coerce(cls: type, data: dict[str, Any]) -> Any:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in _ARRAY_FIELDS:
            value = np.asarray(value, float)
            if value.ndim == 1:
                value = np.diag(value)
        elif key in _TUPLE_FIELDS:
            value = tuple(float(v) for v in value)
        elif key == "gains" and isinstance(value, dict):
            value = _coerce(AutopilotGains, value)
        kwargs[key] = value
    return cls(**kwargs)


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Build a Scenario from a plain mapping (e.g. parsed YAML)."""
    kwargs: dict[str, Any] = {}
    for section, cls in _SECTION_TYPES.items():
        if section in data:
            kwargs[section] = _coerce(cls, dict(data[section]))
    for key in ("r0", "v0"):
        if key in data:
            kwargs[key] = tuple(float(v) for v in data[key])
    unknown = set(data) - set(_SECTION_TYPES) - {"r0", "v0"}
    if unknown:
        raise KeyError(f"unknown scenario sections: {sorted(unknown)}")
    return Scenario(**kwargs)


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario from a YAML (or JSON, as a YAML subset) file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping at the top level")
    return scenario_from_dict(data)


def scenario_to_dict(scn: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_dict, with numpy arrays down-converted."""

    def clean(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, tuple):
            return list(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: clean(getattr(obj, f.name)) for f in fields(obj)}
        return obj

    out: dict[str, Any] = {"r0": list(scn.r0), "v0": list(scn.v0)}
    for section in _SECTION_TYPES:
        out[section] = clean(getattr(scn, section))
    return out
