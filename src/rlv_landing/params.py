"""Parameter bundles for the vehicle, the planning optimal control problem,
the guidance executive and the Monte-Carlo campaign.

The planner reads only the vehicle and planning sets. ``GuidanceConfig``
holds ``plan_delay``, the planning latency budget that plan timings are
judged against. ``CampaignConfig`` holds the dispersion SDs that the
benchmark's dispersed initial states are drawn with.

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


def _require_finite(params: Any, keys: tuple[str, ...] | None = None) -> None:
    """Raise, naming the key, if a number of ``params`` (every field, or
    the ``keys`` given) is NaN or infinite, or any bound of a tuple is."""
    for key in keys or [f.name for f in fields(params)]:
        if not np.isfinite(getattr(params, key)).all():
            raise ValueError(f"{key} must be finite")


@dataclass(frozen=True)
class VehicleParams:
    """Physical booster model: geometry, propulsion, actuation, aero."""

    s_ref: float = 10.52         # aerodynamic reference area [m^2]
    A_exit: float = 0.6648       # nozzle exit area [m^2]
    m0: float = 36079.0          # initial (wet) mass [kg]
    Isp: float = 282.0           # specific impulse [s]
    T_max: float = 816e3         # max gross thrust [N]
    T_min: float = 419e3         # min gross thrust [N]
    Tdot_lim: float = 194.7e3    # throttle rate limit [N/s]
    l_cp: float = 10.0           # CG-to-center-of-pressure distance [m]
    l_c: float = 15.0            # CG-to-TVC-hinge distance [m]
    g_ref: float = G_REF         # gravitational acceleration [m/s^2]
    C_L_alpha: float = 2.0       # lift slope [1/rad]
    C_D0: float = 0.8            # zero-incidence drag coefficient
    C_D2: float = 2.0            # quadratic drag coefficient [1/rad^2]
    m_dry_floor: float = 24079.0  # m0 - 12000 kg, lower mass scaling bound

    def __post_init__(self):
        _require_finite(self)
        if not (0 < self.T_min < self.T_max):
            raise ValueError("thrust bounds must satisfy 0 < T_min < T_max")
        for key in ("Isp", "s_ref", "m0", "Tdot_lim", "g_ref"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        if not self.l_c > 0:
            raise ValueError("l_c (hinge arm) must be positive")
        if not self.C_D0 >= 0:
            raise ValueError("C_D0 must be nonnegative")
        if not self.m_dry_floor < self.m0:
            raise ValueError("m_dry_floor must lie below m0")

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
        _require_finite(self)
        if not (0 <= self.mu_T < 0.5):
            raise ValueError("mu_T must lie in [0, 0.5)")
        for key in ("L_lim", "W_tr", "eps_scp", "coast_step"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        if not 0 < self.theta_lim_max < math.pi / 2:
            raise ValueError("theta_lim_max must lie in (0, pi/2)")
        if not self.t_theta >= 0:
            raise ValueError("t_theta must be nonnegative")
        if not self.N >= 2:
            raise ValueError("N must be at least 2 intervals")
        if not 0 < self.eta_bounds[0] < self.eta_bounds[1]:
            raise ValueError("eta_bounds must satisfy 0 < lower < upper")
        if not self.tc_window[0] <= self.tc_window[1]:
            raise ValueError("tc_window must satisfy lower <= upper")
        if not self.max_scp_iter >= 1:
            raise ValueError("max_scp_iter must be at least 1")


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance executive: the latency budget plan timings are judged
    against."""

    plan_delay: float = 0.500        # planning solution latency [s]

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class CampaignConfig:
    """Monte-Carlo dispersion campaign: the SDs the benchmark's dispersed
    initial states are drawn with."""

    sd_r0: float = 100.0            # SD of initial position offset magnitude [m]
    sd_v0: float = 15.0             # SD of initial velocity offset magnitude [m/s]

    def __post_init__(self):
        _require_finite(self)
        if not (self.sd_r0 >= 0 and self.sd_v0 >= 0):
            raise ValueError("sd_r0 and sd_v0 must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """A complete run description: initial condition plus all configs."""

    r0: tuple[float, float, float] = (-700.0, -700.0, -6000.0)
    v0: tuple[float, float, float] = (58.8, 58.8, 391.0)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    def __post_init__(self):
        _require_finite(self, ("r0", "v0"))


_SECTION_TYPES = {
    "vehicle": VehicleParams,
    "planning": PlanningConfig,
    "guidance": GuidanceConfig,
    "campaign": CampaignConfig,
}

_TUPLE_FIELDS = {"tc_window", "eta_bounds"}


def _coerce(cls: type, data: dict[str, Any]) -> Any:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in _TUPLE_FIELDS:
            value = tuple(float(v) for v in value)
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
    """Inverse of scenario_from_dict, with tuples as lists."""

    def clean(obj: Any) -> Any:
        if isinstance(obj, tuple):
            return list(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: clean(getattr(obj, f.name)) for f in fields(obj)}
        return obj

    out: dict[str, Any] = {"r0": list(scn.r0), "v0": list(scn.v0)}
    for section in _SECTION_TYPES:
        out[section] = clean(getattr(scn, section))
    return out
