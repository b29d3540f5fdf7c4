"""Shared numerical test utilities: finite differences, random states and a
cone layout."""

from __future__ import annotations

import numpy as np

from rlv_landing.conic import NONNEG, SOC, ConeBlock
from rlv_landing.params import VehicleParams

# Orthant rows between SOC blocks of two dimensions, an order the planner
# never emits: rows 0-2 SOC, 3-4 orthant, 5-6 SOC, 7 orthant.
INTERLEAVED_CONES = [ConeBlock(SOC, 3), ConeBlock(NONNEG, 2),
                     ConeBlock(SOC, 2), ConeBlock(NONNEG, 1)]


def central_diff_jacobian(fun, x, eps_scale=1e-6):
    """Central finite-difference Jacobian of fun: R^n -> R^m at x."""
    x = np.asarray(x, float)
    f0 = np.atleast_1d(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        eps = eps_scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        J[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2 * eps)
    return J


def rel_jac_error(J_analytic, J_fd):
    """Max entry error relative to the Jacobian magnitude (floor 1)."""
    J_analytic = np.asarray(J_analytic, float)
    scale = max(1.0, np.abs(J_analytic).max())
    return np.abs(J_analytic - J_fd).max() / scale


def random_planner_node(rng, vp: VehicleParams) -> np.ndarray:
    """Random z = (r, v, m, T, Gamma) in the flight envelope, generic alpha."""
    r = np.array([rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                  -rng.uniform(500, 8000)])
    speed = rng.uniform(30, 400)
    v_dir = _random_unit(rng)
    v_dir[2] = abs(v_dir[2])          # descending
    v = speed * v_dir / np.linalg.norm(v_dir)
    m = rng.uniform(26000, vp.m0)
    # Thrust roughly retro with a generic off-axis component.
    t_dir = -v / speed + 0.4 * _random_unit(rng)
    t_dir /= np.linalg.norm(t_dir)
    T = rng.uniform(0.5, 0.95) * vp.T_max * t_dir
    Gamma = np.linalg.norm(T) * rng.uniform(1.0, 1.1)
    return np.concatenate([r, v, [m], T, [Gamma]])


def _random_unit(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)
