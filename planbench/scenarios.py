"""Dispersed initial states for the planning benchmark.

Every run plans two kinds of state, both offset from a nominal state in a
random direction by a magnitude drawn from |N(0, SD)|:

- the workload's reference set: the first few states of one fixed stream,
  the same in every run, so that latency over it compares across runs;
- the seed's states: a stream of its own for every ``--seed``.

The nominal states and SDs are written out here rather than read from the
package defaults, so that two commits given the same seed plan from
bit-identical inputs even if a default changes. They copy, at the time the
benchmark was written:

- ignition-fit: ``Scenario.r0`` / ``Scenario.v0`` and ``VehicleParams.m0``;
- current-state: the state of ``test_replan_mode_from_midcourse_state``;
- SDs: ``CampaignConfig.sd_r0`` and ``CampaignConfig.sd_v0``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SD_R0 = 100.0     # SD of the position offset magnitude [m]
SD_V0 = 15.0      # SD of the velocity offset magnitude [m/s]
N_CASES = 64      # dispersed states per seed


@dataclass(frozen=True)
class Nominal:
    r: tuple[float, float, float]
    v: tuple[float, float, float]
    m: float


IGNITION = Nominal(r=(-700.0, -700.0, -6000.0), v=(58.8, 58.8, 391.0),
                   m=36079.0)
MIDCOURSE = Nominal(r=(-300.0, -250.0, -3500.0), v=(40.0, 35.0, 230.0),
                    m=33000.0)


def _offset(rng: np.random.Generator, sd: float) -> np.ndarray:
    direction = rng.normal(size=3)
    return abs(rng.normal(0.0, sd)) * direction / np.linalg.norm(direction)


def dispersed_states(seed: int, nominal: Nominal,
                     count: int = N_CASES) -> np.ndarray:
    """(count, 7) rows of r, v, m: random-direction offsets around nominal."""
    return _draw(np.random.default_rng([1, seed]), nominal, count)


def reference_states(nominal: Nominal, count: int) -> np.ndarray:
    """The first ``count`` states of a fixed stream, the same for every seed."""
    return _draw(np.random.default_rng([0]), nominal, count)


def _draw(rng: np.random.Generator, nominal: Nominal, count: int) -> np.ndarray:
    states = np.empty((count, 7))
    for i in range(count):
        states[i, 0:3] = np.asarray(nominal.r) + _offset(rng, SD_R0)
        states[i, 3:6] = np.asarray(nominal.v) + _offset(rng, SD_V0)
        states[i, 6] = nominal.m
    return states


def digest(states: np.ndarray) -> str:
    """SHA-256 of the states as little-endian float64, to compare inputs."""
    return hashlib.sha256(np.ascontiguousarray(states, "<f8").tobytes()).hexdigest()
