"""Plan times rescaled by a probe of the host's speed.

On a shared host the same plan can take 40 % longer from one second to the
next. The probe does a fixed amount of the work that dominates a plan
(SuperLU factorizations and triangular solves) on a matrix that does not
depend on the package. ``PlanClock`` runs it before the first plan, after
every plan and, when ``every`` is set, between SCP iterations once that many
seconds have passed since the last probe. Each stretch of a plan between two
probes is rescaled by the mean of those two probes, to the speed at which
the probe takes ``REFERENCE_S``. Probe time is left out of the plan's time;
the probe changes no result.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 45          # 2-D Laplacian on a GRID x GRID mesh: 2025 unknowns
ROUNDS = 3         # factorizations per probe
SOLVES = 5         # triangular solves per factorization
# The probe's median time on the host the baseline was recorded on
# (2-vCPU Xeon VM, Python 3.11, SciPy 1.17, one BLAS thread).
REFERENCE_S = 0.027


class Probe:
    def __init__(self):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self._K = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()
        self._b = np.random.default_rng(0).normal(size=GRID * GRID)

    def __call__(self) -> float:
        """Seconds for one fixed round of factorizations and solves."""
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            lu = spla.splu(self._K)
            for _ in range(SOLVES):
                lu.solve(self._b)
        return time.perf_counter() - t0


class PlanClock:
    """Wall time of a plan without the probes in it, and that time rescaled.

    ``probe`` returns the seconds one probe took; ``every`` is the least
    time between probes inside a plan, or None for probes between plans only.
    """

    def __init__(self, probe, every: float | None = None):
        self.probe = probe
        self.every = every
        self.probes = [probe()]
        self._t0 = time.perf_counter()
        self._wall = self._scaled = 0.0

    def start(self) -> None:
        self._wall = self._scaled = 0.0
        self._t0 = time.perf_counter()

    def tick(self) -> None:
        """Probe now if ``every`` seconds have passed since the last probe."""
        if self.every is not None and time.perf_counter() - self._t0 >= self.every:
            self._cut()

    def stop(self) -> tuple[float, float]:
        """Probe once more; return the plan's wall and rescaled seconds."""
        self._cut()
        return self._wall, self._scaled

    def _cut(self) -> None:
        stretch = time.perf_counter() - self._t0
        speed = self.probe()
        self._wall += stretch
        self._scaled += stretch * REFERENCE_S / (0.5 * (self.probes[-1] + speed))
        self.probes.append(speed)
        self._t0 = time.perf_counter()
