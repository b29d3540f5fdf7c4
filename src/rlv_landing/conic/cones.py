"""The cone layout of the inequality rows, and the algebra over it.

K is a product of nonnegative-orthant rows and second-order cone blocks in
one layout, stated by three counts, ``Cones(n_nn, n_soc, d)``: every
orthant row first, then ``n_soc`` SOC blocks that all share one dimension d
(ECOS orders its rows the same way; Domahidi, Chu & Boyd, ECC 2013). The
planner's programs have this layout: its path constraints are orthant rows
and its thrust cones ||T_k|| <= Gamma_k are 4-dimensional SOC blocks, and
it makes the layout once per build template. The IPM, the row
equilibration, the residual check and the SCP projection read a program's
``cones`` and take a vector's parts from it as views: ``u[:n_nn]`` and
``u[n_nn:]`` as an (n_soc, d) stack (``Cones.split``).
The cone algebra of the IPM is compiled C, ``cones.c``, built with the LDL'
kernel into one library (``ldl``): one function loops over every orthant
row and SOC block of a vector, in place of a dozen numpy operations over
about 100 blocks, as ECOS and Clarabel loop (Goulart & Chen,
arXiv:2405.12762). It adds terms in the order numpy did, so that its
results are numpy's to the bit. The IPM calls it from C (``ipm_factor``,
``ipm_predictor`` and ``ipm_corrector`` in ``ldl.c``); in Python,
``ConePoints`` holds the cone data of a stack of points (their J-norms,
normalized blocks and violations), which the interior test and the shifts
into the cones read.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import ldl


class Cones:
    """The cone layout of the inequality rows, and the algebra over it:
    ``n_nn`` orthant rows, then ``n_soc`` SOC blocks of dimension ``d``.

    Each count must be an integer (not a bool), the two counts at least 0
    and d at least 2, else a ``ValueError`` is raised. A layout without SOC
    blocks reads its empty SOC part as a (0, d) stack.
    """

    def __init__(self, n_nn: int = 0, n_soc: int = 0, d: int = 2):
        for name, value, least in (("n_nn", n_nn, 0), ("n_soc", n_soc, 0),
                                   ("d", d, 2)):
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{least}, not {value!r}")
        self.shape = int(n_nn), int(n_soc), int(d)   # as cones.c takes it
        self.n_nn, self.n_soc, self.d = self.shape
        self.dim = self.n_nn + self.n_soc * self.d
        self.degree = self.n_nn + self.n_soc

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The orthant rows (..., n_nn) and the SOC blocks (..., n_soc, d)
        of a vector, or of a stack of them (k, dim), as views."""
        return u[..., :self.n_nn], u[..., self.n_nn:].reshape(
            *u.shape[:-1], self.n_soc, self.d)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[:self.n_nn] = 1.0
        e[self.n_nn::self.d] = 1.0
        return e

    def points(self, *u: np.ndarray) -> ConePoints:
        """The cone data of the points ``u``, stacked: the IPM's iterate is
        ``points(s, z)``. They must be float64 vectors of the layout."""
        return ConePoints(self, np.array(u))

    def interior_violation(self, u: np.ndarray) -> float:
        return self.points(u).violations()[0]

    def shift_warm(self, u: np.ndarray, depth: float) -> np.ndarray:
        """u moved ``depth`` deep into the cones along the identity."""
        shift = max(depth, self.interior_violation(u) + depth)
        return u + shift * self.identity()

    def shift_into_interior(self, u: np.ndarray) -> np.ndarray:
        viol = self.interior_violation(u)
        if viol >= -math.sqrt(np.finfo(float).eps):
            return u + (1.0 + viol) * self.identity()
        return u

    def address(self, name: str, u: np.ndarray):
        """The address of ``u`` for C, after checking that it is one
        float64 vector of this layout (``ldl._checked``)."""
        return ldl._checked(name, u, np.float64, self.dim)


class ConePoints:
    """The cone data of a stack of points, computed once and read by every
    evaluation at them.

    ``u`` is the (k, dim) stack. ``norm_sq`` holds the J-norm square
    u_0^2 - ||u_1||^2 of each block (k, n_soc), ``norm`` the J-norm (floored
    at 1e-150 off the interior) and ``bar`` the blocks divided by it
    (k, n_soc, d); ``cone_points`` in ``cones.c`` computes them and the
    violations. Each point's values are those it has alone in the stack.
    """

    def __init__(self, cones: Cones, u: np.ndarray):
        self.cones, self.u = cones, u
        k = len(u)
        address = ldl._checked("u", u, np.float64, k, cones.dim)
        self.norm_sq, self.norm = np.empty((2, k, cones.n_soc))
        self.bar = np.empty((k, cones.n_soc, cones.d))
        self._worst = np.empty(k)
        self._addresses = (address, ldl._address(self.norm),
                           ldl._address(self.bar))
        ldl._library().cone_points(
            k, *cones.shape, address, ldl._address(self.norm_sq),
            *self._addresses[1:], ldl._address(self._worst))

    def violations(self) -> list[float]:
        """How far each point lies outside the cones: the largest of -u over
        the orthant rows and ||u_1|| - u_0 over the SOC blocks (negative
        inside)."""
        return self._worst.tolist()
