"""The cone layout of the inequality rows, and the algebra over it.

K is a product of nonnegative-orthant rows and second-order cone blocks,
listed top to bottom in G's row order as ``ConeBlock``s, in one layout:
every orthant row first, then SOC blocks that all share one dimension d
(ECOS orders its rows the same way; Domahidi, Chu & Boyd, ECC 2013). The
planner's programs have this layout: its path constraints are orthant rows
and its thrust cones ||T_k|| <= Gamma_k are 4-dimensional SOC blocks.
``Cones`` is the one reader of the list; a program builds it once
(``ConicProgram.layout``), and the IPM, the row equilibration, the residual
check and the SCP projection read a vector's parts from it as views:
``u[:n_nn]`` and ``u[n_nn:]`` as an (n_soc, d) stack (``Cones.split``).
Cone algebra runs as stacked numpy operations over the SOC blocks.
``ConePoints`` holds the cone data of a stack of points (their blocks and
J-norms), formed once and read by each evaluation at those points, such as
the step lengths of both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

NONNEG = "nonneg"
SOC = "soc"


@dataclass(frozen=True)
class ConeBlock:
    kind: str   # NONNEG or SOC
    dim: int

    def __post_init__(self):
        if self.kind not in (NONNEG, SOC):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if not isinstance(self.dim, numbers.Integral) or \
                isinstance(self.dim, bool):
            raise ValueError(
                f"cone dimension must be an integer, not {self.dim!r}")
        if self.dim < 1 or (self.kind == SOC and self.dim < 2):
            raise ValueError("bad cone dimension")


class Cones:
    """Vectorized cone algebra over the inequality rows: ``n_nn`` orthant
    rows, then ``n_soc`` SOC blocks of dimension ``d``.

    Any other list of cone blocks raises a ``ValueError``. A layout
    without SOC blocks reads its empty SOC part as a (0, 2) stack.
    """

    def __init__(self, cones: list[ConeBlock]):
        first_soc = next((i for i, cb in enumerate(cones) if cb.kind == SOC),
                         len(cones))
        soc = cones[first_soc:]
        if any(cb.kind != SOC or cb.dim != soc[0].dim for cb in soc):
            raise ValueError("cone blocks must list every orthant row "
                             "first, then SOC blocks of one dimension")
        self.n_nn = sum(cb.dim for cb in cones[:first_soc])
        self.n_soc = len(soc)
        self.d = soc[0].dim if soc else 2
        self.dim = self.n_nn + self.n_soc * self.d
        self.degree = self.n_nn + self.n_soc

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The orthant rows (..., n_nn) and the SOC blocks (..., n_soc, d)
        of a vector, or of a stack of them (k, dim), as views."""
        return u[..., :self.n_nn], u[..., self.n_nn:].reshape(
            *u.shape[:-1], self.n_soc, self.d)

    def join(self, nn: np.ndarray, soc: np.ndarray) -> np.ndarray:
        """The vector with ``nn`` on the orthant rows and the blocks ``soc``
        (n_soc, d) after them."""
        return np.concatenate([nn, soc.reshape(-1)])

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[:self.n_nn] = 1.0
        e[self.n_nn::self.d] = 1.0
        return e

    def points(self, *u: np.ndarray) -> ConePoints:
        """The cone data of the points ``u``, stacked: the IPM's iterate is
        ``points(s, z)``."""
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

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        (u_nn, u_soc), (v_nn, v_soc) = self.split(u), self.split(v)
        return self.join(u_nn * v_nn, soc_product(u_soc, v_soc))

    def clip_eigenvalues(self, v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Project blockwise spectral values of v onto [lo, hi].

        Nonnegative coordinates clip directly; SOC blocks clip their two
        Jordan eigenvalues v0 +/- ||v1|| and are reassembled.
        """
        v_nn, vb = self.split(v)
        nv1 = np.sqrt(np.add.reduce(vb[:, 1:] ** 2, axis=1))
        e1 = (vb[:, 0] + nv1).clip(lo, hi)
        e2 = (vb[:, 0] - nv1).clip(lo, hi)
        out = np.empty_like(vb)
        out[:, 0] = 0.5 * (e1 + e2)
        unit = np.divide(vb[:, 1:], nv1[:, None],
                         out=np.zeros_like(vb[:, 1:]),
                         where=nv1[:, None] > 1e-300)
        out[:, 1:] = 0.5 * (e1 - e2)[:, None] * unit
        return self.join(v_nn.clip(lo, hi), out)


class ConePoints:
    """The cone data of a stack of points, computed once and read by every
    evaluation at them: the IPM forms it once per iterate, for (s, z).

    ``u`` is the (k, dim) stack; ``nn`` holds its orthant rows (k, n_nn) and
    ``soc`` its SOC blocks (k, n_soc, d), both views of ``u``. ``tail_sq``
    holds ||u_1||^2 and ``norm_sq`` the J-norm square u_0^2 - ||u_1||^2 of
    each block (k, n_soc), ``norm`` the J-norm (floored at 1e-150 off the
    interior) and ``bar`` the blocks divided by it. A formula over the
    stack adds up each point's terms as it would for that point alone: a
    reduction over the last axis of a (k, n, d) array sums as it does on
    (n, d).
    """

    def __init__(self, cones: Cones, u: np.ndarray):
        self.cones, self.u = cones, u
        self.nn, self.soc = cones.split(u)
        b = self.soc
        self.tail_sq = np.add.reduce(b[..., 1:] ** 2, axis=-1)
        self.norm_sq = b[..., 0] ** 2 - self.tail_sq
        self.norm = np.sqrt(np.maximum(self.norm_sq, 1e-300))
        self.bar = b / self.norm[..., None]

    def violations(self) -> list[float]:
        """How far each point lies outside the cones: the largest of -u over
        the orthant rows and ||u_1|| - u_0 over the SOC blocks (negative
        inside)."""
        worst = [-np.inf] * len(self.u)
        margin = np.sqrt(self.tail_sq) - self.soc[..., 0]
        for part in (-self.nn.min(axis=1, initial=np.inf),
                     margin.max(axis=-1, initial=-np.inf)):
            worst = [max(w, v) for w, v in zip(worst, part.tolist())]
        return worst

    def max_steps(self, *du: np.ndarray) -> list[float]:
        """For each point u, inside the cones, and its direction du, the
        largest alpha with u + alpha du in the cones, all in one pass.

        An SOC block is taken to the identity by the Lorentz transform of
        its J-normalized u; the step of the transformed direction rho is
        1 / (||rho_1|| - rho_0), and unbounded where that is not positive.
        """
        dn, d_soc = self.cones.split(np.array(du))
        neg = dn < 0
        ratio = np.divide(-self.nn, dn, out=np.full(dn.shape, np.inf),
                          where=neg)
        alpha = ratio.min(axis=1, initial=np.inf).tolist()
        ubar = self.bar
        dbar = d_soc / self.norm[..., None]
        rho0 = ubar[..., 0] * dbar[..., 0] \
            - np.add.reduce(ubar[..., 1:] * dbar[..., 1:], axis=-1)
        rho1 = dbar[..., 1:] - ubar[..., 1:] \
            * ((rho0 + dbar[..., 0]) / (ubar[..., 0] + 1.0))[..., None]
        worst = np.sqrt(np.add.reduce(rho1 * rho1, axis=-1)) - rho0
        for i, w in enumerate(worst.max(axis=-1, initial=-np.inf).tolist()):
            if w > 0.0:
                alpha[i] = min(alpha[i], 1.0 / w)
        return alpha

    def divide(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve lam o x = d blockwise, for the one point lam of the stack:
        x on the orthant rows, and x's SOC blocks (n_soc, d)."""
        d_nn, db = self.cones.split(d)
        lb = self.soc[0]
        x = np.empty_like(db)
        x[:, 0] = (lb[:, 0] * db[:, 0]
                   - np.add.reduce(lb[:, 1:] * db[:, 1:], axis=1)) \
            / self.norm_sq[0]
        x[:, 1:] = (db[:, 1:] - x[:, :1] * lb[:, 1:]) / lb[:, :1]
        return d_nn / self.nn[0], x


def soc_product(ub: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The Jordan product u o v = (u'v, u_0 v_1 + v_0 u_1) of SOC blocks
    (n, d)."""
    out = np.empty_like(ub)
    out[:, 0] = np.add.reduce(ub * vb, axis=1)
    out[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out
