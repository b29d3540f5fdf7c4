"""The cone layout of the inequality rows, and the algebra over it.

K is a product of nonnegative-orthant rows and second-order cone blocks,
listed top to bottom in G's row order as ``ConeBlock``s. ``Cones`` is the
one reader of that list; a program builds it once (``ConicProgram.layout``)
and the IPM, the row equilibration, the residual check and the SCP
projection all read it from there. Cone algebra is vectorized over groups
of equal-dimension SOC blocks. ``ConePoints`` holds the cone data of a
stack of points (their blocks and J-norms), formed once and read by each
evaluation at those points, such as the step lengths of both.
"""

from __future__ import annotations

import math
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
        if self.dim < 1 or (self.kind == SOC and self.dim < 2):
            raise ValueError("bad cone dimension")


class Cones:
    """Vectorized cone algebra over the inequality rows.

    Nonnegative coordinates are gathered into one index vector; SOC blocks
    are grouped by dimension into (n_blocks, dim) index matrices so all
    per-block formulas run as stacked numpy operations.
    """

    def __init__(self, cones: list[ConeBlock]):
        nn_idx = []
        soc_groups: dict[int, list[np.ndarray]] = {}
        start = 0
        for cb in cones:
            idx = np.arange(start, start + cb.dim)
            if cb.kind == NONNEG:
                nn_idx.append(idx)
            else:
                soc_groups.setdefault(cb.dim, []).append(idx)
            start += cb.dim
        self.dim = start
        self.nn = np.concatenate(nn_idx) if nn_idx else np.empty(0, dtype=int)
        self.soc = {d: np.vstack(rows) for d, rows in soc_groups.items()}
        self.n_soc = sum(v.shape[0] for v in self.soc.values())
        self.degree = self.nn.size + self.n_soc
        self._stacked: dict[int, tuple] = {}

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.nn] = 1.0
        for idx in self.soc.values():
            e[idx[:, 0]] = 1.0
        return e

    def points(self, *u: np.ndarray) -> ConePoints:
        """The cone data of the points ``u``, stacked: the IPM's iterate is
        ``points(s, z)``."""
        return ConePoints(self, np.array(u))

    def stacked(self, k: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Where the orthant rows (k, n_nn) and the SOC blocks (k, n, d) of
        a (k, dim) stack of points sit in it, flattened: one ``take``
        gathers them for every point."""
        if k not in self._stacked:
            offset = self.dim * np.arange(k)[:, None]
            self._stacked[k] = (offset + self.nn, {
                d: offset[:, :, None] + idx for d, idx in self.soc.items()})
        return self._stacked[k]

    def join(self, nn: np.ndarray, soc: dict[int, np.ndarray]) -> np.ndarray:
        """The vector with ``nn`` on the orthant rows and the blocks
        ``soc[d]`` (n, d) on each SOC group."""
        out = np.empty(self.dim)
        out[self.nn] = nn
        for d, idx in self.soc.items():
            out.flat[idx] = soc[d]
        return out

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
        return self.join(u[self.nn] * v[self.nn], {
            d: soc_product(u[idx], v[idx]) for d, idx in self.soc.items()})

    def clip_eigenvalues(self, v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Project blockwise spectral values of v onto [lo, hi].

        Nonnegative coordinates clip directly; SOC blocks clip their two
        Jordan eigenvalues v0 +/- ||v1|| and are reassembled.
        """
        soc = {}
        for d, idx in self.soc.items():
            vb = v[idx]
            nv1 = np.sqrt(np.add.reduce(vb[:, 1:] ** 2, axis=1))
            e1 = (vb[:, 0] + nv1).clip(lo, hi)
            e2 = (vb[:, 0] - nv1).clip(lo, hi)
            out = soc[d] = np.empty_like(vb)
            out[:, 0] = 0.5 * (e1 + e2)
            unit = np.divide(vb[:, 1:], nv1[:, None],
                             out=np.zeros_like(vb[:, 1:]),
                             where=nv1[:, None] > 1e-300)
            out[:, 1:] = 0.5 * (e1 - e2)[:, None] * unit
        return self.join(v[self.nn].clip(lo, hi), soc)


class ConePoints:
    """The cone data of a stack of points, computed once and read by every
    evaluation at them: the IPM forms it once per iterate, for (s, z).

    ``u`` is the (k, dim) stack; ``nn`` holds its orthant rows (k, n_nn) and
    ``soc[d]`` its SOC blocks of dimension d (k, n, d). Per SOC group,
    ``tail_sq[d]`` holds ||u_1||^2 and ``norm_sq[d]`` the J-norm square
    u_0^2 - ||u_1||^2 of each block (k, n), ``norm[d]`` the J-norm (floored
    at 1e-150 off the interior) and ``bar[d]`` the blocks divided by it.
    A formula over the stack adds up each point's terms as it would for
    that point alone: a reduction over the last axis of a (k, n, d) array
    sums as it does on (n, d).
    """

    def __init__(self, cones: Cones, u: np.ndarray):
        self.cones, self.u = cones, u
        nn, soc = cones.stacked(len(u))
        self.nn = u.take(nn)
        self.soc, self.tail_sq, self.norm_sq, self.norm, self.bar = \
            {}, {}, {}, {}, {}
        for d, idx in soc.items():
            b = self.soc[d] = u.take(idx)
            tail_sq = self.tail_sq[d] = np.add.reduce(b[..., 1:] ** 2, axis=-1)
            norm_sq = self.norm_sq[d] = b[..., 0] ** 2 - tail_sq
            norm = self.norm[d] = np.sqrt(np.maximum(norm_sq, 1e-300))
            self.bar[d] = b / norm[..., None]

    def violations(self) -> list[float]:
        """How far each point lies outside the cones: the largest of -u over
        the orthant rows and ||u_1|| - u_0 over the SOC blocks (negative
        inside)."""
        worst = [-np.inf] * len(self.u)
        if self.nn.shape[1]:
            worst = [max(w, v)
                     for w, v in zip(worst, (-self.nn.min(axis=1)).tolist())]
        for d, b in self.soc.items():
            margin = (np.sqrt(self.tail_sq[d]) - b[..., 0]).max(axis=-1)
            worst = [max(w, v) for w, v in zip(worst, margin.tolist())]
        return worst

    def max_steps(self, *du: np.ndarray) -> list[float]:
        """For each point u, inside the cones, and its direction du, the
        largest alpha with u + alpha du in the cones, all in one pass.

        An SOC block is taken to the identity by the Lorentz transform of
        its J-normalized u; the step of the transformed direction rho is
        1 / (||rho_1|| - rho_0), and unbounded where that is not positive.
        """
        du = np.array(du)
        nn, soc = self.cones.stacked(len(du))
        dn = du.take(nn)
        neg = dn < 0
        ratio = np.divide(-self.nn, dn, out=np.full(dn.shape, np.inf),
                          where=neg)
        alpha = ratio.min(axis=1, initial=np.inf).tolist()
        for d, idx in soc.items():
            ubar = self.bar[d]
            dbar = du.take(idx) / self.norm[d][..., None]
            rho0 = ubar[..., 0] * dbar[..., 0] \
                - np.add.reduce(ubar[..., 1:] * dbar[..., 1:], axis=-1)
            rho1 = dbar[..., 1:] - ubar[..., 1:] \
                * ((rho0 + dbar[..., 0]) / (ubar[..., 0] + 1.0))[..., None]
            worst = np.sqrt(np.add.reduce(rho1 * rho1, axis=-1)) - rho0
            for i, w in enumerate(worst.max(axis=-1).tolist()):
                if w > 0.0:
                    alpha[i] = min(alpha[i], 1.0 / w)
        return alpha

    def divide(self, d: np.ndarray) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Solve lam o x = d blockwise, for the one point lam of the stack:
        x on the orthant rows, and x's SOC blocks (n, dim) per group."""
        x_soc = {}
        for dim, idx in self.cones.soc.items():
            lb, db = self.soc[dim][0], d[idx]
            x = x_soc[dim] = np.empty_like(db)
            x[:, 0] = (lb[:, 0] * db[:, 0]
                       - np.add.reduce(lb[:, 1:] * db[:, 1:], axis=1)) \
                / self.norm_sq[dim][0]
            x[:, 1:] = (db[:, 1:] - x[:, :1] * lb[:, 1:]) / lb[:, :1]
        return d[self.cones.nn] / self.nn[0], x_soc


def soc_product(ub: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The Jordan product u o v = (u'v, u_0 v_1 + v_0 u_1) of SOC blocks
    (n, d)."""
    out = np.empty_like(ub)
    out[:, 0] = np.add.reduce(ub * vb, axis=1)
    out[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out
