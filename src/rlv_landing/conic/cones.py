"""The cone layout of the inequality rows, and the algebra over it.

K is a product of nonnegative-orthant rows and second-order cone blocks,
listed top to bottom in G's row order as ``ConeBlock``s. ``Cones`` is the
one reader of that list; a program builds it once (``ConicProgram.layout``)
and the IPM, the row equilibration, the residual check and the SCP
projection all read it from there. Cone algebra is vectorized over groups
of equal-dimension SOC blocks.
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

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.nn] = 1.0
        for idx in self.soc.values():
            e[idx[:, 0]] = 1.0
        return e

    def interior_violation(self, u: np.ndarray) -> float:
        worst = -np.inf
        if self.nn.size:
            worst = max(worst, float(-u[self.nn].min()))
        for idx in self.soc.values():
            blocks = u[idx]
            margin = np.linalg.norm(blocks[:, 1:], axis=1) - blocks[:, 0]
            worst = max(worst, float(margin.max()))
        return worst

    def shift_warm(self, u: np.ndarray, depth: float) -> np.ndarray:
        """u moved ``depth`` deep into the cones along the identity."""
        shift = max(depth, self.interior_violation(u) + depth)
        return u + shift * self.identity()

    def shift_into_interior(self, u: np.ndarray) -> np.ndarray:
        viol = self.interior_violation(u)
        if viol >= -math.sqrt(np.finfo(float).eps):
            return u + (1.0 + viol) * self.identity()
        return u

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        """Largest alpha with u + alpha du in the cones, for u inside them.

        An SOC block is taken to the identity by the Lorentz transform of
        its J-normalized u; the step of the transformed direction rho is
        1 / (||rho_1|| - rho_0), and unbounded where that is not positive.
        """
        alpha = np.inf
        if self.nn.size:
            un, dn = u[self.nn], du[self.nn]
            neg = dn < 0
            if np.any(neg):
                alpha = min(alpha, float((-un[neg] / dn[neg]).min()))
        for idx in self.soc.values():
            ub, db = u[idx], du[idx]
            norm_j = np.sqrt(ub[:, 0] ** 2 - np.sum(ub[:, 1:] ** 2, axis=1))
            ubar = ub / norm_j[:, None]
            dbar = db / norm_j[:, None]
            rho0 = ubar[:, 0] * dbar[:, 0] \
                - np.sum(ubar[:, 1:] * dbar[:, 1:], axis=1)
            rho1 = dbar[:, 1:] - ubar[:, 1:] \
                * ((rho0 + dbar[:, 0]) / (ubar[:, 0] + 1.0))[:, None]
            worst = float((np.linalg.norm(rho1, axis=1) - rho0).max())
            if worst > 0.0:
                alpha = min(alpha, 1.0 / worst)
        return alpha

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.nn] = u[self.nn] * v[self.nn]
        for idx in self.soc.values():
            ub, vb = u[idx], v[idx]
            out[idx[:, 0]] = np.sum(ub * vb, axis=1)
            out.flat[idx[:, 1:]] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
        return out

    def divide(self, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve lam o x = d blockwise."""
        out = np.zeros(self.dim)
        out[self.nn] = d[self.nn] / lam[self.nn]
        for idx in self.soc.values():
            lb, db = lam[idx], d[idx]
            det = lb[:, 0] ** 2 - np.sum(lb[:, 1:] ** 2, axis=1)
            x0 = (lb[:, 0] * db[:, 0] - np.sum(lb[:, 1:] * db[:, 1:], axis=1)) / det
            out[idx[:, 0]] = x0
            out.flat[idx[:, 1:]] = (db[:, 1:] - x0[:, None] * lb[:, 1:]) / lb[:, :1]
        return out

    def clip_eigenvalues(self, v: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Project blockwise spectral values of v onto [lo, hi].

        Nonnegative coordinates clip directly; SOC blocks clip their two
        Jordan eigenvalues v0 +/- ||v1|| and are reassembled.
        """
        out = v.copy()
        out[self.nn] = np.clip(v[self.nn], lo, hi)
        for idx in self.soc.values():
            vb = v[idx]
            nv1 = np.linalg.norm(vb[:, 1:], axis=1)
            e1 = np.clip(vb[:, 0] + nv1, lo, hi)
            e2 = np.clip(vb[:, 0] - nv1, lo, hi)
            out[idx[:, 0]] = 0.5 * (e1 + e2)
            unit = np.divide(vb[:, 1:], nv1[:, None],
                             out=np.zeros_like(vb[:, 1:]),
                             where=nv1[:, None] > 1e-300)
            out.flat[idx[:, 1:]] = 0.5 * (e1 - e2)[:, None] * unit
        return out
