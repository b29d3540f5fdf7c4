"""Affine variable normalization and row equilibration of constraint blocks.

Each variable with box [lo, hi] is mapped to x_scaled in [-1, 1] via
x = offset + half * x_scaled; cone constraints survive because the map is
affine row-wise. A block, A x = b or G x + s = h, is (pattern, data, rhs):
a ``RowPattern``, which does its CSR pattern's index work once, and one
program's values on it. Both steps return new values and write none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cones import Cones


@dataclass(frozen=True)
class VariableScaling:
    """Affine map x_physical = offset + half_range * x_scaled."""

    offset: np.ndarray
    half_range: np.ndarray

    def scale(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, float) - self.offset) / self.half_range

    def unscale(self, x_scaled: np.ndarray) -> np.ndarray:
        return self.offset + self.half_range * np.asarray(x_scaled, float)


def make_scaling(lo: np.ndarray, hi: np.ndarray) -> VariableScaling:
    """Build a scaling record from per-variable bounds; bounds must be ordered."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"degenerate bounds for variable #{idx}: "
                         f"[{lo[idx]}, {hi[idx]}]")
    return VariableScaling(offset=0.5 * (lo + hi), half_range=0.5 * (hi - lo))


class RowPattern:
    """A CSR pattern, int32 ``indptr`` and ``indices`` with each row's
    columns ascending, over the variables of ``half_range``, and what the
    scaling reads of it: the row of each stored entry, the permutation that
    reverses each row (``flip``), the columns in that order (``reversed``)
    and the half range there, and the first entry of each row that stores
    one (``starts``).

    The scaled matrix stores each row in reverse, the order the product
    M @ diag(half) left before scaling worked on values; the IPM's products
    add up each row in its stored order. With rows kept in ascending order,
    98 of 129 benchmark plans (ignition-n100, replan-n100 and ignition-n30:
    reference sets and 16 states each of seeds 5 and 6) end at other last
    bits, and two ignition-n100 plans that converge fail.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 half_range: np.ndarray):
        self.indptr, self.indices = indptr, indices
        self.shape = (indptr.size - 1, half_range.size)
        counts = np.diff(indptr)
        self.rows = np.repeat(np.arange(self.shape[0], dtype=np.intc), counts)
        self.flip = np.repeat(indptr[:-1] + indptr[1:] - 1, counts) \
            - np.arange(indices.size, dtype=np.intc)
        self.reversed = indices[self.flip]
        self.half = half_range[self.reversed]
        self.stored = counts > 0
        self.starts = indptr[:-1][self.stored]

    def row_max(self, data: np.ndarray) -> np.ndarray:
        """Largest |entry| of each row, 0 for a row without entries."""
        out = np.zeros(self.shape[0])
        out[self.stored] = np.maximum.reduceat(np.abs(data), self.starts)
        return out

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix of scaled ``data``, each row reversed, on copies of
        the index arrays, which no other matrix shares."""
        return sp.csr_matrix((data, self.reversed.copy(), self.indptr.copy()),
                             shape=self.shape)


def scale_program(eq: tuple, ineq: tuple, offset: np.ndarray) -> list:
    """The blocks of A x = b and G x + s = h in the scaled variables: the
    data with each row reversed times the half range at its columns, and
    rhs - M offset, whose bincount adds each row's products from 0.0 in
    the stored order, as scipy's CSR product does. (A linear cost c scales
    to half_range * c, plus the constant c' offset.)"""
    return [(pattern, data[pattern.flip] * pattern.half,
             rhs - np.bincount(pattern.rows, data * offset[pattern.indices],
                               rhs.size))
            for pattern, data, rhs in (eq, ineq)]


def equilibrate_rows(eq: tuple, ineq: tuple, cones: Cones) -> list:
    """The scaled blocks with their rows normalized to unit infinity-norm.

    Equality rows and nonnegative-orthant rows are scaled individually;
    each second-order cone block is scaled by a single positive scalar so
    the cone is preserved. The solution set is unchanged (duals rescale).
    """
    pattern, data, b = eq
    scale = np.maximum(pattern.row_max(data), 1e-300)
    eq = pattern, data * (1.0 / scale)[pattern.rows], b / scale
    pattern, data, h = ineq
    scale = np.maximum(np.maximum(pattern.row_max(data), np.abs(h)), 1e-12)
    _, blocks = cones.split(scale)
    blocks[:] = blocks.max(axis=1, keepdims=True)
    return [eq, (pattern, data * (1.0 / scale)[pattern.rows], h / scale)]


def _rows(M: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
