"""Affine variable normalization and row equilibration of conic programs.

Each variable with box [lo, hi] is mapped to x_scaled in [-1, 1] via
x = offset + half * x_scaled. Constraints and the objective transform
consistently; cone constraints survive because the map is affine row-wise.
Both steps rewrite a program's values in place, on its sparsity pattern,
and neither changes a matrix the caller passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .program import ConicProgram


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


def scale_program(program: ConicProgram,
                  record: VariableScaling) -> ConicProgram:
    """Rewrite the program in place in the variables ``record`` scales."""
    o, half = record.offset, record.half_range
    c = np.asarray(program.c, float)
    P = program.P.tocsr()
    Po = P @ o
    program.obj_offset = program.obj_offset + float(c @ o) \
        + 0.5 * float(o @ Po)
    program.c = half * (c + Po)
    program.P = _with_data(P, P.data * half[_rows(P)] * half[P.indices])
    A, G = program.A.tocsr(), program.G.tocsr()
    program.b = np.asarray(program.b, float) - A @ o
    program.h = np.asarray(program.h, float) - G @ o
    program.A, program.G = _scale_columns(A, half), _scale_columns(G, half)
    return program


def _scale_columns(M: sp.csr_matrix, half: np.ndarray) -> sp.csr_matrix:
    """M times diag(half), each row stored in reverse order.

    The reverse order is the one the product M @ diag(half) left before
    scaling worked on values, and the IPM's products add up each row in its
    stored order. With rows kept in M's ascending order, 98 of 129 benchmark
    plans (ignition-n100, replan-n100 and ignition-n30: reference sets and
    16 states each of seeds 5 and 6) end at other last bits, and two
    ignition-n100 plans that converge fail.
    """
    rows = _rows(M)
    flip = M.indptr[rows] + M.indptr[rows + 1] - 1 - np.arange(rows.size)
    indices = M.indices[flip]
    return _with_data(M, M.data[flip] * half[indices], indices)


def equilibrate_rows(program: ConicProgram) -> ConicProgram:
    """Normalize constraint rows to unit infinity-norm, in place.

    Equality rows and nonnegative-orthant rows are scaled individually;
    each second-order cone block is scaled by a single positive scalar so
    the cone is preserved. The solution set is unchanged (duals rescale).
    """
    A, G = program.A.tocsr(), program.G.tocsr()
    scale = np.maximum(_row_max(A), 1e-300)
    program.A = _with_data(A, A.data * (1.0 / scale)[_rows(A)])
    program.b = np.asarray(program.b, float) / scale
    h = np.asarray(program.h, float)
    scale = np.maximum(np.maximum(_row_max(G), np.abs(h)), 1e-12)
    _, blocks = program.cones.split(scale)
    blocks[:] = blocks.max(axis=1, keepdims=True)
    program.G = _with_data(G, G.data * (1.0 / scale)[_rows(G)])
    program.h = h / scale
    return program


def _row_max(M: sp.csr_matrix) -> np.ndarray:
    """Largest |entry| of each row, 0 for a row without entries."""
    out = np.zeros(M.shape[0])
    stored = np.diff(M.indptr) > 0
    out[stored] = np.maximum.reduceat(np.abs(M.data), M.indptr[:-1][stored])
    return out


def _rows(M: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))


def _with_data(M: sp.csr_matrix, data: np.ndarray,
               indices: np.ndarray | None = None) -> sp.csr_matrix:
    """A new CSR matrix on M's row pointers, and M's column indices unless
    others are given."""
    return sp.csr_matrix(
        (data, M.indices if indices is None else indices, M.indptr),
        shape=M.shape)
