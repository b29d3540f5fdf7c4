"""Affine variable normalization of conic programs.

Each variable with box [lo, hi] is mapped to x_scaled in [-1, 1] via
x = offset + half * x_scaled. Constraints and the objective transform
consistently; cone constraints survive because the map is affine row-wise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .cones import Cones
from .program import ConicProgram, VariableScaling


def make_scaling(lo: np.ndarray, hi: np.ndarray,
                 names: list[str] | None = None) -> VariableScaling:
    """Build a scaling record from per-variable bounds; bounds must be ordered."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo))
    if np.any(bad):
        idx = int(np.argmax(bad))
        label = names[idx] if names else f"#{idx}"
        raise ValueError(f"degenerate bounds for variable {label}: "
                         f"[{lo[idx]}, {hi[idx]}]")
    return VariableScaling(offset=0.5 * (lo + hi), half_range=0.5 * (hi - lo))


def equilibrate_rows(program: ConicProgram) -> ConicProgram:
    """Normalize constraint rows to unit infinity-norm, in place.

    Equality rows and nonnegative-orthant rows are scaled individually;
    each second-order cone block is scaled by a single positive scalar so
    the cone is preserved. The solution set is unchanged (duals rescale).
    """
    if program.A is not None:
        A = program.A.tocsr()
        scale = np.maximum(np.abs(A).max(axis=1).toarray().ravel(), 1e-300)
        D = sp.diags(1.0 / scale)
        program.A = (D @ A).tocsr()
        program.b = np.asarray(program.b, float) / scale
    if program.G is not None:
        G = program.G.tocsr()
        h = np.asarray(program.h, float)
        row_max = np.abs(G).max(axis=1).toarray().ravel()
        scale = np.maximum(np.maximum(row_max, np.abs(h)), 1e-12)
        for idx in Cones(program.cones).soc.values():
            scale[idx] = scale[idx].max(axis=1, keepdims=True)
        D = sp.diags(1.0 / scale)
        program.G = (D @ G).tocsr()
        program.h = h / scale
    return program


def scale_program(program: ConicProgram, lo: np.ndarray,
                  hi: np.ndarray) -> ConicProgram:
    """Return the program rewritten in scaled variables carrying the record."""
    program.validate()
    record = make_scaling(lo, hi, program.var_names)
    o, half = record.offset, record.half_range
    S = sp.diags(half)

    c = np.asarray(program.c, float)
    obj_offset = program.obj_offset + float(c @ o)
    if program.P is not None:
        Po = program.P @ o
        obj_offset += 0.5 * float(o @ Po)
        c_hat = half * (c + Po)
        P_hat = (S @ program.P @ S).tocsc()
    else:
        c_hat = half * c
        P_hat = None

    scaled = ConicProgram(
        c=c_hat,
        P=P_hat,
        obj_offset=obj_offset,
        scaling=record,
        var_names=program.var_names,
        cones=list(program.cones),
    )
    if program.A is not None:
        scaled.A = (program.A @ S).tocsr()
        scaled.b = np.asarray(program.b, float) - program.A @ o
    if program.G is not None:
        scaled.G = (program.G @ S).tocsr()
        scaled.h = np.asarray(program.h, float) - program.G @ o
    scaled.validate()
    return scaled
