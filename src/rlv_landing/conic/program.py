"""Standard-form convex program container and solver result types.

The canonical form is

    minimize    0.5 x' P x + c' x
    subject to  A x = b
                G x + s = h,   s in K

where K is a product of nonnegative-orthant and second-order cone blocks
listed top to bottom in the same row order as G. P is optional and PSD.
An optional per-variable affine scaling record maps solver variables back
to physical units.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class VariableScaling:
    """Affine map x_physical = offset + half_range * x_scaled."""

    offset: np.ndarray
    half_range: np.ndarray

    def scale(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, float) - self.offset) / self.half_range

    def unscale(self, x_scaled: np.ndarray) -> np.ndarray:
        return self.offset + self.half_range * np.asarray(x_scaled, float)


@dataclass
class ConicProgram:
    c: np.ndarray
    A: sp.spmatrix | None = None
    b: np.ndarray | None = None
    G: sp.spmatrix | None = None
    h: np.ndarray | None = None
    cones: list[ConeBlock] = field(default_factory=list)
    P: sp.spmatrix | None = None
    scaling: VariableScaling | None = None
    obj_offset: float = 0.0
    var_names: list[str] | None = None
    # Initial-iterate hint for the IPM's one solve, typically the solution of
    # a nearby program; ignored when its shapes do not match this program's.
    # Its KKT analysis is reused when the pattern matches, and a solution of
    # this same program object is resumed as it is (see ipm).
    start: SolverSolution | None = None

    @property
    def n(self) -> int:
        return int(np.asarray(self.c).size)

    @property
    def n_eq(self) -> int:
        return 0 if self.A is None else self.A.shape[0]

    @property
    def n_ineq(self) -> int:
        return 0 if self.G is None else self.G.shape[0]

    def validate(self) -> None:
        n = self.n
        if self.A is not None:
            if self.A.shape[1] != n or self.b is None or len(self.b) != self.A.shape[0]:
                raise ValueError("equality block dimensions inconsistent")
        if self.G is not None:
            if self.G.shape[1] != n or self.h is None or len(self.h) != self.G.shape[0]:
                raise ValueError("inequality block dimensions inconsistent")
            if sum(cb.dim for cb in self.cones) != self.G.shape[0]:
                raise ValueError("cone dimensions do not cover the inequality rows")
        elif self.cones:
            raise ValueError("cones listed without an inequality block")
        if self.P is not None and self.P.shape != (n, n):
            raise ValueError("quadratic term has wrong shape")
        if self.scaling is not None and (
                self.scaling.offset.size != n or self.scaling.half_range.size != n):
            raise ValueError("scaling record does not cover every variable")

    def objective_value(self, x: np.ndarray) -> float:
        val = float(self.c @ x) + self.obj_offset
        if self.P is not None:
            val += 0.5 * float(x @ (self.P @ x))
        return val


@dataclass
class SolverSolution:
    x: np.ndarray
    status: str                  # optimal | infeasible | unbounded | max_iter | numerical_failure
    iterations: int
    objective: float
    gap: float
    rel_gap: float
    primal_res: float
    dual_res: float
    y: np.ndarray | None = None  # equality multipliers
    z: np.ndarray | None = None  # cone multipliers
    s: np.ndarray | None = None  # cone slacks
    warm: bool = False           # the IPM started from the program's start
    reordered: bool = False      # the solve took its own KKT ordering
    resumed: bool = False        # the start was this program's own iterate
    # For a later solve from this one: the KKT analysis, reused when the
    # pattern matches, and the program solved (weakly, since that program
    # may hold this solution as its start).
    _analysis: Any = field(default=None, repr=False, compare=False)
    _program: weakref.ref | None = field(default=None, repr=False,
                                         compare=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def x_physical(self, program: ConicProgram) -> np.ndarray:
        if program.scaling is None:
            return self.x
        return program.scaling.unscale(self.x)


def _write_matrix(lines: list[str], tag: str, mat: sp.spmatrix) -> None:
    coo = mat.tocoo()
    lines.append(f"{tag} {coo.shape[0]} {coo.shape[1]} {coo.nnz}")
    for i, j, v in zip(coo.row, coo.col, coo.data):
        lines.append(f"{i} {j} {float(v)!r}")


def _write_vector(lines: list[str], tag: str, vec: np.ndarray) -> None:
    lines.append(f"{tag} {len(vec)}")
    lines.extend(repr(float(v)) for v in vec)


def dump_program(program: ConicProgram, path: str | Path) -> None:
    """Write the program as text; floats use repr for exact round-trip."""
    lines = [f"conicprogram 1 {program.n}"]
    _write_vector(lines, "c", np.asarray(program.c, float))
    lines.append(f"obj_offset {program.obj_offset!r}")
    if program.P is not None:
        _write_matrix(lines, "P", program.P)
    if program.A is not None:
        _write_matrix(lines, "A", program.A)
        _write_vector(lines, "b", np.asarray(program.b, float))
    if program.G is not None:
        _write_matrix(lines, "G", program.G)
        _write_vector(lines, "h", np.asarray(program.h, float))
        lines.append("cones " + " ".join(f"{cb.kind}:{cb.dim}" for cb in program.cones))
    if program.scaling is not None:
        _write_vector(lines, "scale_offset", program.scaling.offset)
        _write_vector(lines, "scale_half", program.scaling.half_range)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_program(path: str | Path) -> ConicProgram:
    """Read back a program written by dump_program."""
    tokens = Path(path).read_text(encoding="utf-8").splitlines()
    pos = 0

    def next_line() -> str:
        nonlocal pos
        line = tokens[pos]
        pos += 1
        return line

    header = next_line().split()
    if header[0] != "conicprogram":
        raise ValueError("not a conic program dump")
    n = int(header[2])

    def read_vector(tag: str) -> np.ndarray:
        head = next_line().split()
        assert head[0] == tag, f"expected {tag}, got {head[0]}"
        count = int(head[1])
        return np.array([float(next_line()) for _ in range(count)])

    def read_matrix(head: list[str]) -> sp.csr_matrix:
        rows_n, cols_n, nnz = int(head[1]), int(head[2]), int(head[3])
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            i, j, v = next_line().split()
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(v))
        return sp.csr_matrix((vals, (rows, cols)), shape=(rows_n, cols_n))

    prog = ConicProgram(c=read_vector("c"))
    prog.obj_offset = float(next_line().split()[1])
    scaling_parts = {}
    while pos < len(tokens):
        line = tokens[pos]
        if not line.strip():
            pos += 1
            continue
        tag = line.split()[0]
        if tag == "P":
            prog.P = read_matrix(next_line().split())
        elif tag == "A":
            prog.A = read_matrix(next_line().split())
            prog.b = read_vector("b")
        elif tag == "G":
            prog.G = read_matrix(next_line().split())
            prog.h = read_vector("h")
        elif tag == "cones":
            parts = next_line().split()[1:]
            prog.cones = [ConeBlock(kind=p.split(":")[0], dim=int(p.split(":")[1]))
                          for p in parts]
        elif tag in ("scale_offset", "scale_half"):
            scaling_parts[tag] = read_vector(tag)
        else:
            raise ValueError(f"unknown section {tag!r}")
    if scaling_parts:
        prog.scaling = VariableScaling(offset=scaling_parts["scale_offset"],
                                       half_range=scaling_parts["scale_half"])
    prog.validate()
    return prog
