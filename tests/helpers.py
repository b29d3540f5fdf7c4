"""Shared numerical test utilities: finite differences, random states, a cone
layout and its blocks, a recorder of SuperLU calls, and the references and
oracles the kernels are tested against: SuperLU's LU, the aero model at
one angle of attack, the KKT residuals of a solution, the numpy cone
algebra that the compiled one (``conic/cones.c``) replaced, the numpy
-(W^2 + reg I) values and ``np.unique`` KKT pattern that the IPM's kernel
calls replaced, the scipy scaling and equilibration of a program that
the build's pass over its blocks' values replaced, the whole symmetric
matrix of an upper triangle (the IPM stores only that triangle of its KKT
matrix), the scipy stage ordering, the up-looking LDL' that walks the
elimination tree for every row, in Python, and the numpy and
scipy refined KKT solve, Newton direction and residuals that the IPM's
``kkt_solve``, ``kkt_direction`` and ``ipm_residuals`` replaced; the
IPM's session of a program; the Python wrappers of the cone algebra, of
``kkt_solve`` and of ``kkt_direction`` that the IPM called before
``ipm_factor``, ``ipm_predictor`` and ``ipm_corrector``, with the NT
scaling and the factorization it took in Python, and the IPM iteration
they replaced, composed of those wrappers."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlv_landing.conic import Cones, ConicProgram, SolverSolution, ipm, ldl
from rlv_landing.env import T_EPS, V_EPS, DegenerateStateError
from rlv_landing.params import VehicleParams

# Three orthant rows, then two SOC blocks: rows 0-2 orthant, 3-5 and 6-8
# SOC.
MULTI_BLOCK_CONES = Cones(3, 2, 3)


def cone_blocks(cones):
    """The blocks of the layout ``cones`` top to bottom, as (soc, rows):
    its orthant rows as one block, unless it has none, then each SOC block
    of d rows. The tests' per-block loops read the layout through it."""
    if cones.n_nn:
        yield False, np.arange(cones.n_nn)
    for start in range(cones.n_nn, cones.dim, cones.d):
        yield True, np.arange(start, start + cones.d)


@contextmanager
def splu_calls():
    """The list of the ``scipy.sparse.linalg.splu`` calls made inside the
    block, each as its keyword arguments."""
    calls, splu = [], spla.splu

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    with mock.patch.object(spla, "splu", counted):
        yield calls


def superlu(K, natural=False):
    """SuperLU's LU of a symmetric quasi-definite K, pivots on the diagonal
    while they are nonzero, ordered by minimum degree on K' + K or, with
    ``natural``, in K's own order: the reference the LDL' kernel's fill and
    accuracy are tested against."""
    return spla.splu(K, permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def flat_arrays(held):
    """Every numpy array in a nest of dicts, tuples and lists."""
    if isinstance(held, np.ndarray):
        return [held]
    if isinstance(held, dict):
        held = list(held.values())
    if isinstance(held, (tuple, list)):
        return [a for part in held for a in flat_arrays(part)]
    return []


def central_diff_jacobian(fun, x, eps_scale=1e-6):
    """Central finite-difference Jacobian of fun: R^n -> R^m at x."""
    x = np.asarray(x, float)
    f0 = np.atleast_1d(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        eps = eps_scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        J[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2 * eps)
    return J


def rel_jac_error(J_analytic, J_fd):
    """Max entry error relative to the Jacobian magnitude (floor 1)."""
    J_analytic = np.asarray(J_analytic, float)
    scale = max(1.0, np.abs(J_analytic).max())
    return np.abs(J_analytic - J_fd).max() / scale


def random_planner_node(rng, vp: VehicleParams) -> np.ndarray:
    """Random z = (r, v, m, T, Gamma) in the flight envelope, generic alpha."""
    r = np.array([rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                  -rng.uniform(500, 8000)])
    speed = rng.uniform(30, 400)
    v_dir = _random_unit(rng)
    v_dir[2] = abs(v_dir[2])          # descending
    v = speed * v_dir / np.linalg.norm(v_dir)
    m = rng.uniform(26000, vp.m0)
    # Thrust roughly retro with a generic off-axis component.
    t_dir = -v / speed + 0.4 * _random_unit(rng)
    t_dir /= np.linalg.norm(t_dir)
    T = rng.uniform(0.5, 0.95) * vp.T_max * t_dir
    Gamma = np.linalg.norm(T) * rng.uniform(1.0, 1.1)
    return np.concatenate([r, v, [m], T, [Gamma]])


def _random_unit(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


@dataclass(frozen=True)
class AeroCoefficients:
    C_L: float
    C_D: float
    C_z: float
    C_L_comp: float


def total_aoa(T: np.ndarray, v: np.ndarray) -> float:
    """Total angle of attack between the thrust line and -v, in [0, pi]."""
    T = np.asarray(T, float)
    v = np.asarray(v, float)
    nT = np.linalg.norm(T)
    nv = np.linalg.norm(v)
    if nT <= T_EPS or nv <= T_EPS:
        raise DegenerateStateError("degenerate direction: zero-norm input")
    w = np.linalg.norm(np.cross(T, v))
    return math.atan2(w, -float(T @ v))


def compensated_lift_coeff(C_L: float, C_D: float, alpha_T: float,
                           l_cp: float, l_c: float) -> float:
    """Lift coefficient reduced by the steady TVC trim deflection."""
    if l_c <= 0.0:
        raise DegenerateStateError("hinge arm must be positive")
    C_z = C_L * math.cos(alpha_T) + C_D * math.sin(alpha_T)
    return C_L - (l_cp / l_c) * C_z


def aero_coefficients(alpha_T: float, vp: VehicleParams) -> AeroCoefficients:
    """Evaluate the synthetic coefficient model at a total angle of attack."""
    C_L = vp.C_L_alpha * alpha_T
    C_D = vp.C_D0 + vp.C_D2 * alpha_T * alpha_T
    C_z = C_L * math.cos(alpha_T) + C_D * math.sin(alpha_T)
    C_L_comp = compensated_lift_coeff(C_L, C_D, alpha_T, vp.l_cp, vp.l_c)
    return AeroCoefficients(C_L=C_L, C_D=C_D, C_z=C_z, C_L_comp=C_L_comp)


def lift_force(T: np.ndarray, v: np.ndarray, rho: float, s_ref: float,
               slope: float) -> np.ndarray:
    """Lift force for a given effective slope; zero when thrust is off."""
    T = np.asarray(T, float)
    v = np.asarray(v, float)
    nT = np.linalg.norm(T)
    nv = np.linalg.norm(v)
    if nT <= T_EPS or nv < V_EPS or rho <= 0.0:
        return np.zeros(3)
    q_bar = 0.5 * rho * nv * nv
    direction = ((T @ v) * v - nv * nv * T) / (nT * nv * nv)
    return q_bar * s_ref * slope * direction


@dataclass(frozen=True)
class KktReport:
    stationarity: float      # ||P x + c + A' y + G' z||_inf
    primal_eq: float         # ||A x - b||_inf
    primal_cone: float       # ||G x + s - h||_inf plus cone violation of s
    dual_cone: float         # cone violation of z
    complementarity: float   # |s' z|

    @property
    def worst(self) -> float:
        return max(self.stationarity, self.primal_eq, self.primal_cone,
                   self.dual_cone, self.complementarity)


def verify_kkt(program: ConicProgram, solution: SolverSolution) -> KktReport:
    """Residual norms of the KKT conditions at the given solution."""
    def cone_violation(u):
        return max(program.cones.interior_violation(u), 0.0)

    x = solution.x
    stat = np.asarray(program.c, float) + program.P @ x \
        + program.A.T @ solution.y + program.G.T @ solution.z
    h = np.asarray(program.h)
    s = solution.s if solution.s is not None else h - program.G @ x
    primal_cone = max(
        float(np.abs(program.G @ x + s - h).max(initial=0.0)),
        cone_violation(s))
    return KktReport(
        stationarity=float(np.abs(stat).max(initial=0.0)),
        primal_eq=float(np.abs(program.A @ x - program.b).max(initial=0.0)),
        primal_cone=primal_cone,
        dual_cone=cone_violation(solution.z),
        complementarity=abs(float(s @ solution.z)),
    )


# The numpy cone algebra that ``conic/cones.c`` replaced, kept as the
# kernel's oracle: each function is the numpy code of the entry point it is
# named after, over a ``Cones`` layout, with numpy's warnings silenced.
# (The NT scaling's is ``nt_reference`` in test_solver.py.)

def _join(nn, soc):
    return np.concatenate([nn, soc.reshape(-1)])


@np.errstate(all="ignore")
def numpy_points(cones, u):
    """``cone_points``: the J-norm squares, J-norms, normalized blocks and
    violations of the stack u (k, dim)."""
    nn, b = cones.split(u)
    tail_sq = np.add.reduce(b[..., 1:] ** 2, axis=-1)
    norm_sq = b[..., 0] ** 2 - tail_sq
    norm = np.sqrt(np.maximum(norm_sq, 1e-300))
    worst = [-np.inf] * len(u)
    margin = np.sqrt(tail_sq) - b[..., 0]
    for part in (-nn.min(axis=1, initial=np.inf),
                 margin.max(axis=-1, initial=-np.inf)):
        worst = [max(w, v) for w, v in zip(worst, part.tolist())]
    return norm_sq, norm, b / norm[..., None], worst


@np.errstate(all="ignore")
def numpy_max_steps(cones, u, du):
    """``cone_max_steps``: the step of each point of the stack u along its
    direction in du."""
    _, norm, ubar, _ = numpy_points(cones, u)
    nn, _ = cones.split(u)
    dn, d_soc = cones.split(du)
    ratio = np.divide(-nn, dn, out=np.full(dn.shape, np.inf), where=dn < 0)
    alpha = ratio.min(axis=1, initial=np.inf).tolist()
    dbar = d_soc / norm[..., None]
    rho0 = ubar[..., 0] * dbar[..., 0] \
        - np.add.reduce(ubar[..., 1:] * dbar[..., 1:], axis=-1)
    rho1 = dbar[..., 1:] - ubar[..., 1:] \
        * ((rho0 + dbar[..., 0]) / (ubar[..., 0] + 1.0))[..., None]
    worst = np.sqrt(np.add.reduce(rho1 * rho1, axis=-1)) - rho0
    for i, w in enumerate(worst.max(axis=-1, initial=-np.inf).tolist()):
        if w > 0.0:
            alpha[i] = min(alpha[i], 1.0 / w)
    return alpha


def nt_apply(cones, w_nn, mats, u):
    """W u, for the NT scaling's orthant diagonal and SOC block stack."""
    u_nn, u_soc = cones.split(u)
    return _join(w_nn * u_nn, np.einsum("nij,nj->ni", mats, u_soc))


@np.errstate(all="ignore")
def numpy_rhs(cones, w_nn, mats, lam, d):
    """``cone_rhs``: W (lam \\ d), lam o x = d solved blockwise."""
    norm_sq = numpy_points(cones, lam[None])[0][0]
    (d_nn, db), (l_nn, lb) = cones.split(d), cones.split(lam)
    x = np.empty_like(db)
    x[:, 0] = (lb[:, 0] * db[:, 0]
               - np.add.reduce(lb[:, 1:] * db[:, 1:], axis=1)) / norm_sq
    x[:, 1:] = (db[:, 1:] - x[:, :1] * lb[:, 1:]) / lb[:, :1]
    return nt_apply(cones, w_nn, mats, _join(d_nn / l_nn, x))


def _soc_product(ub, vb):
    out = np.empty_like(ub)
    out[:, 0] = np.add.reduce(ub * vb, axis=1)
    out[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out


@np.errstate(all="ignore")
def numpy_product(cones, u, v):
    """``cone_product``: the Jordan product u o v."""
    (u_nn, u_soc), (v_nn, v_soc) = cones.split(u), cones.split(v)
    return _join(u_nn * v_nn, _soc_product(u_soc, v_soc))


@np.errstate(all="ignore")
def numpy_scaled_product(cones, w_nn, mats, inv, u, v):
    """``cone_scaled_product``: (W^{-1} u) o (W v)."""
    (u_nn, u_soc), (v_nn, v_soc) = cones.split(u), cones.split(v)
    return _join((u_nn / w_nn) * (w_nn * v_nn),
                 _soc_product(np.einsum("nij,nj->ni", inv, u_soc),
                              np.einsum("nij,nj->ni", mats, v_soc)))


@np.errstate(all="ignore")
def numpy_clip_eigenvalues(cones, v, lo, hi):
    """``cone_clip_eigenvalues``: v's spectral values clipped to [lo, hi]."""
    v_nn, vb = cones.split(v)
    nv1 = np.sqrt(np.add.reduce(vb[:, 1:] ** 2, axis=1))
    e1 = (vb[:, 0] + nv1).clip(lo, hi)
    e2 = (vb[:, 0] - nv1).clip(lo, hi)
    out = np.empty_like(vb)
    out[:, 0] = 0.5 * (e1 + e2)
    unit = np.divide(vb[:, 1:], nv1[:, None], out=np.zeros_like(vb[:, 1:]),
                     where=nv1[:, None] > 1e-300)
    out[:, 1:] = 0.5 * (e1 - e2)[:, None] * unit
    return _join(v_nn.clip(lo, hi), out)


def same_bits(a, b, signed_zeros=True) -> bool:
    """Whether a and b hold the same float64 values to the bit, every NaN
    read as one NaN: numpy does not fix a NaN's sign or payload. Without
    ``signed_zeros``, -0.0 reads as 0.0 too, for a minimum or maximum, in
    which numpy returns either of two tied zeros."""
    a, b = (np.array(x, dtype=np.float64) for x in (a, b))
    for x in (a, b):
        x[np.isnan(x)] = np.nan
        if not signed_zeros:
            x[x == 0.0] = 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The assembly and scaling that the planner's build template and the
# IPM's kernel library replaced, kept as their oracle.

def coo_csr(entries, shape):
    """CSR matrix from (rows, cols, vals) triples, each broadcast to a
    common shape, by scipy's COO conversion: every position is stored, zero
    values included, and repeated positions are summed."""
    flat = [[x.ravel() for x in np.broadcast_arrays(*e)] for e in entries]
    rows, cols, vals = (np.concatenate(part) for part in zip(*flat))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def scipy_scale_program(program: ConicProgram, record) -> ConicProgram:
    """The program in the variables ``record`` scales, rewritten in place
    on scipy matrices, P and the objective included: the scaling the
    planner's build made before it worked on its blocks' values
    (``conic.scaling.scale_program``), kept as its bit-for-bit oracle."""
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
    program.A = scipy_scale_columns(A, half)
    program.G = scipy_scale_columns(G, half)
    return program


def scipy_scale_columns(M: sp.csr_matrix, half: np.ndarray) -> sp.csr_matrix:
    """M times diag(half), each row stored in reverse order."""
    rows = _rows(M)
    flip = M.indptr[rows] + M.indptr[rows + 1] - 1 - np.arange(rows.size)
    indices = M.indices[flip]
    return _with_data(M, M.data[flip] * half[indices], indices)


def scipy_equilibrate_rows(program: ConicProgram) -> ConicProgram:
    """The program's constraint rows normalized to unit infinity-norm, in
    place on scipy matrices, one scalar per SOC block: the oracle of
    ``conic.scaling.equilibrate_rows``."""
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


def w2_entries(scaling, reg):
    """The values of W^2 + reg I, orthant diagonal then each SOC block row
    by row, as the IPM formed them in numpy; the KKT holds their negation
    (``cone_w2_scatter``)."""
    d = scaling.cones.d
    blocks = scaling.soc_sq.copy()
    blocks[:, np.arange(d), np.arange(d)] += reg
    return np.concatenate([scaling.w_nn ** 2 + reg, blocks.reshape(-1)])


def unique_pattern(rows, cols, n):
    """``ldl.csc_pattern``'s results by ``np.unique`` over every entry's
    key, as the IPM's analysis formed them: indptr, indices and slots."""
    keys, slots = np.unique(cols.astype(np.int64) * n + rows,
                            return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return (indptr.astype(np.intc), (keys % n).astype(np.intc),
            slots.astype(np.intc))


def scipy_stage_order(A, G, stage, variables_first=False):
    """``ipm._stage_order`` by scipy, as the IPM formed it before it summed
    each row's inner stages with ``np.bincount``: the rows of [A; G]
    times the stages of the columns outside the last stage, and times
    their indicator, in one sparse product."""
    n = A.shape[1]
    stage = np.zeros(n) if stage is None else np.asarray(stage, float)
    last = stage.max(initial=0.0)
    inner = stage < last
    rows = sp.vstack([A, G], format="csr")
    touched = sp.csr_matrix((np.ones(rows.nnz), rows.indices, rows.indptr),
                            shape=rows.shape) @ np.column_stack(
        [stage * inner, inner])
    row_stage = np.full(rows.shape[0], last)
    np.divide(touched[:, 0], touched[:, 1], out=row_stage,
              where=touched[:, 1] > 0)
    is_variable = np.arange(n + rows.shape[0]) < n
    return np.lexsort((is_variable != variables_first,
                       np.concatenate([stage, row_stage])))


def symmetric(indptr, indices, values):
    """The whole symmetric matrix, in CSC, whose upper triangle is the CSC
    matrix (indptr, indices, values): the upper triangle plus its strict
    part transposed, each value stored as it is. The oracle of
    ``ldl.Factors.product``: its product is scipy's with this matrix."""
    n = len(indptr) - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    strict = indices < cols
    return sp.csc_matrix(
        (np.concatenate([values, values[strict]]),
         (np.concatenate([indices, cols[strict]]),
          np.concatenate([cols, indices[strict]]))), shape=(n, n))


def kkt_matrix(session):
    """The whole KKT matrix of the IPM's session (``ipm._Session``), in its
    own ordering, from the upper triangle it stores."""
    a = session.analysis
    return symmetric(a.indptr, a.indices, session.Kx)


def tree_walking_ldl(indptr, indices, values, reg):
    """The up-looking LDL' of an upper-triangular CSC matrix that finds the
    pattern of each row of L by walking the elimination tree from that
    row's entries, as the compiled kernel did before its symbolic pass,
    with the same floating-point operations in the same order, and the
    kernel's rule at a pivot that is exactly zero: it takes ``reg`` of its
    row. Returns L's row indices (-1 where unwritten) and values, D (NaN
    where unwritten) and the kernel's result: the number of positive
    pivots, or -1 at the first NaN pivot (or zero one with a zero reg)."""
    n = len(indptr) - 1
    parent, count, flag = [-1] * n, [0] * n, [-1] * n
    for j in range(n):
        flag[j] = j
        for p in range(indptr[j], indptr[j + 1]):
            i = int(indices[p])
            while flag[i] != j:
                if parent[i] == -1:
                    parent[i] = j
                count[i] += 1
                flag[i] = j
                i = parent[i]
    Lp = np.concatenate([[0], np.cumsum(count)]).astype(int).tolist()
    Li, Lx, D = [-1] * Lp[-1], [math.nan] * Lp[-1], [math.nan] * n
    y, filled, flag = [0.0] * n, [0] * n, [-1] * n
    positive = 0
    for k in range(n):
        pattern = []                # topological: the last path first
        flag[k] = k
        for p in range(indptr[k], indptr[k + 1]):
            i = int(indices[p])
            y[i] += float(values[p])
            path = []
            while flag[i] != k:
                path.append(i)
                flag[i] = k
                i = parent[i]
            pattern = path + pattern
        d, y[k] = y[k], 0.0
        for i in pattern:
            yi, y[i] = y[i], 0.0
            end = Lp[i] + filled[i]
            for p in range(Lp[i], end):
                y[Li[p]] -= Lx[p] * yi
            lki = yi / D[i]
            d -= lki * yi
            Li[end], Lx[end] = k, lki
            filled[i] += 1
        if d == 0.0:
            d = float(reg[k])
        if not (d > 0.0 or d < 0.0):
            positive = -1
            break
        D[k] = d
        positive += d > 0.0
    return np.array(Li, np.intc), np.array(Lx), np.array(D), positive


# The IPM's KKT solve, Newton direction and residuals as numpy and scipy
# computed them, the oracles of ``kkt_solve``, ``kkt_direction`` and
# ``ipm_residuals`` in ``conic/ldl.c``.

def _norm_inf(v):
    return float(np.abs(v).max()) if v.size else 0.0


def ldl_solve(session, rhs):
    """The solution of L D L' x = rhs (in K's ordering) with the factors of
    the session's K, in a new array."""
    a, x = session.analysis, np.array(rhs, dtype=np.float64)
    ldl._library().ldl_solve(x.size, *map(ldl._address, (
        a.Lp, session.Li, session.Lx, session.D, x)))
    return x


def kkt_product(session, x):
    """K x (in K's ordering) for the session's K, by ``ldl_symv``."""
    a = session.analysis
    return ldl.Factors(a.indptr, a.indices, a.Lp, a.Rp, a.Ri).product(
        session.Kx, x)


@np.errstate(all="ignore")
def numpy_kkt_solve(session, rhs, tol, steps=2):
    """``kkt_solve``: the solve with the session's factors in K's
    ordering, refined against K less diag(reg) while the residual is above
    ``tol * max(1, |rhs|_inf)`` and each step lowers it, at most ``steps``
    times (``ipm.REFINE_STEPS``). Returns the solution and the number of
    LDL' solves."""
    rhs = rhs[session.analysis.order]

    def residual(sol):
        r = rhs - (kkt_product(session, sol) - session.reg_sign * sol)
        return r, _norm_inf(r)

    sol = ldl_solve(session, rhs)
    solves = 1
    r, size = residual(sol)
    target = tol * max(1.0, _norm_inf(rhs))
    for _ in range(steps):
        if not size > target:
            break
        refined = sol + ldl_solve(session, r)
        solves += 1
        r_refined, size_refined = residual(refined)
        if not size_refined < size:
            break
        sol, r, size = refined, r_refined, size_refined
    return sol[session.analysis.position], solves


@np.errstate(all="ignore")
def numpy_direction(session, scaling, G, r_dual, r_eq, r_ineq, v, tol,
                    steps=2):
    """``kkt_direction``: the solve of [-r_dual; -r_eq; -r_ineq +
    W (lam \\ v)] (``numpy_rhs``) to ``tol``, and ds = -r_ineq - G dx.
    Returns (dx, dy, dz, ds) and the number of LDL' solves."""
    n, me = r_dual.size, r_eq.size
    cone = numpy_rhs(scaling.cones, scaling.w_nn, scaling.soc_mats,
                     scaling.lam.u[0], v)
    sol, solves = numpy_kkt_solve(
        session, np.concatenate([-r_dual, -r_eq, -r_ineq + cone]), tol,
        steps)
    dx = sol[:n]
    return (dx, sol[n:n + me], sol[n + me:], -r_ineq - G @ dx), solves


@np.errstate(all="ignore")
def numpy_residuals(P, A, G, c, b, h, x, y, z, s):
    """The IPM's residual evaluation (``ipm_residuals``) by scipy and
    numpy: P x; r_dual, r_eq and r_ineq; and the infinity norms of those."""
    Px, ATy, GTz = P @ x, A.T.tocsr() @ y, G.T.tocsr() @ z
    r_dual = Px + c + ATy + GTz
    r_eq = A @ x - b
    r_ineq = G @ x + s - h
    vectors = r_dual, r_eq, r_ineq
    return Px, vectors, [_norm_inf(v) for v in vectors]


# The IPM's session of a program, and the Python wrappers of compiled
# entry points that the IPM called before ``ipm_factor``, ``ipm_predictor``
# and ``ipm_corrector`` took them over: the seams of the entry points'
# bit-for-bit tests and of the iteration's oracle. Each checks its arrays
# before any call (``ldl._checked``).

def ipm_session(prog, iterate=None, analysis=None):
    """The IPM's session of the program as ``ipm.solve`` makes it
    (``ipm._Session``), on a fresh analysis in the stage ordering or on
    ``analysis``, at a copy of the iterate (x, y, z, s), by default the
    cold start's (0, 0, e, e)."""
    P, A, G = (ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G))
    c, b, h = (np.ascontiguousarray(v, dtype=np.float64)
               for v in (prog.c, prog.b, prog.h))
    if iterate is None:
        e = prog.cones.identity()
        iterate = np.zeros(prog.n), np.zeros(b.size), e, e
    return ipm._Session(P, A, G, c, b, h, prog.cones,
                        [np.array(v, dtype=np.float64) for v in iterate],
                        analysis, prog.stage)


class NTScaling:
    """Nesterov-Todd scaling point: W z = W^{-1} s = lambda, W symmetric,
    as the IPM built it in Python before ``ipm_factor``.

    SOC blocks use W = eta * Wbar with
    Wbar = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]] built from the
    hyperbolic-unit vector wbar; the dense per-block matrices W, W^{-1} and
    W^2 are each one (n_soc, d, d) stack. It is built from the cone data
    of a point (s, z), ``Cones.points(s, z)``, by ``cone_nt_scaling`` in
    ``cones.c``, and holds lambda's cone data (``lam``).
    """

    def __init__(self, iterate):
        cones = self.cones = iterate.cones
        n_nn, n_soc, d = cones.shape
        u = ldl._checked("iterate", iterate.u, np.float64, 2, cones.dim)
        self.w_nn = np.empty(n_nn)
        self.soc_mats, self.soc_inv, self.soc_sq = np.empty((3, n_soc, d, d))
        lam = np.empty(cones.dim)
        ldl._library().cone_nt_scaling(
            *cones.shape, u, *iterate._addresses[1:],
            *map(ldl._address, (self.w_nn, self.soc_mats, self.soc_inv,
                                self.soc_sq, lam)))
        self.lam = cones.points(lam)


def factor(session, scaling):
    """The session's K factored at the NT scaling ``scaling`` as the IPM
    factored it before ``ipm_factor``: -(W^2 + reg I) written into K by
    ``cone_w2_scatter``, then the LDL' factorization. Raises
    ``RuntimeError`` at a NaN pivot."""
    cones, a = session.cones, session.analysis
    n_nn, n_soc, d = cones.shape
    scaled = (ldl._checked("w_nn", scaling.w_nn, np.float64, n_nn),
              ldl._checked("W^2", scaling.soc_sq, np.float64, n_soc, d, d))
    lib = ldl._library()
    lib.cone_w2_scatter(n_nn, n_soc, d, ipm.REG, *scaled,
                        *map(ldl._address, (a.w2_slots, session.Kx)))
    positive = lib.ldl_factor(a.order.size, *map(ldl._address, (
        a.indptr, a.indices, session.Kx, session.reg_sign, a.Lp, a.Rp, a.Ri,
        session.Li, session.Lx, session.D, session.iwork, session.work)))
    session.factored = positive >= 0
    if not session.factored:
        raise RuntimeError("the KKT factorization met a NaN pivot")


def _check_factored(session):
    if not session.factored:
        raise RuntimeError("no successful factorization to solve with")


def kkt_solve(session, rhs, tol):
    """``kkt_solve``: the solve of K x = rhs with the session's last
    factorization, in K's ordering, refined against the unregularized
    matrix while the residual is above ``tol * max(1, |rhs|_inf)``, at
    most ``ipm.REFINE_STEPS`` times; at ``tol = inf`` no step is taken, and
    no residual formed. Its LDL' solves count in ``session.ldl_solves``."""
    sol = np.empty(session.analysis.order.size)
    args = (ldl._checked("rhs", rhs, np.float64, sol.size),
            ldl._address(sol))
    _check_factored(session)
    session.ldl_solves += ldl._library().kkt_solve(session._context, tol,
                                                   *args)
    return sol


def kkt_direction(session, scaling, r_dual, r_eq, r_ineq, v):
    """``kkt_direction``: the Newton step (dx, dy, dz, ds) that cancels
    the residuals and sets lam o (W^{-1} ds + W dz) = -v, for the
    session's K factored at the NT scaling ``scaling``, which it writes
    where the call reads it (lambda, lambda's J-norm squares, w_nn and W):
    the solve of [-r_dual; -r_eq; -r_ineq + W (lam \\ v)] to
    ``ipm.REFINE_TOL``, and ds = -r_ineq - G dx. Its LDL' solves count in
    ``session.ldl_solves``."""
    n, me = session._sizes
    cones = session.cones
    if scaling.cones.shape != cones.shape:
        raise ValueError("the scaling is of another cone layout")
    sol, ds = np.empty(session.analysis.order.size), np.empty(cones.dim)
    args = (ldl._checked("r_dual", r_dual, np.float64, n),
            ldl._checked("r_eq", r_eq, np.float64, me),
            cones.address("r_ineq", r_ineq), cones.address("v", v),
            ldl._address(sol), ldl._address(ds))
    _check_factored(session)
    session.lam[0], session.w_nn[...] = scaling.lam.u[0], scaling.w_nn
    session.norm_sq[2], session.W[0] = scaling.lam.norm_sq[0], scaling.soc_mats
    session.ldl_solves += ldl._library().kkt_direction(session._context,
                                                       *args)
    return sol[:n], sol[n:n + me], sol[n + me:], ds


def max_steps(points, *du):
    """``cone_max_steps``: for each point u of ``points`` (a
    ``ConePoints``), inside the cones, and its direction du, the largest
    alpha with u + alpha du in the cones, all in one pass."""
    du = np.array(du)
    address = ldl._checked("du", du, np.float64, *points.u.shape)
    alpha = np.empty(len(points.u))
    ldl._library().cone_max_steps(len(points.u), *points.cones.shape,
                                  *points._addresses, address,
                                  ldl._address(alpha))
    return alpha.tolist()


def cone_product(cones, u, v):
    """``cone_product``: the Jordan product u o v."""
    args = cones.address("u", u), cones.address("v", v)
    out = np.empty(cones.dim)
    ldl._library().cone_product(*cones.shape, *args, ldl._address(out))
    return out


def clip_eigenvalues(cones, v, lo, hi):
    """``cone_clip_eigenvalues``: v's spectral values clipped to [lo, hi],
    the orthant rows directly, each SOC block's two Jordan eigenvalues
    v0 +/- ||v1|| reassembled."""
    address = cones.address("v", v)
    out = np.empty(cones.dim)
    ldl._library().cone_clip_eigenvalues(*cones.shape, lo, hi, address,
                                         ldl._address(out))
    return out


def scaled_product(scaling, u, v):
    """``cone_scaled_product``: (W^{-1} u) o (W v) at the NT scaling
    ``scaling`` (``NTScaling``)."""
    cones = scaling.cones
    args = cones.address("u", u), cones.address("v", v)
    out = np.empty(cones.dim)
    ldl._library().cone_scaled_product(
        *cones.shape, *map(ldl._address, (scaling.w_nn, scaling.soc_mats,
                                          scaling.soc_inv)),
        *args, ldl._address(out))
    return out


# The IPM's iteration from the iterate's cone data to its step, as
# ``ipm.solve`` ran it in Python on the wrappers above: the oracle of
# ``ipm_predictor`` and ``ipm_corrector`` and of ``ipm._Session.step``.

@dataclass
class Predicted:
    """What the predictor leaves the corrector: the iterate's cone data
    (a ``ConePoints``), its NT scaling (``NTScaling``), lam o lam,
    the affine direction (dx, dy, dz, ds) and the trial points
    (s + a_s ds, z + a_z dz)."""
    iterate: object
    scaling: object
    lam_sq: np.ndarray
    direction: tuple
    trial: tuple


@np.errstate(all="ignore")
def python_predictor(session, r, s, z):
    """The predictor at (s, z) with the residuals r = (r_dual, r_eq,
    r_ineq), factoring the session's K (``NTScaling``, ``factor``): (the
    LDL' solves, a ``Predicted``), or (``ipm.OFF_INTERIOR``, None) or
    (``ipm.NAN_PIVOT``, None)."""
    cones = session.cones
    iterate = cones.points(s, z)
    if any(v >= 0.0 for v in iterate.violations()):
        return ipm.OFF_INTERIOR, None
    scaling = NTScaling(iterate)
    lam = scaling.lam.u[0]
    lam_sq = cone_product(cones, lam, lam)
    try:
        factor(session, scaling)
    except RuntimeError:
        return ipm.NAN_PIVOT, None
    before = session.ldl_solves
    direction = kkt_direction(session, scaling, *r, lam_sq)
    _, _, dz_a, ds_a = direction
    ap_aff, ad_aff = (min(1.0, a) for a in max_steps(iterate, ds_a, dz_a))
    trial = s + ap_aff * ds_a, z + ad_aff * dz_a
    return session.ldl_solves - before, Predicted(iterate, scaling, lam_sq,
                                                  direction, trial)


@np.errstate(all="ignore")
def python_corrector(session, predicted, r, s, z, sigma, mu, common,
                     events=None):
    """The corrector at sigma and mu after ``python_predictor``: the step
    pair (alpha_p, alpha_d) and the direction (dx, dy, dz, ds), with the
    step lengths common when ``common`` (P has entries). It appends to
    ``events`` "nan step" for each pair of step lengths with a NaN, and
    each Gondzio round's end: "enough" (no round run), "accepted" or
    "rejected"."""
    events = [] if events is None else events
    cones, iterate = session.cones, predicted.iterate
    scaling = predicted.scaling
    n, me = session._sizes
    zeros = np.zeros(n), np.zeros(me), np.zeros(cones.dim)   # no residual

    def step_pair(ds_, dz_):
        steps = max_steps(iterate, ds_, dz_)
        if any(math.isnan(a) for a in steps):
            events.append("nan step")
        ap, ad = (min(1.0, ipm.STEP_DAMPING * a) for a in steps)
        if common:
            ap = ad = min(ap, ad)
        return ap, ad

    _, _, dz_a, ds_a = predicted.direction
    corr = scaled_product(scaling, ds_a, dz_a)
    dx, dy, dz, ds = kkt_direction(
        session, scaling, *r, predicted.lam_sq - sigma * mu * cones.identity()
        + corr)
    alpha_p, alpha_d = step_pair(ds, dz)
    mu_target = max(sigma * mu, ipm.GONDZIO_MU_FLOOR * mu)
    lo, hi = ipm.GONDZIO_BAND
    for _ in range(ipm.CENTRALITY_CORRECTORS):
        if min(alpha_p, alpha_d) > ipm.GONDZIO_ENOUGH:
            events.append("enough")
            break
        ap_t = min(1.0, ipm.GONDZIO_STRETCH * alpha_p + ipm.GONDZIO_LIFT)
        ad_t = min(1.0, ipm.GONDZIO_STRETCH * alpha_d + ipm.GONDZIO_LIFT)
        v_trial = scaled_product(scaling, s + ap_t * ds, z + ad_t * dz)
        target = clip_eigenvalues(cones, v_trial, lo * mu_target,
                                  hi * mu_target)
        dx_c, dy_c, dz_c, ds_c = kkt_direction(session, scaling, *zeros,
                                               v_trial - target)
        ap_new, ad_new = step_pair(ds + ds_c, dz + dz_c)
        if min(ap_new, ad_new) <= min(alpha_p, alpha_d) * ipm.GONDZIO_GAIN:
            events.append("rejected")
            break
        events.append("accepted")
        dx, dy, dz, ds = dx + dx_c, dy + dy_c, dz + dz_c, ds + ds_c
        alpha_p, alpha_d = ap_new, ad_new
    return (alpha_p, alpha_d), (dx, dy, dz, ds)


@np.errstate(all="ignore")
def python_cold_start(session, c, b, h):
    """``ipm._Session.cold_start`` as the IPM took it in Python, on the
    session's K: the NT scaling at (e, e) (``NTScaling``), the
    factorization (``factor``), the solve of [-c; b; h] at a tolerance of
    infinity (``kkt_solve``) and the shifts of its z part and that part's
    negation into the cones. Returns the start (x, y, z, s): (0, 0, e, e)
    if the factorization meets a NaN pivot."""
    cones, (n, me) = session.cones, session._sizes
    e = cones.identity()
    try:
        factor(session, NTScaling(cones.points(e, e)))
    except RuntimeError:
        return np.zeros(n), np.zeros(me), e, e
    init = kkt_solve(session, np.concatenate([-c, b, h]), math.inf)
    z0 = init[n + me:]
    return (init[:n], init[n:n + me], cones.shift_into_interior(z0.copy()),
            cones.shift_into_interior(-z0.copy()))


@np.errstate(all="ignore")
def python_step(session, r, s, z, gap, mu, common, events=None):
    """``ipm._Session.step``: the step pair and direction of the iteration
    at (s, z), whose s'z is ``gap``, with sigma from the trial points'
    s'z, or None if the gap is not positive or the predictor fails."""
    if gap <= 0.0:
        return None
    code, predicted = python_predictor(session, r, s, z)
    if code < 0:
        return None
    gap_aff = float(predicted.trial[0] @ predicted.trial[1])
    sigma = min((max(gap_aff, 0.0) / gap) ** 3, 1.0)
    return python_corrector(session, predicted, r, s, z, sigma, mu, common,
                            events)
