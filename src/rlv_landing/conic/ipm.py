"""Primal-dual interior-point solver for quadratic conic programs.

Mehrotra predictor-corrector path following with Nesterov-Todd scaling on
second-order cone blocks. The quadratic objective is kept natively in the
KKT system (no epigraph lift), so the same code path covers LPs, QPs and
SOCPs with quadratic cost:

    minimize    0.5 x' P x + c' x
    subject to  A x = b,  G x + s = h,  s in K.

Each iteration factorizes the KKT matrix

    [ P + eps I    A'          G'        ]
    [ A           -eps I       0         ]
    [ G            0          -(W'W + eps I) ]

followed by iterative refinement against the unregularized system. The
matrix is symmetric quasi-definite (a positive definite block, and the
negative of one, on the diagonal), so every symmetric permutation of it has
an LU factorization with the pivots on the diagonal, stable without row
pivoting (Vanderbei, SIAM J. Optim. 1995). SuperLU runs in symmetric mode
with no pivoting. K is stored permuted by a minimum-degree ordering of
A' + A, and each iteration writes only the -(W'W + eps I) values into that
fixed pattern and factors it in natural order; every KKT solve and its
refinement run in that ordering, with the residual from one product with
the stored matrix. The ordering comes from the first factorization of a
solve, or from the solution the solve starts from: a solve leaves its
analysis (ordering, permuted pattern, value slots) on its result, and a
warm solve whose P, A, G and cones have the start's pattern reuses it, so
a run of same-pattern SCP subproblems takes one ordering (the split of one
symbolic analysis and numeric refactorizations, as in Clarabel: Goulart &
Chen, arXiv:2405.12762). Cone algebra is vectorized over groups of
equal-dimension SOC blocks.

The initial point is either cold, from one KKT solve with W = I, or warm,
from ``program.start`` (the solution of a nearby program, such as the
previous SCP subproblem): x and y as they are, s and z moved into the cone
interior along the identity by at least WARM_SHIFT (Yildirim & Wright,
SIAM J. Optim. 2002). A start that is the solution of this same program
object, such as the inexact solve a full-tolerance re-solve follows, is
resumed: its s and z are kept, and moved only if they are not interior
(Skajaa, Andersen & Ye, Math. Prog. Comp. 2013). A start whose shapes do
not match the program is ignored, and the solve is then the same as a cold
one.

A call is one solve, with its numerics fixed by the constants below, as in
Clarabel; the caller chooses only the tolerances (``SolverSettings``). A
solve that ends without a verdict returns as it ended: nothing retries it
under other numerics.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .program import NONNEG, SOC, ConeBlock, ConicProgram, SolverSolution

# Primal residual above which a stalled solve is far from feasibility: the
# growth window calls it infeasible, and a stall nearer than this a
# numerical failure. Absolute, so a solve at a loose tolerance gets the same
# verdicts as one at the default 1e-8.
FAR_FROM_FEASIBLE = 1e-5
# Distance a warm start's s and z are moved inside the cones, for a start
# from another program (a start from the same program is resumed). On the
# nominal N=100 ignition-fit plan, warm starts alone took 136, 124, 117 and
# 117 IPM iterations at shifts of 1, 0.1, 0.01 and 0.001 (147 cold).
WARM_SHIFT = 1e-2
MAX_ITER = 100
REG = 1e-9                 # static regularization of the KKT system
REFINE_STEPS = 2           # refinement steps of each KKT solve
STEP_DAMPING = 0.99        # fraction of the step to the cone boundary taken
INFEAS_WINDOW = 10         # stalled iterations before the growth-window verdict
# Gondzio corrector rounds per iteration; they save 13 IPM iterations on the
# nominal N=100 ignition-fit plan.
CENTRALITY_CORRECTORS = 2
# Gap-tolerance factor accepted at a hard stall. On 129 benchmark plans
# (3 workloads: reference sets and 16 states each of seeds 5 and 6), it
# made 27 of 837 subproblem solves optimal.
STALL_ACCEPT = 50.0


@dataclass(frozen=True)
class SolverSettings:
    """The tolerances of a solve: the SCP loop solves at a loose one first
    and at the full one once its step is small. Every other number of the
    solver is a module constant."""

    tol_feas: float = 1e-8
    tol_gap: float = 1e-8


class _Cones:
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

    def shift_warm(self, u: np.ndarray) -> np.ndarray:
        """u moved WARM_SHIFT deep into the cones along the identity."""
        shift = max(WARM_SHIFT, self.interior_violation(u) + WARM_SHIFT)
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


class _NTScaling:
    """Nesterov-Todd scaling point: W z = W^{-1} s = lambda, W symmetric.

    SOC blocks use W = eta * Wbar with Wbar = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]]
    built from the hyperbolic-unit vector wbar; the dense per-block matrices
    are stacked per dimension group and reused for every apply.
    """

    def __init__(self, cones: _Cones, s: np.ndarray, z: np.ndarray):
        self.cones = cones
        self.w_nn = np.sqrt(s[cones.nn] / z[cones.nn]) if cones.nn.size else np.empty(0)
        self.soc_mats: dict[int, np.ndarray] = {}
        self.soc_inv: dict[int, np.ndarray] = {}
        self.soc_sq: dict[int, np.ndarray] = {}
        for d, idx in cones.soc.items():
            sb, zb = s[idx], z[idx]
            rs = np.sqrt(np.maximum(sb[:, 0] ** 2 - np.sum(sb[:, 1:] ** 2, axis=1), 1e-300))
            rz = np.sqrt(np.maximum(zb[:, 0] ** 2 - np.sum(zb[:, 1:] ** 2, axis=1), 1e-300))
            s_bar = sb / rs[:, None]
            z_bar = zb / rz[:, None]
            gamma = np.sqrt((1.0 + np.sum(s_bar * z_bar, axis=1)) / 2.0)
            wbar = np.empty_like(sb)
            wbar[:, 0] = (s_bar[:, 0] + z_bar[:, 0]) / (2 * gamma)
            wbar[:, 1:] = (s_bar[:, 1:] - z_bar[:, 1:]) / (2 * gamma[:, None])
            eta = np.sqrt(rs / rz)
            n = idx.shape[0]
            W = np.empty((n, d, d))
            W[:, 0, 0] = wbar[:, 0]
            W[:, 0, 1:] = wbar[:, 1:]
            W[:, 1:, 0] = wbar[:, 1:]
            outer = wbar[:, 1:, None] * wbar[:, None, 1:]
            W[:, 1:, 1:] = np.eye(d - 1) + outer / (1.0 + wbar[:, 0])[:, None, None]
            Wmat = eta[:, None, None] * W
            self.soc_mats[d] = Wmat
            # W^{-1} = J Wbar J / eta with J = diag(1, -I).
            Winv = W.copy()
            Winv[:, 0, 1:] *= -1.0
            Winv[:, 1:, 0] *= -1.0
            self.soc_inv[d] = Winv / eta[:, None, None]
            self.soc_sq[d] = np.einsum("nij,njk->nik", Wmat, Wmat)

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        cn = self.cones
        out[cn.nn] = self.w_nn * u[cn.nn]
        for d, idx in cn.soc.items():
            out.flat[idx] = np.einsum("nij,nj->ni", self.soc_mats[d], u[idx])
        return out

    def apply_sq(self, u: np.ndarray) -> np.ndarray:
        """W^2 u."""
        out = np.zeros_like(u)
        cn = self.cones
        out[cn.nn] = (self.w_nn ** 2) * u[cn.nn]
        for d, idx in cn.soc.items():
            out.flat[idx] = np.einsum("nij,nj->ni", self.soc_sq[d], u[idx])
        return out

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        cn = self.cones
        out[cn.nn] = u[cn.nn] / self.w_nn
        for d, idx in cn.soc.items():
            out.flat[idx] = np.einsum("nij,nj->ni", self.soc_inv[d], u[idx])
        return out

    def w2_entries(self, reg: float) -> np.ndarray:
        """Values of W^2 + reg I laid out to match the KKT sparsity pattern."""
        parts = [self.w_nn ** 2 + reg] if self.w_nn.size else []
        for d in self.cones.soc:
            blocks = self.soc_sq[d].copy()
            blocks[:, np.arange(d), np.arange(d)] += reg
            parts.append(blocks.reshape(-1))
        return np.concatenate(parts) if parts else np.empty(0)


def factor_quasidefinite(K: sp.csc_matrix, natural: bool = False):
    """Sparse LU of a symmetric quasi-definite matrix, pivots on the diagonal.

    The ordering is a minimum-degree ordering of A' + A, or, with
    ``natural``, none (for a matrix already permuted by one).
    """
    return spla.splu(K, permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _pattern(P, A, G, cones: _Cones) -> list[np.ndarray]:
    """What the KKT pattern is made of: the shapes, the CSR patterns of P,
    A and G, and the layout of the cones."""
    return [np.array([P.shape[0], A.shape[0], G.shape[0]]),
            P.indptr, P.indices, A.indptr, A.indices, G.indptr, G.indices,
            cones.nn, np.array(list(cones.soc)), *cones.soc.values()]


def _entries(P, A, G, cones: _Cones) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the KKT entries, unpermuted: the values of
    ``_Kkt``'s value vector (P, reg I, A', A, -reg I, G', G), then the
    -(W^2 + reg I) block in the order w2_entries emits them (nonneg
    diagonal, dense SOC blocks)."""
    n, me = P.shape[0], A.shape[0]

    def rows_of(M):
        return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))

    P_rows, A_rows, G_rows = rows_of(P), rows_of(A) + n, rows_of(G) + n + me
    diag_x, diag_y = np.arange(n), np.arange(n, n + me)
    w2_rows, w2_cols = [cones.nn + n + me], [cones.nn + n + me]
    for idx in cones.soc.values():
        shifted = idx + n + me
        w2_rows.append(np.repeat(shifted, idx.shape[1], axis=1).reshape(-1))
        w2_cols.append(np.tile(shifted, (1, idx.shape[1])).reshape(-1))
    rows = np.concatenate([P_rows, diag_x, A.indices, A_rows, diag_y,
                           G.indices, G_rows, *w2_rows])
    cols = np.concatenate([P.indices, diag_x, A_rows, A.indices, diag_y,
                           G_rows, G.indices, *w2_cols])
    return rows.astype(np.int64), cols.astype(np.int64)


@dataclass(frozen=True, eq=False)
class _Analysis:
    """The symbolic analysis of one KKT pattern, left on the solution for a
    later solve of a program with the same pattern: the ordering, the CSC
    pattern of K permuted by it, and the slot in that pattern of each value
    ``_Kkt`` writes (``value_slots``: P, reg I, A', A, -reg I, G', G;
    ``w2_slots``: -(W^2 + reg I)). It outlives the solve, so it holds only
    index arrays of its own: no LU, and nothing shared with a matrix that
    SuperLU was given."""

    pattern: list[np.ndarray]
    position: np.ndarray     # position[i]: where row/column i sits in K
    order: np.ndarray        # its inverse
    indptr: np.ndarray
    indices: np.ndarray
    value_slots: np.ndarray
    w2_slots: np.ndarray

    def matches(self, pattern: list[np.ndarray]) -> bool:
        return len(pattern) == len(self.pattern) and all(
            np.array_equal(a, b) for a, b in zip(pattern, self.pattern))


class _Kkt:
    """The KKT system of one solve, stored permuted by a fill-reducing
    ordering in a fixed CSC pattern.

    Only the -(W^2 + reg I) block changes between iterations; ``factor``
    writes its values into ``K.data`` through ``w2_slots``. Given an
    analysis of the same pattern, K is filled straight into its permuted
    pattern and every factorization is in natural order. Otherwise K is
    assembled, the first factorization takes a minimum-degree ordering, K
    is then stored permuted by it, and ``analysis`` keeps it for the next
    solve. ``solve`` works in K's ordering throughout.
    """

    def __init__(self, P, A, G, cones: _Cones,
                 analysis: _Analysis | None = None):
        P, A, G = P.tocsr(), A.tocsr(), G.tocsr()
        n, me = P.shape[0], A.shape[0]
        dim = n + me + G.shape[0]
        # REG * sign: K minus diag(reg_sign) is the unregularized matrix.
        self._reg_sign = np.concatenate([np.full(n, REG),
                                         np.full(dim - n, -REG)])
        values = np.concatenate([P.data, np.full(n, REG), A.data, A.data,
                                 np.full(me, -REG), G.data, G.data])
        pattern = _pattern(P, A, G, cones)
        self.reordered = False   # this solve took its own ordering
        if analysis is not None and analysis.matches(pattern):
            self._use(analysis, np.bincount(analysis.value_slots, values,
                                            analysis.indices.size),
                      analysis.indptr.copy(), analysis.indices.copy())
            return
        self.analysis = self.position = self.order = None
        rows, cols = _entries(P, A, G, cones)
        keys, slots = np.unique(cols * dim + rows, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
        self.K = sp.csc_matrix(
            (np.bincount(slots[:values.size], values, keys.size),
             (keys % dim).astype(np.intc), indptr.astype(np.intc)),
            shape=(dim, dim))
        self.w2_slots = slots[values.size:]
        self._unordered = pattern, slots

    def _use(self, analysis: _Analysis, data, indptr, indices) -> None:
        """Store K in the analysis's ordering, from its permuted values."""
        dim = analysis.position.size
        self.analysis = analysis
        self.position, self.order = analysis.position, analysis.order
        self.w2_slots = analysis.w2_slots
        self.K = sp.csc_matrix((data, indices, indptr), shape=(dim, dim))
        self._reg_sign = self._reg_sign[self.order]

    def factor(self, scaling: _NTScaling) -> None:
        """Refill the W^2 block from the NT scaling and factor K."""
        self.K.data[self.w2_slots] = -scaling.w2_entries(REG)
        if self.analysis is not None:
            self._lu_solve = factor_quasidefinite(self.K, natural=True).solve
            return
        lu = factor_quasidefinite(self.K)
        # A copy: perm_c is a view that would keep the LU alive.
        self._permute(np.array(lu.perm_c))
        # Not through self: a cycle would hold each solve's LU factors
        # until the cyclic garbage collector runs.
        position, order = self.position, self.order
        self._lu_solve = lambda rhs: lu.solve(rhs[position])[order]

    def _permute(self, position: np.ndarray) -> None:
        """Store K as K[order][:, order] and keep the analysis."""
        K, dim = self.K, self.K.shape[0]
        pattern, slots = self._unordered
        del self._unordered
        rows = position[K.indices].astype(np.int64)
        cols = position[np.repeat(np.arange(dim), np.diff(K.indptr))]
        cols = cols.astype(np.int64)
        moved = np.argsort(cols * dim + rows)
        slot = np.empty(moved.size, dtype=np.intc)
        slot[moved] = np.arange(moved.size)
        slots = slot[slots]
        n_values = slots.size - self.w2_slots.size
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=dim))]).astype(np.intc)
        indices = rows[moved].astype(np.intc)
        analysis = _Analysis(
            pattern=[np.array(a) for a in pattern], position=position,
            order=np.argsort(position).astype(np.intc), indptr=indptr.copy(),
            indices=indices.copy(), value_slots=slots[:n_values],
            w2_slots=slots[n_values:])
        self._use(analysis, K.data[moved], indptr, indices)
        self.reordered = True

    def solve(self, rhs: np.ndarray, refine_steps: int) -> np.ndarray:
        """Solve with the last factorization, refined against the
        unregularized matrix, all in K's ordering."""
        rhs = rhs[self.order]
        sol = self._lu_solve(rhs)
        for _ in range(refine_steps):
            sol = sol + self._lu_solve(
                rhs - (self.K @ sol - self._reg_sign * sol))
        return sol[self.position]


def solve_robust(program: ConicProgram,
                 settings: SolverSettings = SolverSettings()) -> SolverSolution:
    """``solve``, under the name that ``planbench/planning.py`` and
    ``planbench/spans.py`` still call; the next change to planbench deletes
    it. It calls ``solve`` through the module, so a wrapper of ``ipm.solve``
    sees every solve."""
    return solve(program, settings)


def solve(program: ConicProgram,
          settings: SolverSettings = SolverSettings()) -> SolverSolution:
    """Solve the conic program; deterministic for identical inputs."""
    program.validate()
    n = program.n
    c = np.asarray(program.c, float)
    P = program.P.tocsr() if program.P is not None else None
    A = program.A.tocsr() if program.A is not None else sp.csr_matrix((0, n))
    b = np.asarray(program.b, float) if program.b is not None else np.zeros(0)
    G = program.G.tocsr() if program.G is not None else sp.csr_matrix((0, n))
    h = np.asarray(program.h, float) if program.h is not None else np.zeros(0)
    me, mi = A.shape[0], G.shape[0]
    cones = _Cones(program.cones)

    if mi == 0:
        return _solve_equality_only(program, c, P, A, b, settings)

    P_eff = P if P is not None else sp.csr_matrix((n, n))
    AT, GT = A.T.tocsr(), G.T.tocsr()

    start = program.start
    warm = start is not None and all(
        v is not None and v.size == size
        for v, size in ((start.x, n), (start.y, me), (start.z, mi),
                        (start.s, mi)))
    resumed = warm and start._program is not None \
        and start._program() is program
    kkt = _Kkt(P_eff, A, G, cones, start._analysis if warm else None)
    if warm:
        x, y = start.x.copy(), start.y.copy()
        s, z = (u.copy() if resumed and cones.interior_violation(u) < 0
                else cones.shift_warm(u) for u in (start.s, start.z))
    else:
        # Cold: one KKT solve with W = I, then shift into the cones.
        ident = _NTScaling(cones, cones.identity(), cones.identity())
        kkt.factor(ident)
        init = kkt.solve(np.concatenate([-c, b, h]), refine_steps=0)
        x = init[:n]
        y = init[n:n + me]
        z0 = init[n + me:]
        s = cones.shift_into_interior(-z0.copy())
        z = cones.shift_into_interior(z0.copy())
        if cones.interior_violation(s) >= 0:
            s = cones.identity()
        if cones.interior_violation(z) >= 0:
            z = cones.identity()

    e = cones.identity()
    best_res = np.inf
    growth_count = 0
    status = "max_iter"
    iters = 0
    candidate = None
    candidate_score = np.inf
    polish_left = 3
    stall_count = 0
    mu_prev = np.inf

    for iteration in range(1, MAX_ITER + 1):
        iters = iteration
        r_dual = (P_eff @ x) + c + AT @ y + GT @ z
        r_eq = A @ x - b
        r_ineq = G @ x + s - h
        gap = float(s @ z)
        mu = gap / cones.degree
        pobj = program.objective_value(x)

        pres = max(_norm_inf(r_eq) / max(1.0, _norm_inf(b)),
                   _norm_inf(r_ineq) / max(1.0, _norm_inf(h)))
        dres = _norm_inf(r_dual) / max(1.0, _norm_inf(c))
        rel_gap = gap / max(1.0, abs(pobj))

        if not np.isfinite(pres + dres + gap):
            status = "numerical_failure"
            break
        gap_ok = mu < settings.tol_gap or rel_gap < 0.1 * settings.tol_gap
        if pres < settings.tol_feas and dres < settings.tol_feas and gap_ok:
            # Tolerances met: polish a few more iterations while the KKT
            # score keeps dropping, then return the best iterate.
            score = max(pres, dres, mu)
            if score < candidate_score:
                candidate = (x.copy(), y.copy(), z.copy(), s.copy())
                candidate_score = score
            polish_left -= 1
            if polish_left <= 0 or score < 1e-3 * settings.tol_feas:
                status = "optimal"
                break
        elif candidate is not None:
            status = "optimal"
            break

        # Infeasibility: approximate Farkas certificate carried by the duals,
        # confirmed after sustained lack of progress.
        dual_scale = max(_norm_inf(z), _norm_inf(y), 1.0)
        farkas_res = _norm_inf(AT @ y + GT @ z) / dual_scale
        farkas_gap = (float(b @ y) + float(h @ z)) / dual_scale
        certificate = farkas_res < 1e-8 and farkas_gap < -1e-10
        total_res = max(pres, dres, mu)
        if total_res < best_res * 0.999:
            best_res = total_res
            growth_count = 0
        else:
            growth_count += 1
        if certificate and (growth_count >= 3 or farkas_gap < -1e-6):
            status = "infeasible"
            break
        if growth_count >= INFEAS_WINDOW and mu > settings.tol_gap:
            status = "infeasible" if pres > FAR_FROM_FEASIBLE \
                else "numerical_failure"
            break
        if pobj < -1e14 and pres < 1e-6:
            status = "unbounded"
            break
        if max(np.abs(x).max(), np.abs(z).max(initial=0.0)) > 1e16:
            status = "infeasible"
            break

        if gap <= 0.0 or cones.interior_violation(s) >= 0.0 \
                or cones.interior_violation(z) >= 0.0:
            status = "numerical_failure"
            break

        scaling = _NTScaling(cones, s, z)
        lam = scaling.apply(z)
        try:
            kkt.factor(scaling)
        except RuntimeError:
            status = "numerical_failure"
            break

        # Predictor (affine) direction.
        d_s = cones.product(lam, lam)
        rhs = np.concatenate([-r_dual, -r_eq,
                              -r_ineq + scaling.apply(cones.divide(lam, d_s))])
        sol = kkt.solve(rhs, REFINE_STEPS)
        dx_a = sol[:n]
        dz_a = sol[n + me:]
        # Slack step from the primal row: keeps G x + s - h contracting
        # exactly even when the scaled-space formula would cancel.
        ds_a = -r_ineq - G @ dx_a

        ap_aff = min(1.0, cones.max_step(s, ds_a))
        ad_aff = min(1.0, cones.max_step(z, dz_a))
        gap_aff = float((s + ap_aff * ds_a) @ (z + ad_aff * dz_a))
        sigma = min((max(gap_aff, 0.0) / gap) ** 3, 1.0) if gap > 0 else 0.0

        # Corrector (combined) direction.
        corr = cones.product(scaling.apply_inv(ds_a), scaling.apply(dz_a))
        d_s = cones.product(lam, lam) - sigma * mu * e + corr
        rhs = np.concatenate([-r_dual, -r_eq,
                              -r_ineq + scaling.apply(cones.divide(lam, d_s))])
        sol = kkt.solve(rhs, REFINE_STEPS)
        dx, dy = sol[:n], sol[n:n + me]
        dz = sol[n + me:]
        ds = -r_ineq - G @ dx

        def step_pair(ds_, dz_):
            ap = min(1.0, STEP_DAMPING * cones.max_step(s, ds_))
            ad = min(1.0, STEP_DAMPING * cones.max_step(z, dz_))
            # With a quadratic term the P dx cross-coupling re-pollutes the
            # dual equation under split steps; use a common length then.
            if P is not None:
                ap = ad = min(ap, ad)
            return ap, ad

        def centrality_ok(ap, ad, ds_, dz_):
            """Keep iterates in a wide central-path neighborhood: the worst
            blockwise complementarity eigenvalue must not collapse relative
            to the mean, or the next NT scaling becomes unusable."""
            sn = s + ap * ds_
            zn = z + ad * dz_
            gap_n = float(sn @ zn)
            if gap_n <= 0:
                return False
            mu_n = gap_n / cones.degree
            # Cheap proxy: plain products for orthant rows, per-cone inner
            # products for SOC blocks.
            worst = np.inf
            if cones.nn.size:
                worst = min(worst, float((sn[cones.nn] * zn[cones.nn]).min()))
            for idx in cones.soc.values():
                worst = min(worst, float(np.sum(sn[idx] * zn[idx], axis=1).min()))
            return worst >= 1e-4 * mu_n

        alpha_p, alpha_d = step_pair(ds, dz)
        for _ in range(30):
            if centrality_ok(alpha_p, alpha_d, ds, dz) or \
                    max(alpha_p, alpha_d) < 1e-8:
                break
            alpha_p *= 0.8
            alpha_d *= 0.8

        # Gondzio centrality correctors: push outlier complementarity
        # products toward the target, accepting a corrector only when it
        # enlarges the step.
        mu_target = max(sigma * mu, 1e-2 * mu)
        for _ in range(CENTRALITY_CORRECTORS):
            if min(alpha_p, alpha_d) > 0.95:
                break
            ap_t = min(1.0, 1.5 * alpha_p + 0.3)
            ad_t = min(1.0, 1.5 * alpha_d + 0.3)
            v_trial = cones.product(scaling.apply_inv(s + ap_t * ds),
                                    scaling.apply(z + ad_t * dz))
            target = cones.clip_eigenvalues(v_trial, 0.1 * mu_target,
                                            10.0 * mu_target)
            d_corr = v_trial - target
            rhs_c = np.concatenate([np.zeros(n + me),
                                    scaling.apply(cones.divide(lam, d_corr))])
            sol_c = kkt.solve(rhs_c, REFINE_STEPS)
            dx_c = sol_c[:n]
            dz_c = sol_c[n + me:]
            ds_c = -G @ dx_c
            ap_new, ad_new = step_pair(ds + ds_c, dz + dz_c)
            if min(ap_new, ad_new) <= min(alpha_p, alpha_d) * 1.01:
                break
            dx = dx + dx_c
            dy = dy + sol_c[n:n + me]
            dz = dz + dz_c
            ds = ds + ds_c
            alpha_p, alpha_d = ap_new, ad_new

        # Hard stall: the direction no longer moves the iterate. When the
        # iterate is feasible to tolerance and the gap is within a bounded
        # factor of target, accept it (double-precision factorizations
        # cannot always close the last fraction on degenerate instances).
        if max(alpha_p, alpha_d) < 0.05 and mu > 0.9 * mu_prev:
            stall_count += 1
        else:
            stall_count = 0
        mu_prev = mu
        if stall_count >= 3 or not np.isfinite(alpha_p + alpha_d) \
                or max(alpha_p, alpha_d) < 1e-10:
            if pres < settings.tol_feas and dres < settings.tol_feas \
                    and mu < STALL_ACCEPT * settings.tol_gap:
                status = "optimal"
            else:
                status = "numerical_failure"
            break
        x = x + alpha_p * dx
        s = s + alpha_p * ds
        y = y + alpha_d * dy
        z = z + alpha_d * dz

    if candidate is not None:
        status = "optimal"
        x, y, z, s = candidate

    gap = float(s @ z)
    pobj = program.objective_value(x)
    r_eq = A @ x - b
    r_ineq = G @ x + s - h
    r_dual = (P_eff @ x) + c + AT @ y + GT @ z
    return SolverSolution(
        x=x, y=y, z=z, s=s, status=status, iterations=iters,
        objective=pobj, gap=gap,
        rel_gap=gap / max(1.0, abs(pobj)),
        primal_res=max(_norm_inf(r_eq) / max(1.0, _norm_inf(b)),
                       _norm_inf(r_ineq) / max(1.0, _norm_inf(h))),
        dual_res=_norm_inf(r_dual) / max(1.0, _norm_inf(c)), warm=warm,
        reordered=kkt.reordered, resumed=resumed, _analysis=kkt.analysis,
        _program=weakref.ref(program),
    )


def _solve_equality_only(program: ConicProgram, c, P, A, b,
                         settings: SolverSettings) -> SolverSolution:
    """Direct KKT solve when there are no cone constraints."""
    n = program.n
    me = A.shape[0]
    P_eff = P if P is not None else sp.csr_matrix((n, n))
    if me == 0 and P is None:
        status = "unbounded" if np.any(c != 0) else "optimal"
        return SolverSolution(x=np.zeros(n), y=np.zeros(0), z=np.zeros(0),
                              s=np.zeros(0), status=status, iterations=0,
                              objective=program.obj_offset, gap=0.0, rel_gap=0.0,
                              primal_res=0.0, dual_res=_norm_inf(c))
    cones = _Cones([])
    kkt = _Kkt(P_eff, A, sp.csr_matrix((0, n)), cones)
    try:
        kkt.factor(_NTScaling(cones, np.zeros(0), np.zeros(0)))
        sol = kkt.solve(np.concatenate([-c, b]), REFINE_STEPS)
    except RuntimeError:
        return SolverSolution(x=np.zeros(n), y=np.zeros(me), z=np.zeros(0),
                              s=np.zeros(0), status="numerical_failure",
                              iterations=1, objective=math.nan, gap=math.nan,
                              rel_gap=math.nan, primal_res=math.nan,
                              dual_res=math.nan, reordered=True)
    x, y = sol[:n], sol[n:]
    r_dual = (P_eff @ x) + c + A.T @ y
    pres = _norm_inf(A @ x - b) / max(1.0, _norm_inf(b))
    dres = _norm_inf(r_dual) / max(1.0, _norm_inf(c))
    ok = pres < settings.tol_feas * 100 and dres < settings.tol_feas * 100
    return SolverSolution(x=x, y=y, z=np.zeros(0), s=np.zeros(0),
                          status="optimal" if ok else "numerical_failure",
                          iterations=1, objective=program.objective_value(x),
                          gap=0.0, rel_gap=0.0, primal_res=pres, dual_res=dres,
                          reordered=kkt.reordered)


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0
