"""Primal-dual interior-point solver for quadratic conic programs.

Mehrotra predictor-corrector path following with Nesterov-Todd scaling on
second-order cone blocks. The quadratic objective is kept natively in the
KKT system (no epigraph lift), so the same code path covers LPs, QPs and
SOCPs with quadratic cost, each with at least one cone row:

    minimize    0.5 x' P x + c' x
    subject to  A x = b,  G x + s = h,  s in K.

Each iteration factorizes the KKT matrix

    [ P + eps I    A'          G'        ]
    [ A           -eps I       0         ]
    [ G            0          -(W'W + eps I) ]

The matrix is symmetric quasi-definite (a positive definite block, and the
negative of one, on the diagonal), so every symmetric permutation of it has
an LU factorization with the pivots on the diagonal, stable without row
pivoting (Vanderbei, SIAM J. Optim. 1995). SuperLU runs in symmetric mode
with no pivoting. K is stored one way, through an analysis (``_Analysis``):
K's CSC pattern permuted by a minimum-degree ordering of A' + A, into which
each iteration writes only the -(W'W + eps I) values to factor K in natural
order. The ordering comes from the solution the solve starts from, or else
from the solve's first factorization. A solve leaves its analysis on its
result, and a warm solve whose P, A, G and cones have the start's pattern
reuses it, so a run of same-pattern SCP subproblems takes one ordering (the
split of one symbolic analysis and numeric refactorizations, as in Clarabel:
Goulart & Chen, arXiv:2405.12762). The cone algebra is ``cones.Cones``, the
layout the program built once (``ConicProgram.layout``).

Each iteration forms its iterate's cone data once, ``Cones.points(s, z)``
(the blocks of s and z, their J-norms and normalized blocks), as ECOS and
Clarabel do (Domahidi, Chu & Boyd, ECC 2013). The interior test, the NT
scaling and every step length of the iteration read it, and each step
length takes s and z together in one pass. The scaling holds lambda's cone
data, which each direction's right-hand side W (lambda \\ d) reads.

SuperLU factors without supernode panels (``factor_quasidefinite``): at
about 12 nonzeros per factor column they cost more than they save (Demmel
et al., SIAM J. Matrix Anal. Appl. 1999), and without them a factorization
takes about 30% less time with the same fill. The settings are constants;
scipy 1.17.1 corrupts the heap at ``panel_size=64``.

A KKT solve is one LU solve, refined against the unregularized matrix only
while its residual is above a tolerance and each step lowers it, as in
Clarabel (``_Kkt.solve``). The IPM's directions are solved to REFINE_TOL,
since later iterations correct a direction's error; the cold start is not
refined (a tolerance of infinity).

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
Clarabel; the caller chooses only the tolerance ``tol``, which the scaled
primal and dual residuals and the gap must each meet. A solve that ends
without a verdict returns as it ended: nothing retries it under other
numerics.

A solve ends ``optimal`` (tolerance met: the best iterate of a few polish
iterations, also if the solve then stalls), ``infeasible`` (an approximate
Farkas certificate, or a stall far from feasibility), ``numerical_failure``
(a non-finite residual, an iterate off the cone interior, a failed
factorization or a stall near feasibility) or ``max_iter``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import ConePoints, Cones, soc_product
from .program import ConicProgram, SolverSolution
from .scaling import _rows

# Primal residual above which a stalled solve is far from feasibility:
# ``_stall_status`` calls it infeasible, and a stall nearer than this a
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
REFINE_STEPS = 2           # most refinement steps of a KKT solve
# Relative residual to which the IPM refines a direction. On 129 benchmark
# plans (3 workloads: reference sets and 16 states each of seeds 5 and 6),
# LU solves per KKT solve were 2.97 with two fixed steps, and 1.03, 1.33,
# 1.90 and 2.29 at 1e-6, 1e-8, 1e-10 and 1e-12. Clean converged plans went
# from 97 to 95, 97, 95 and 97: the looser rules lose plans at their last
# SCP iteration, and 1e-8 is the loosest that loses none.
REFINE_TOL = 1e-8
STEP_DAMPING = 0.99        # fraction of the step to the cone boundary taken
INFEAS_WINDOW = 10         # stalled iterations before the growth-window verdict
# Gondzio corrector rounds per iteration; they save 13 IPM iterations on the
# nominal N=100 ignition-fit plan.
CENTRALITY_CORRECTORS = 2


class _NTScaling:
    """Nesterov-Todd scaling point: W z = W^{-1} s = lambda, W symmetric.

    SOC blocks use W = eta * Wbar with Wbar = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]]
    built from the hyperbolic-unit vector wbar; the dense per-block matrices
    are stacked per dimension group and reused for every apply. It is built
    from the iterate's cone data, ``Cones.points(s, z)``, and holds lambda's
    (``lam``), which every direction of the iteration reads.
    """

    def __init__(self, iterate: ConePoints):
        cones = self.cones = iterate.cones
        s_nn, z_nn = iterate.nn
        self.w_nn = np.sqrt(s_nn / z_nn)
        self.soc_mats: dict[int, np.ndarray] = {}
        self.soc_inv: dict[int, np.ndarray] = {}
        self.soc_sq: dict[int, np.ndarray] = {}
        for d, idx in cones.soc.items():
            (rs, rz), (s_bar, z_bar) = iterate.norm[d], iterate.bar[d]
            gamma = np.sqrt((1.0 + np.add.reduce(s_bar * z_bar, axis=1)) / 2.0)
            wbar = np.empty_like(s_bar)
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
        self.lam = cones.points(self.apply(iterate.u[1]))

    def apply(self, u: np.ndarray) -> np.ndarray:
        cn = self.cones
        return cn.join(self.w_nn * u[cn.nn], {
            d: np.einsum("nij,nj->ni", self.soc_mats[d], u[idx])
            for d, idx in cn.soc.items()})

    def rhs(self, d: np.ndarray) -> np.ndarray:
        """W (lambda \\ d): the cone rows of a direction's right-hand side."""
        x_nn, x_soc = self.lam.divide(d)
        return self.cones.join(self.w_nn * x_nn, {
            dim: np.einsum("nij,nj->ni", self.soc_mats[dim], x)
            for dim, x in x_soc.items()})

    def scaled_product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(W^{-1} u) o (W v)."""
        cn = self.cones
        return cn.join((u[cn.nn] / self.w_nn) * (self.w_nn * v[cn.nn]), {
            d: soc_product(np.einsum("nij,nj->ni", self.soc_inv[d], u[idx]),
                           np.einsum("nij,nj->ni", self.soc_mats[d], v[idx]))
            for d, idx in cn.soc.items()})

    def w2_entries(self, reg: float) -> np.ndarray:
        """Values of W^2 + reg I laid out to match the KKT sparsity pattern."""
        parts = [self.w_nn ** 2 + reg]
        for d in self.cones.soc:
            blocks = self.soc_sq[d].copy()
            blocks[:, np.arange(d), np.arange(d)] += reg
            parts.append(blocks.reshape(-1))
        return np.concatenate(parts)


def factor_quasidefinite(K: sp.csc_matrix, natural: bool = False):
    """Sparse LU of a symmetric quasi-definite matrix, pivots on the diagonal.

    The ordering is a minimum-degree ordering of A' + A, or, with
    ``natural``, none (for a matrix already permuted by one).

    SuperLU runs with ``relax=1, panel_size=1``: no relaxed supernodes and
    one-column panels. The pivots and the fill (to one stored entry) stay
    those of scipy's defaults; only the order in which updates are added up
    changes, so answers move in their last bits. Both are constants: in
    scipy 1.17.1, ``panel_size=64`` corrupts the heap within 50
    factorizations of an N=30 KKT, which a tier-1 test checks.
    """
    # Chosen over relax x panel_size in {1, 2, 4, 8}^2 and the defaults, on
    # every IPM factorization of the nominal ignition-fit plans (N=100: 3 by
    # minimum degree, 66 in natural order; N=30: 2 and 41), 25 interleaved
    # rounds, one BLAS thread, 2-core host. panel_size=1 was fastest at every
    # relax. Factor time per plan, medians (quartiles), defaults -> (1, 1):
    # N=100 286 (253-300) -> 201 (153-213) ms, N=30 58.9 (56.8-61.0) -> 38.5
    # (31.9-41.7) ms. nnz(L) + nnz(U) stayed the same, but for one stored
    # entry in 3 of those plans' 116, projections included.
    return spla.splu(K, permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, relax=1, panel_size=1,
                     options=dict(SymmetricMode=True))


def _pattern(P, A, G, cones: Cones) -> list[np.ndarray]:
    """What the KKT pattern is made of: the shapes, the CSR patterns of P,
    A and G, and the layout of the cones."""
    return [np.array([P.shape[0], A.shape[0], G.shape[0]]),
            P.indptr, P.indices, A.indptr, A.indices, G.indptr, G.indices,
            cones.nn, np.array(list(cones.soc)), *cones.soc.values()]


def _entries(P, A, G, cones: Cones) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (int32) of the KKT entries, unpermuted: the values of
    ``_Kkt``'s value vector (P, reg I, A', A, -reg I, G', G), then the
    -(W^2 + reg I) block in the order w2_entries emits them (nonneg
    diagonal, dense SOC blocks)."""
    n, me = P.shape[0], A.shape[0]
    P_rows, A_rows, G_rows = _rows(P), _rows(A) + n, _rows(G) + n + me
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
    return rows.astype(np.intc), cols.astype(np.intc)


@dataclass(frozen=True, eq=False)
class _Analysis:
    """The symbolic analysis of one KKT pattern under one ordering, left on
    the solution for a later solve of the same pattern: the ordering, K's
    CSC pattern permuted by it, and the slot in it of each value ``_Kkt``
    writes (``value_slots``: P, reg I, A', A, -reg I, G', G; ``w2_slots``:
    -(W^2 + reg I)). It outlives the solve, so it holds only int32 index
    arrays of its own, none shared with a matrix SuperLU was given."""

    pattern: list[np.ndarray]
    position: np.ndarray     # position[i]: where row/column i sits in K
    order: np.ndarray        # its inverse
    indptr: np.ndarray
    indices: np.ndarray
    value_slots: np.ndarray
    w2_slots: np.ndarray

    @classmethod
    def of(cls, pattern, rows, cols, n_values: int, position) -> _Analysis:
        """The analysis of ``_entries``' rows and columns (the first
        ``n_values`` the value vector's) under the ordering ``position``."""
        # What the analysis keeps is allocated before the sort's temporaries,
        # so it lands below the first LU's SuperLU workspace (16 MB at N=100)
        # and the heap can shrink again when the solve ends.
        dim = position.size
        pattern = [np.array(a) for a in pattern]
        position = position.astype(np.intc)
        order = np.argsort(position).astype(np.intc)
        indptr = np.empty(dim + 1, np.intc)
        slots, indices = np.empty((2, rows.size), np.intc)
        keys, slots[:] = np.unique(
            position[cols].astype(np.int64) * dim + position[rows],
            return_inverse=True)
        indptr[:] = np.searchsorted(keys, np.arange(dim + 1) * dim)
        return cls(pattern, position, order, indptr,
                   np.remainder(keys, dim, out=indices[:keys.size]),
                   slots[:n_values], slots[n_values:])

    def matches(self, pattern: list[np.ndarray]) -> bool:
        return len(pattern) == len(self.pattern) and all(
            np.array_equal(a, b) for a, b in zip(pattern, self.pattern))


class _Kkt:
    """The KKT system of one solve, stored only through its ``analysis``.

    Only the -(W^2 + reg I) block changes between iterations; ``factor``
    writes it through ``w2_slots`` and factors K in natural order. Without
    an analysis of the same pattern, the first factorization is of K as
    scipy assembles it from ``_entries``, by minimum degree, and makes the
    analysis. ``solve`` works in K's ordering throughout.
    """

    def __init__(self, P, A, G, cones: Cones,
                 analysis: _Analysis | None = None):
        P, A, G = P.tocsr(), A.tocsr(), G.tocsr()
        n, me = P.shape[0], A.shape[0]
        dim = n + me + G.shape[0]
        # REG * sign: K minus diag(reg_sign) is the unregularized matrix.
        self._reg_sign = np.where(np.arange(dim) < n, REG, -REG)
        values = np.concatenate([P.data, np.full(n, REG), A.data, A.data,
                                 np.full(me, -REG), G.data, G.data])
        pattern = _pattern(P, A, G, cones)
        self.reordered = False   # this solve took its own ordering
        if analysis is not None and analysis.matches(pattern):
            self._use(analysis, values)
        else:
            # The entries, held until the first factorization succeeds.
            self.analysis = None
            self._fresh = pattern, values, *_entries(P, A, G, cones)

    def _use(self, analysis: _Analysis, values: np.ndarray) -> None:
        """Store K through the analysis, with the value vector's values."""
        self.analysis = analysis
        self.position, self.order = analysis.position, analysis.order
        self.K = sp.csc_matrix(
            (np.bincount(analysis.value_slots, values, analysis.indices.size),
             analysis.indices.copy(), analysis.indptr.copy()),
            shape=(self.position.size,) * 2)
        self._reg_sign = self._reg_sign[self.order]

    def factor(self, scaling: _NTScaling) -> None:
        """Refill the W^2 block from the NT scaling and factor K."""
        w2 = -scaling.w2_entries(REG)
        if self.analysis is not None:
            self.K.data[self.analysis.w2_slots] = w2
            self._lu_solve = factor_quasidefinite(self.K, natural=True).solve
            return
        pattern, values, rows, cols = self._fresh
        dim = self._reg_sign.size
        lu = factor_quasidefinite(sp.csc_matrix(
            (np.concatenate([values, w2]), (rows, cols)), shape=(dim, dim)))
        del self._fresh
        self._use(_Analysis.of(pattern, rows, cols, values.size, lu.perm_c),
                  values)
        self.K.data[self.analysis.w2_slots] = w2
        self.reordered = True
        # Not through self: a cycle would hold each solve's LU factors
        # until the cyclic garbage collector runs.
        position, order = self.position, self.order
        self._lu_solve = lambda rhs: lu.solve(rhs[position])[order]

    def solve(self, rhs: np.ndarray, tol: float) -> np.ndarray:
        """Solve with the last factorization, in K's ordering, refined
        against the unregularized matrix while the residual is above
        ``tol * max(1, |rhs|_inf)``, at most REFINE_STEPS times. A step
        that does not lower the residual is dropped and ends the
        refinement; at ``tol = inf`` none is taken."""
        rhs = rhs[self.order]

        def residual(sol):
            r = rhs - (self.K @ sol - self._reg_sign * sol)
            return r, _norm_inf(r)

        sol = self._lu_solve(rhs)
        r, size = residual(sol)
        target = tol * max(1.0, _norm_inf(rhs))
        for _ in range(REFINE_STEPS):
            if not size > target:
                break
            refined = sol + self._lu_solve(r)
            r_refined, size_refined = residual(refined)
            if not size_refined < size:
                break
            sol, r, size = refined, r_refined, size_refined
        return sol[self.position]


def solve_robust(program: ConicProgram, tol: float = 1e-8) -> SolverSolution:
    """``solve``, under the name that ``planbench/planning.py`` and
    ``planbench/spans.py`` still call; the next change to planbench deletes
    it. It calls ``solve`` through the module, so a wrapper of ``ipm.solve``
    sees every solve."""
    return solve(program, tol)


def solve(program: ConicProgram, tol: float = 1e-8) -> SolverSolution:
    """Solve the conic program to the tolerance ``tol``; deterministic for
    identical inputs. The SCP loop solves at a loose one first and at the
    full one once its step is small."""
    program.validate()
    n = program.n
    c = np.asarray(program.c, float)
    P, A, G = program.P.tocsr(), program.A.tocsr(), program.G.tocsr()
    b, h = np.asarray(program.b, float), np.asarray(program.h, float)
    me, mi = A.shape[0], G.shape[0]
    cones = program.layout
    AT, GT = A.T.tocsr(), G.T.tocsr()

    def residuals(x, y, z, s):
        """The KKT residuals, the scaled ones the tolerances judge, the
        objective, and A'y + G'z for the Farkas test: P x, A'y and G'z are
        each formed once."""
        Px, ATy, GTz = P @ x, AT @ y, GT @ z
        r_dual = Px + c + ATy + GTz
        r_eq = A @ x - b
        r_ineq = G @ x + s - h
        pres = max(_norm_inf(r_eq) / max(1.0, _norm_inf(b)),
                   _norm_inf(r_ineq) / max(1.0, _norm_inf(h)))
        dres = _norm_inf(r_dual) / max(1.0, _norm_inf(c))
        pobj = float(c @ x) + program.obj_offset + 0.5 * float(x @ Px)
        return r_dual, r_eq, r_ineq, pres, dres, pobj, ATy + GTz

    start = program.start
    warm = start is not None and all(
        v is not None and v.size == size
        for v, size in ((start.x, n), (start.y, me), (start.z, mi),
                        (start.s, mi)))
    resumed = warm and start._program is not None \
        and start._program() is program
    kkt = _Kkt(P, A, G, cones, start._analysis if warm else None)
    e = cones.identity()
    if warm:
        x, y = start.x.copy(), start.y.copy()
        s, z = (u.copy() if resumed and cones.interior_violation(u) < 0
                else cones.shift_warm(u, WARM_SHIFT)
                for u in (start.s, start.z))
    else:
        # Cold: one KKT solve with W = I, then shift into the cones. If the
        # factorization fails (a non-finite P, A or G), the solve starts
        # from (0, 0, e, e), and its first iteration ends it as the loop's
        # guards find it: a non-finite residual, or the same factorization.
        x, y, s, z = np.zeros(n), np.zeros(me), e, e
        try:
            kkt.factor(_NTScaling(cones.points(e, e)))
        except RuntimeError:
            pass
        else:
            init = kkt.solve(np.concatenate([-c, b, h]), math.inf)
            x = init[:n]
            y = init[n:n + me]
            z0 = init[n + me:]
            s = cones.shift_into_interior(-z0.copy())
            z = cones.shift_into_interior(z0.copy())

    best_res = np.inf
    growth_count = 0
    status = "max_iter"
    candidate = None
    candidate_score = np.inf
    polish_left = 3
    stall_count = 0
    mu_prev = np.inf

    for iteration in range(1, MAX_ITER + 1):
        r_dual, r_eq, r_ineq, pres, dres, pobj, dual_rows = \
            residuals(x, y, z, s)
        gap = float(s @ z)
        mu = gap / cones.degree
        rel_gap = gap / max(1.0, abs(pobj))

        if not np.isfinite(pres + dres + gap):
            status = "numerical_failure"
            break
        gap_ok = mu < tol or rel_gap < 0.1 * tol
        if pres < tol and dres < tol and gap_ok:
            # Tolerances met: polish a few more iterations while the KKT
            # score keeps dropping, then return the best iterate.
            score = max(pres, dres, mu)
            if score < candidate_score:
                candidate = (x.copy(), y.copy(), z.copy(), s.copy())
                candidate_score = score
            polish_left -= 1
            if polish_left <= 0 or score < 1e-3 * tol:
                status = "optimal"
                break

        # Infeasibility: approximate Farkas certificate carried by the duals,
        # confirmed after sustained lack of progress.
        dual_scale = max(_norm_inf(z), _norm_inf(y), 1.0)
        farkas_res = _norm_inf(dual_rows) / dual_scale
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
        if growth_count >= INFEAS_WINDOW and mu > tol:
            status = _stall_status(pres)
            break

        iterate = cones.points(s, z)
        if gap <= 0.0 or any(v >= 0.0 for v in iterate.violations()):
            status = "numerical_failure"
            break

        scaling = _NTScaling(iterate)
        lam = scaling.lam.u[0]
        lam_sq = cones.product(lam, lam)
        try:
            kkt.factor(scaling)
        except RuntimeError:
            status = "numerical_failure"
            break

        def direction(r_dual, r_eq, r_ineq, d_s):
            """The Newton step that cancels the residuals and sets
            lam o (W^{-1} ds + W dz) = -d_s. ds comes from the primal row:
            G x + s - h then contracts exactly, even where the scaled-space
            formula would cancel."""
            sol = kkt.solve(np.concatenate(
                [-r_dual, -r_eq, -r_ineq + scaling.rhs(d_s)]), REFINE_TOL)
            dx = sol[:n]
            return dx, sol[n:n + me], sol[n + me:], -r_ineq - G @ dx

        def step_pair(ds_, dz_):
            ap, ad = (min(1.0, STEP_DAMPING * a)
                      for a in iterate.max_steps(ds_, dz_))
            # With a quadratic term the P dx cross-coupling re-pollutes the
            # dual equation under split steps; use a common length then.
            if P.nnz:
                ap = ad = min(ap, ad)
            return ap, ad

        # Predictor (affine) direction.
        _, _, dz_a, ds_a = direction(r_dual, r_eq, r_ineq, lam_sq)
        ap_aff, ad_aff = (min(1.0, a) for a in iterate.max_steps(ds_a, dz_a))
        gap_aff = float((s + ap_aff * ds_a) @ (z + ad_aff * dz_a))
        sigma = min((max(gap_aff, 0.0) / gap) ** 3, 1.0) if gap > 0 else 0.0

        # Corrector (combined) direction.
        corr = scaling.scaled_product(ds_a, dz_a)
        dx, dy, dz, ds = direction(
            r_dual, r_eq, r_ineq,
            lam_sq - sigma * mu * e + corr)
        alpha_p, alpha_d = step_pair(ds, dz)

        # Gondzio centrality correctors: push outlier complementarity
        # products toward the target, accepting a corrector only when it
        # enlarges the step.
        mu_target = max(sigma * mu, 1e-2 * mu)
        for _ in range(CENTRALITY_CORRECTORS):
            if min(alpha_p, alpha_d) > 0.95:
                break
            ap_t = min(1.0, 1.5 * alpha_p + 0.3)
            ad_t = min(1.0, 1.5 * alpha_d + 0.3)
            v_trial = scaling.scaled_product(s + ap_t * ds, z + ad_t * dz)
            target = cones.clip_eigenvalues(v_trial, 0.1 * mu_target,
                                            10.0 * mu_target)
            dx_c, dy_c, dz_c, ds_c = direction(
                np.zeros(n), np.zeros(me), np.zeros(mi), v_trial - target)
            ap_new, ad_new = step_pair(ds + ds_c, dz + dz_c)
            if min(ap_new, ad_new) <= min(alpha_p, alpha_d) * 1.01:
                break
            dx, dy, dz, ds = dx + dx_c, dy + dy_c, dz + dz_c, ds + ds_c
            alpha_p, alpha_d = ap_new, ad_new

        # Hard stall: the direction no longer moves the iterate. A solve
        # that met the tolerances before it stalled returns its polish
        # candidate as optimal below.
        if max(alpha_p, alpha_d) < 0.05 and mu > 0.9 * mu_prev:
            stall_count += 1
        else:
            stall_count = 0
        mu_prev = mu
        if stall_count >= 3 or max(alpha_p, alpha_d) < 1e-10:
            status = _stall_status(pres)
            break
        x = x + alpha_p * dx
        s = s + alpha_p * ds
        y = y + alpha_d * dy
        z = z + alpha_d * dz

    if candidate is not None:
        status = "optimal"
        x, y, z, s = candidate

    gap = float(s @ z)
    *_, pres, dres, pobj, _ = residuals(x, y, z, s)
    return SolverSolution(
        x=x, y=y, z=z, s=s, status=status, iterations=iteration,
        objective=pobj, gap=gap, rel_gap=gap / max(1.0, abs(pobj)),
        primal_res=pres, dual_res=dres, warm=warm,
        reordered=kkt.reordered, resumed=resumed, _analysis=kkt.analysis,
        _program=weakref.ref(program),
    )


def _stall_status(pres: float) -> str:
    """The verdict of a stall: the growth window, or a step that no longer
    moves the iterate."""
    return "infeasible" if pres > FAR_FROM_FEASIBLE else "numerical_failure"


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0
