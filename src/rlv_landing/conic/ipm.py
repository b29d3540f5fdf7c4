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
an LDL' factorization with the pivots on the diagonal, stable without
pivoting (Vanderbei, SIAM J. Optim. 1995). K is stored once, as QDLDL and
Clarabel store it: its upper triangle in the stage ordering, whose CSC
pattern an analysis (``_Analysis``) forms by a counting sort. Each iteration
writes only the -(W'W + eps I) values into it, in C (``cone_w2_scatter``);
the LDL' kernel factors it, and refinement multiplies by K from it
(``ldl_symv``). Every symbolic step is taken once per pattern, as sparse
direct solvers split the work (Davis, ACM TOMS 31(4), 2005; QDLDL): the
analysis holds each row's pattern of L, so a factorization walks no
elimination tree. P is symmetric, and K reads its upper triangle.

The stage ordering (``_stage_order``) reads the program's ``stage``, one
per variable, the structure optimal-control IPMs exploit (Frison & Diehl,
HPIPM, IFAC 2020; Domahidi et al., FORCES, CDC 2012). A row of A or G takes
the mean stage of the columns it touches outside the last stage (the
planner's eta and t_c, which touch every dynamics row), or the last stage
if it touches no other. Rows and variables are sorted by (stage, rows
before variables, index); a program without stages is one stage. No
ordering call is made, and the planner's first N=100 KKT matrix (W = I) has
30,471 entries in L below the diagonal, against 31,868 under SuperLU's
minimum degree (9,191 against 8,574 at N=30). A solve leaves its analysis
on its result, and a warm solve whose P, A, G, cones and stages have the
start's pattern reuses it, so a run of same-pattern SCP subproblems takes
one symbolic analysis. Every factorization, the first iterate's included,
is a numeric up-looking LDL' of K's upper triangle by the compiled kernel
``ldl`` (Davis, ACM TOMS 31(4), 2005), half the arithmetic of an LU, as IPM
codes factor (QDLDL in OSQP, Stellato et al., Math. Prog. Comp. 2020;
Clarabel, Goulart & Chen, arXiv:2405.12762). It is the package's only
factorization, the SCP projection's too: at an exact zero pivot, which an
SOC block near its boundary can cancel to, the kernel takes that row's
static regularization (+-REG) as the pivot, as those codes do, and
refinement against the unregularized matrix corrects the solve; a NaN pivot
fails the factorization.

The cone algebra is ``cones.Cones``, the program's layout ``cones``:
the orthant rows, then SOC blocks of one dimension d, so each part of a
vector is a slice of it, the NT scaling holds W, W^{-1} and W^2 as one
(n_soc, d, d) stack each, and the -(W'W + eps I) block is the orthant
diagonal followed by dense d x d blocks. Its arithmetic is compiled C,
``cones.c`` in the library ``ldl`` builds: one loop over the rows and
blocks per function, where numpy took a dozen operations over about 100
blocks.

A KKT solve is one solve with the factors, refined against the
unregularized matrix only while its residual is above a tolerance and each
step lowers it, as in Clarabel. The IPM's directions are solved to
REFINE_TOL, since later iterations correct a direction's error; the cold
start is not refined (a tolerance of infinity), and forms no residual.

Each solve is one ``_Session``, as ECOS and Clarabel keep one workspace per
solve: it holds K, its factors, the program's arrays, the buffers and the
iterate (x, y, z, s), which it moves in place, and one compiled context
that points to them all (``ldl.IpmContext``). Each iteration is three
compiled calls: the predictor (the iterate's cone data, which the NT
scaling and every step length of the iteration read, the NT scaling,
lambda o lambda, K's factorization, the affine direction and its trial
points), the corrector (the combined direction, its step pair and the
Gondzio rounds) and the advance (the step, and the residuals at the next
iterate). They compose the compiled pieces that replaced the numpy and
scipy code of the iteration, each adding in that code's order, so the
iterates are its, to the bit. The dot products (s'z, the affine gap from
the predictor's trial points, and c'x and x'Px of the objective, formed
once, at the solve's end) stay numpy's, on the session's arrays, because C
would not add them in the order of numpy's BLAS; so do sigma, the verdicts
and the stall test, which comes before the update, so that a step it
rejects is never taken. A solution counts the LDL' solves it took
(``ldl_solves``).

The initial point is either cold, from one KKT solve with W = I (K
factored at s = z = e, as a predictor factors it), or warm, from
``program.start`` (the solution of a nearby program, such as the previous
SCP subproblem): x and y as they are, s and z moved into the cone interior
along the identity by at least WARM_SHIFT (Yildirim & Wright, SIAM J.
Optim. 2002). A start that is the solution of this same program object,
such as the inexact solve a full-tolerance re-solve follows, is resumed:
its s and z are kept, and moved only if they are not interior (Skajaa,
Andersen & Ye, Math. Prog. Comp. 2013). A start whose shapes do not match
the program is ignored, and the solve is then the same as a cold one.

A call is one solve, with its numerics fixed by the constants below, as in
Clarabel; the caller chooses only the tolerance ``tol`` (positive, else a
``ValueError``), which the scaled primal and dual residuals and mu, the
gap s'z over the cones' degree, must each meet. A solve that ends without
a verdict returns as it ended: nothing retries it under other numerics.

A solve ends ``optimal`` (tolerance met: the best iterate of a few polish
iterations, also if the solve then stalls), ``infeasible`` (a stall
farther than FAR_FROM_FEASIBLE from feasibility), ``numerical_failure`` (a
non-finite residual, an iterate off the cone interior, a failed
factorization or a stall near feasibility) or ``max_iter``. A stall is a
hard stall (short steps that do not lower mu) or the growth window
(INFEAS_WINDOW iterations without progress); no certificate is formed.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# Not called here: planbench/spans.py and its tests read it, as solve_robust.
import scipy.sparse.linalg as spla  # noqa: F401

from . import ldl
from .cones import Cones
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
# nominal N=100 ignition-fit plan. A round runs while the smaller step is at
# most GONDZIO_ENOUGH. It moves the scaled products at the trial step
# min(1, GONDZIO_STRETCH alpha + GONDZIO_LIFT) into GONDZIO_BAND times
# max(sigma mu, GONDZIO_MU_FLOOR mu), and is kept only if it lengthens the
# smaller step by more than the factor GONDZIO_GAIN; else the rounds end.
CENTRALITY_CORRECTORS = 2
GONDZIO_ENOUGH = 0.95
GONDZIO_STRETCH, GONDZIO_LIFT = 1.5, 0.3
GONDZIO_BAND = 0.1, 10.0
GONDZIO_MU_FLOOR = 1e-2
GONDZIO_GAIN = 1.01
# ipm_factor's and ipm_predictor's results at an iterate off the cone
# interior and at a NaN pivot of the KKT factorization.
OFF_INTERIOR, NAN_PIVOT = -1, -2


def _pattern(P, A, G, cones: Cones, stage) -> list[np.ndarray]:
    """What the KKT pattern and its ordering are made of: the shapes and
    the cone layout, the CSR patterns of P, A and G, and the stages (none
    for a program without them)."""
    return [np.array([P.shape[0], A.shape[0], G.shape[0], *cones.shape]),
            P.indptr, P.indices, A.indptr, A.indices, G.indptr, G.indices,
            np.zeros(0) if stage is None else np.asarray(stage)]


def _stage_order(A, G, stage, variables_first=False) -> np.ndarray:
    """The KKT rows and columns in the stage ordering (module docstring),
    or with each stage's variables before its rows; without ``stage``,
    every variable is in stage 0. A and G are CSR."""
    n = A.shape[1]
    stage = np.zeros(n) if stage is None else np.asarray(stage, float)
    last = stage.max(initial=0.0)
    inner = stage < last

    def per_row(weights):
        """The sum of ``weights`` over each row's stored columns."""
        return np.concatenate([
            np.bincount(_rows(M), weights[M.indices], M.shape[0])
            for M in (A, G)])

    total, count = per_row(stage * inner), per_row(inner.astype(float))
    row_stage = np.full(total.size, last)
    np.divide(total, count, out=row_stage, where=count > 0)
    is_variable = np.arange(n + total.size) < n
    return np.lexsort((is_variable != variables_first,
                       np.concatenate([stage, row_stage])))


def _upper(P) -> np.ndarray:
    """P's stored entries that K keeps: the symmetric P's upper triangle."""
    return _rows(P) <= P.indices


def _entries(P, A, G, cones: Cones) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (int32) of the KKT entries, unpermuted, each entry
    of the symmetric matrix once: the values of ``_Session``'s value vector
    (P's upper triangle, reg I, A, -reg I, G), then the -(W^2 + reg I)
    block in the order cone_w2_scatter writes it (the orthant diagonal,
    then each SOC block's upper triangle row by row)."""
    n, me = P.shape[0], A.shape[0]
    upper = _upper(P)
    diag_x, diag_y = np.arange(n), np.arange(n, n + me)
    nn, soc = cones.split(np.arange(n + me, n + me + cones.dim))
    i, j = np.triu_indices(cones.d)
    rows = np.concatenate([_rows(P)[upper], diag_x, _rows(A) + n, diag_y,
                           _rows(G) + n + me, nn, soc[:, i].reshape(-1)])
    cols = np.concatenate([P.indices[upper], diag_x, A.indices, diag_y,
                           G.indices, nn, soc[:, j].reshape(-1)])
    return rows.astype(np.intc), cols.astype(np.intc)


@dataclass(frozen=True, eq=False)
class _Analysis:
    """The symbolic analysis of one KKT pattern in its stage ordering, left
    on the solution for a later solve of the same pattern: the ordering,
    the CSC pattern of K's upper triangle in it (``ldl.csc_pattern``, a
    counting sort), the slot in it of each value ``_Session`` writes
    (``value_slots``: P's upper triangle, reg I, A, -reg I, G;
    ``w2_slots``: -(W^2 + reg I)), and ``ldl.analyze``'s column pointers
    and row patterns of L (``Lp``, ``Rp``, ``Ri``), which every
    factorization reads. It outlives the solve, so it holds only int32
    index arrays of its own, none shared with P, A or G."""

    pattern: list[np.ndarray]
    position: np.ndarray     # position[i]: where row/column i sits in K
    order: np.ndarray        # its inverse
    indptr: np.ndarray
    indices: np.ndarray
    value_slots: np.ndarray
    w2_slots: np.ndarray
    Lp: np.ndarray
    Rp: np.ndarray
    Ri: np.ndarray

    @classmethod
    def of(cls, pattern, rows, cols, n_values: int, order) -> _Analysis:
        """The analysis of ``_entries``' rows and columns (the first
        ``n_values`` the value vector's) in the ordering ``order``: each
        entry goes to the upper triangle, at the smaller of its permuted
        row and column and the larger."""
        position = np.argsort(order).astype(np.intc)
        rows, cols = position[rows], position[cols]
        indptr, indices, slots = ldl.csc_pattern(
            np.minimum(rows, cols), np.maximum(rows, cols), position.size)
        return cls([np.array(a) for a in pattern], position,
                   order.astype(np.intc), indptr, indices, slots[:n_values],
                   slots[n_values:], *ldl.analyze(indptr, indices))

    def matches(self, pattern: list[np.ndarray]) -> bool:
        return len(pattern) == len(self.pattern) and all(
            np.array_equal(a, b) for a, b in zip(pattern, self.pattern))


class _Session:
    """One IPM solve: its KKT system, stored only through its ``analysis``
    (the start's, if it has the same pattern, else a fresh one in the stage
    ordering: ``reordered``), and its compiled context (``ldl.IpmContext``)
    with every array the context points to, each checked once, here
    (``ldl._checked``, ``ldl.csr_args``): the program's P, A, G, c, b and
    h, K and its factors, the buffers below, and the iterate ``x``, ``y``,
    ``z`` and ``s``, which the session takes over and moves in place.

    K is kept once, as its upper triangle's values in K's ordering
    (``Kx``); only the -(W^2 + reg I) block changes between
    factorizations, and an exact zero pivot takes its row's ``reg_sign``.
    ``cold_start`` moves the iterate to the cold start's. ``residuals``
    (``ipm_residuals``) evaluates the KKT residuals at the iterate: r_dual,
    r_eq and r_ineq, their infinity norms (``norms``) and P x (``Px``),
    which the objective reads at the solve's end. ``predictor``
    (``ipm_predictor``) writes the cone data of s, z and lambda (rows 0, 1
    and 2 of ``norm_sq``, ``norm`` and ``bar``), the
    NT scaling (``w_nn``, and W, W^{-1} and W^2 stacked in ``W``), lambda
    and lambda o lambda (``lam``), K's factors (``Li``, ``Lx``, ``D``), the
    affine direction (``sol_a``, ``ds_a``) and the trial points
    ``trial_s`` and ``trial_z``. ``corrector`` (``ipm_corrector``) takes
    sigma and mu, writes the step's direction (``sol``, ``ds``;
    ``direction``) and returns its step pair. ``step`` is both, with sigma
    from the trial points' s'z. ``advance`` (``ipm_advance``) moves the
    iterate along the direction by a step pair and evaluates the residuals
    there. ``ldl_solves`` counts the LDL' solves, and ``factored`` says
    whether the last factorization succeeded.
    """

    def __init__(self, P, A, G, c, b, h, cones: Cones, iterate,
                 analysis: _Analysis | None = None, stage=None):
        n, me, mi = P.shape[0], A.shape[0], cones.dim
        if (P.shape, A.shape, G.shape) != ((n, n), (me, n), (mi, n)):
            raise ValueError("P, A and G are not the blocks of one KKT "
                             "system")
        self.cones, self._sizes = cones, (n, me)
        self._c, self._b, self._h = c, b, h
        self._scales = [max(1.0, _norm_inf(v)) for v in (b, h, c)]
        self.x, self.y, self.z, self.s = iterate
        arrays = dict(zip("Pp Pi Pv Ap Ai Av Gp Gi Gv".split(), (
            *ldl.csr_args("P", P), *ldl.csr_args("A", A),
            *ldl.csr_args("G", G))))
        arrays.update(
            c=ldl._checked("c", c, np.float64, n),
            b=ldl._checked("b", b, np.float64, me),
            h=cones.address("h", h),
            x=ldl._checked("x", self.x, np.float64, n),
            y=ldl._checked("y", self.y, np.float64, me),
            z=cones.address("z", self.z), s=cones.address("s", self.s))
        values = np.concatenate([P.data[_upper(P)], np.full(n, REG), A.data,
                                 np.full(me, -REG), G.data])
        pattern = _pattern(P, A, G, cones, stage)
        self.reordered = analysis is None or not analysis.matches(pattern)
        if self.reordered:
            analysis = _Analysis.of(pattern, *_entries(P, A, G, cones),
                                    values.size, _stage_order(A, G, stage))
        self.analysis = a = analysis
        size, fill = a.order.size, int(a.Lp[-1])
        self.Kx = np.bincount(a.value_slots, values, a.indices.size)
        # REG * sign: K minus diag(reg_sign) is the unregularized matrix.
        self.reg_sign = np.where(a.order < n, REG, -REG)
        self.Li, self.iwork = np.empty(fill, np.intc), np.empty(size, np.intc)
        arrays.update(zip(
            "Kp Ki Lp Rp Ri order w2_slots Kx reg_sign Li iwork".split(),
            map(ldl._address, (a.indptr, a.indices, a.Lp, a.Rp, a.Ri,
                               a.order, a.w2_slots, self.Kx, self.reg_sign,
                               self.Li, self.iwork))))
        # The buffers, all in one array, each an attribute that views it.
        shapes = dict(
            Lx=(fill,), D=(size,), work=(6 * size,), Px=(n,), r_dual=(n,),
            r_eq=(me,), r_ineq=(mi,), norms=(3,), rwork=(2 * n,),
            u=(2, mi), norm_sq=(3, cones.n_soc), norm=(3, cones.n_soc),
            bar=(3, cones.n_soc, cones.d), worst=(3,), w_nn=(cones.n_nn,),
            W=(3, cones.n_soc, cones.d, cones.d), lam=(2, mi), sol_a=(size,),
            ds_a=(mi,), trial_s=(mi,), trial_z=(mi,), sol=(size,), ds=(mi,),
            alpha=(2,), cwork=(2 * size + 8 * mi,))
        buffers = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        base, offset = ldl._address(buffers), 0
        for name, shape in shapes.items():
            count = math.prod(shape)
            setattr(self, name, buffers[offset:offset + count].reshape(shape))
            arrays[name] = base + buffers.itemsize * offset
            offset += count
        self._held = P, A, G, buffers   # what the context points to
        n_nn, n_soc, d = cones.shape
        self._context = ldl.IpmContext(
            n=size, nx=n, me=me, n_nn=n_nn, n_soc=n_soc, d=d,
            steps=REFINE_STEPS, tol=REFINE_TOL, reg=REG, common=P.nnz > 0,
            rounds=CENTRALITY_CORRECTORS, damping=STEP_DAMPING,
            enough=GONDZIO_ENOUGH, stretch=GONDZIO_STRETCH,
            lift=GONDZIO_LIFT, lo=GONDZIO_BAND[0], hi=GONDZIO_BAND[1],
            mu_floor=GONDZIO_MU_FLOOR, gain=GONDZIO_GAIN, **arrays)
        self.ldl_solves, self.factored = 0, False

    def cold_start(self) -> None:
        """From the iterate (0, 0, e, e): K factored at s = z = e (W = I,
        ``ipm_factor``) and one KKT solve of [-c; b; h] at a tolerance of
        infinity (``kkt_solve``), whose x and y are the start's, and whose
        z part and its negation, shifted into the cones, its z and s. If
        the factorization fails (a non-finite P, A or G), the iterate
        stays, and the first iteration ends the solve as the loop's guards
        find it: a non-finite residual, or the same factorization."""
        lib = ldl._library()
        self.factored = lib.ipm_factor(self._context) == 0
        if not self.factored:
            return
        rhs = np.concatenate([-self._c, self._b, self._h])
        self.ldl_solves += lib.kkt_solve(self._context, math.inf,
                                         ldl._address(rhs),
                                         ldl._address(self.sol))
        dx, dy, z0, _ = self.direction()
        self.x[...], self.y[...] = dx, dy
        self.s[...] = self.cones.shift_into_interior(-z0)
        self.z[...] = self.cones.shift_into_interior(z0)

    def residuals(self) -> tuple[float, float]:
        """The residuals at the iterate, and what the loop reads of them
        (``measures``)."""
        ldl._library().ipm_residuals(self._context)
        return self.measures()

    def measures(self) -> tuple[float, float]:
        """Of the last evaluation: the scaled primal and dual residuals the
        tolerances judge."""
        dual, eq, ineq = self.norms.tolist()
        b_scale, h_scale, c_scale = self._scales
        return max(eq / b_scale, ineq / h_scale), dual / c_scale

    def predictor(self) -> int:
        """The predictor at the iterate: the number of LDL' solves it took,
        or OFF_INTERIOR or NAN_PIVOT."""
        code = ldl._library().ipm_predictor(self._context)
        if code != OFF_INTERIOR:
            self.factored = code != NAN_PIVOT
        self.ldl_solves += max(code, 0)
        return code

    def corrector(self, sigma: float, mu: float) -> tuple[float, float]:
        """The corrector at sigma and mu, after ``predictor``: the step
        pair (alpha_p, alpha_d) of its direction."""
        self.ldl_solves += ldl._library().ipm_corrector(
            self._context, sigma, mu)
        alpha_p, alpha_d = self.alpha.tolist()
        return alpha_p, alpha_d

    def step(self, gap: float, mu: float) -> tuple[float, float] | None:
        """The iteration's step at the iterate, whose s'z is ``gap`` and
        gap / degree ``mu``: ``corrector``'s step pair at Mehrotra's sigma,
        (the trial points' s'z / gap)^3 at most 1, or None if the gap is
        not positive or the predictor fails."""
        if gap <= 0.0 or self.predictor() < 0:
            return None
        gap_aff = float(self.trial_s @ self.trial_z)
        sigma = min((max(gap_aff, 0.0) / gap) ** 3, 1.0)
        return self.corrector(sigma, mu)

    def advance(self, alpha_p: float,
                alpha_d: float) -> tuple[float, float]:
        """Move the iterate along the corrector's direction, x and s by
        alpha_p and y and z by alpha_d, and evaluate the residuals there:
        their ``measures``."""
        ldl._library().ipm_advance(self._context, alpha_p, alpha_d)
        return self.measures()

    def direction(self) -> tuple[np.ndarray, ...]:
        """The corrector's direction (dx, dy, dz, ds), or the cold start's
        solve, as views of its buffers, which the next iteration
        overwrites."""
        n, me = self._sizes
        return self.sol[:n], self.sol[n:n + me], self.sol[n + me:], self.ds


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
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol!r}")
    program.validate()
    n = program.n
    c, b, h = (np.ascontiguousarray(v, dtype=np.float64)
               for v in (program.c, program.b, program.h))
    P, A, G = (_kernel_csr(M) for M in (program.P, program.A, program.G))
    me, mi = A.shape[0], G.shape[0]
    cones = program.cones

    start = program.start
    warm = start is not None and all(
        v is not None and v.size == size
        for v, size in ((start.x, n), (start.y, me), (start.z, mi),
                        (start.s, mi)))
    resumed = warm and start._program is not None \
        and start._program() is program
    if warm:
        x, y = start.x.copy(), start.y.copy()
        s, z = (u.copy() if resumed and cones.interior_violation(u) < 0
                else cones.shift_warm(u, WARM_SHIFT)
                for u in (start.s, start.z))
    else:
        e = cones.identity()
        x, y, s, z = np.zeros(n), np.zeros(me), e, e.copy()
    # The session moves x, y, z and s in place.
    session = _Session(P, A, G, c, b, h, cones, (x, y, z, s),
                       start._analysis if warm else None, program.stage)
    if not warm:
        session.cold_start()

    best_res = np.inf
    growth_count = 0
    status = "max_iter"
    candidate = None
    candidate_score = np.inf
    polish_left = 3
    stall_count = 0
    mu_prev = np.inf

    # The residual vectors stay in the session's buffers, where the step
    # reads them; each step's advance evaluates them at the next iterate.
    pres, dres = session.residuals()
    for iteration in range(1, MAX_ITER + 1):
        gap = float(s @ z)
        mu = gap / cones.degree

        if not math.isfinite(pres + dres + gap):
            status = "numerical_failure"
            break
        if pres < tol and dres < tol and mu < tol:
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

        # Growth window: INFEAS_WINDOW iterations without progress.
        total_res = max(pres, dres, mu)
        if total_res < best_res * 0.999:
            best_res = total_res
            growth_count = 0
        else:
            growth_count += 1
        if growth_count >= INFEAS_WINDOW and mu > tol:
            status = _stall_status(pres)
            break

        alphas = session.step(gap, mu)
        if alphas is None:
            status = "numerical_failure"
            break
        alpha_p, alpha_d = alphas

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
        pres, dres = session.advance(alpha_p, alpha_d)

    if candidate is not None:
        status = "optimal"
        for v, best in zip((x, y, z, s), candidate):
            v[...] = best
        pres, dres = session.residuals()

    gap = float(s @ z)
    objective = float(c @ x) + program.obj_offset \
        + 0.5 * float(x @ session.Px)
    return SolverSolution(
        x=x, y=y, z=z, s=s, status=status, iterations=iteration,
        objective=objective, gap=gap,
        rel_gap=gap / max(1.0, abs(objective)), primal_res=pres,
        dual_res=dres, warm=warm, reordered=session.reordered,
        resumed=resumed, ldl_solves=session.ldl_solves,
        _analysis=session.analysis, _program=weakref.ref(program),
    )


def _kernel_csr(M) -> sp.csr_matrix:
    """M in CSR with int32 index arrays and float64 values, as the kernel
    reads it (``ldl.csr_args``): M itself where it is so already."""
    M = M.tocsr()
    held = M.data, M.indices, M.indptr
    arrays = [np.ascontiguousarray(a, dtype=t)
              for a, t in zip(held, (np.float64, np.intc, np.intc))]
    if all(a is b for a, b in zip(arrays, held)):
        return M
    return sp.csr_matrix(tuple(arrays), shape=M.shape)


def _stall_status(pres: float) -> str:
    """The verdict of a stall: the growth window, or a step that no longer
    moves the iterate."""
    return "infeasible" if pres > FAR_FROM_FEASIBLE else "numerical_failure"


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0
