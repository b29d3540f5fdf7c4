"""Microbenchmarks of the planning layers at the paper grid N=100.

Run from the repository root (outside tier-1, whose testpaths is tests/),
with the ``bench`` extra (pytest-benchmark) installed:

    PYTHONPATH=src python -m pytest benches --benchmark-json BENCH_41.json

The coast case makes the nominal ignition-fit boundary (the planner tests'
initial state): the 16 s ``propagate_coast`` and ``fit_coast_polynomial``.
The fixture is the first SCP subproblem of the plan from that state, with
the trust region ``run_scp`` adds. Its ``PlanningProblem.build`` is timed
twice, at N=100 and on the first N=30 subproblem, where the build weighs
most in a plan: by a fresh problem (with the plan's scaling), which makes
the build's template, and by the problem that built it, which reuses that
template and writes only values. ``program_sha256`` hashes the built
program's A and G (CSR arrays), b, h and c. The trust-region cases time
``scp.add_trust_region`` on a copy of the first subproblem's program, at
N=30 and N=100, as each SCP iteration adds it: P + 2 W_tr I, the linear
cost and the constant; ``trust_region_sha256`` hashes P (CSR arrays) and
c. Then one IPM solve of the subproblem, and one factorization of the IPM's first KKT matrix by SuperLU at its defaults,
for scale. A refactorization of that matrix is timed at N=100 and on the
first N=30 subproblem, by the IPM's LDL' kernel (``ldl.Factors``) on the
upper-triangle values the IPM's session (``ipm._Session``) holds, in its
ordering, on the symbolic analysis (``ldl.analyze``) made once, as each IPM
iteration factors it. The KKT solve case times one refined ``kkt_solve``
(through its wrapper in ``tests/helpers.py``) at ``ipm.REFINE_TOL`` at
N=100, with the session's K factored at the NT scaling of the cold solve's
eighth iterate (below) and the cold start's right-hand side [-c; b; h]: the
LDL' solves and the refinement's products with K. ``sol_sha256`` hashes
the solution and ``ldl_solves`` counts its LDL' solves.
The direction cases time one predictor direction (``kkt_direction``,
through its wrapper) at that iterate, at N=30 and N=100: its right-hand
side with the cone rows W (lambda \\ lambda o lambda), the refined KKT solve
and ds = -r_ineq - G dx, with K factored there and the iterate's
residuals. The residual cases time one evaluation of those residuals by the
IPM's session (``_Session.residuals``, the compiled ``ipm_residuals``):
the products with P, A, A', G and G', r_dual, r_eq, r_ineq and their
norms, and the scaled primal and dual residuals the loop reads.
``direction_sha256`` hashes (dx, dy, dz, ds) and ``residuals_sha256`` the
three residual vectors and those two scalars.
The KKT and cone-algebra cases run a fixed number of rounds after warm-up
rounds (``KERNEL_ROUNDS``): at pytest-benchmark's default time budget
their sub-millisecond medians moved more between runs than a kernel change
moves them.
The warm case solves the plan's third subproblem as ``run_scp`` does: at
``scp.INEXACT_TOL``, from the second subproblem's solution at that
tolerance, which started from the first's. (The second subproblem's load
gate holds one node fewer than the first's; that node's row stores zeros.)
The re-solve case solves that subproblem again at the default tolerance,
from its own inexact solution, as ``run_scp`` does once a step is small.
The cone-algebra cases time one IPM iteration's cone work at the eighth
iterate of the cold solve of the first subproblem (15 and 16 iterations at
N=30 and N=100), one entry point of ``cones.c`` per call, as the IPM took
it before ``ipm_predictor`` and ``ipm_corrector`` (the wrappers of
``tests/helpers.py``): the interior test of s and z, the NT scaling, three
pairs of step lengths along the step (ds, dz) that iteration takes, lambda
o lambda, the corrector's scaled product (W^{-1} ds) o (W dz), and a
centrality corrector's scaled product at s + ds, z + dz with its
eigenvalues clipped to [0.1 mu, 10 mu]. ``rhs_sha256`` hashes the three
vectors. (The cone rows of a right-hand side are the direction's.)
The iteration cases time one whole IPM iteration from that iterate, at
N=30 and N=100, as ``ipm.solve`` takes it in its session (``ipm._Session``),
whose iterate each round first sets back to that iterate, with its
residuals, untimed: the gap, the predictor and corrector calls
(``_Session.step``) and the advance to the next iterate with its residuals,
which must be the cold solve's ninth, to the byte. ``next_sha256`` hashes
it (x, y, z, s) and ``ldl_solves`` counts the iteration's LDL' solves.
The projection case times one Gauss-Newton step
(``scp.project_onto_rows``), the first of the nominal N=100 plan, with
its ordering, analysis and LDL' factorization; ``step_sha256`` hashes the
step.
The cold-start cases time ``_Session.cold_start`` on the first subproblem
at N=30 and N=100, in a session on a fresh analysis, whose iterate each
round first sets back to (0, 0, e, e), untimed: K factored at W = I
(``ipm_factor``), the one KKT solve at a tolerance of infinity and the two
shifts into the cones. ``cold_sha256`` hashes the cold iterate (x, y, z,
s). The session cases time building the session of that subproblem on the
analysis of a solve of it, as a warm solve whose start has the same
pattern builds it: the pattern's comparison, K's values and the context.
The whole-plan cases time ``run_scp`` to convergence from the initial
guess: ignition-fit from that state at N=30 and N=100, and current-state
from the mid-course state of the replan tests at N=100.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlv_landing.conic import ipm, ldl
from rlv_landing.params import PlanningConfig, VehicleParams
from rlv_landing.planner import (PlanningBoundary, PlanningProblem,
                                 fit_coast_polynomial, initial_guess_planning,
                                 propagate_coast)
from rlv_landing import scp
from rlv_landing.scp import ScpSettings, run_scp

# The wrappers of the kernel's entry points that the IPM no longer calls
# one by one live with the tests that hold them to their oracles.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import (NTScaling, clip_eigenvalues,  # noqa: E402
                     cone_product, factor, ipm_session, kkt_direction,
                     kkt_solve, max_steps, scaled_product)

VP = VehicleParams()
R0 = np.array([-700.0, -700.0, -6000.0])
V0 = np.array([58.8, 58.8, 391.0])
R_MID = np.array([-300.0, -250.0, -3500.0])   # the replan tests' mid-course state
V_MID = np.array([40.0, 35.0, 230.0])
M_MID = 33000.0


def ignition_fit(N):
    cfg = PlanningConfig(N=N)
    coast = propagate_coast(R0, V0, VP.m0, VP, horizon=16.0, step=cfg.coast_step)
    boundary = PlanningBoundary(mode="ignition-fit", m0=VP.m0,
                                coast_fit=fit_coast_polynomial(coast, cfg.tc_window))
    return boundary, cfg


def current_state(N):
    boundary = PlanningBoundary(mode="current-state", m0=M_MID,
                                r_now=R_MID, v_now=V_MID)
    return boundary, PlanningConfig(N=N)


def test_coast(benchmark):
    boundary, _ = benchmark(ignition_fit, 100)
    benchmark.extra_info["max_residual_r"] = \
        boundary.coast_fit.max_residual_r


def subproblem_at(prob, ref):
    """The subproblem about ``ref`` as ``run_scp`` solves it: the built
    program with the trust region added."""
    prog = prob.build(ref)
    scp.add_trust_region(prog, prob.reference_vector(ref), prob.cfg.W_tr)
    return prog


def first_subproblem(N):
    boundary, cfg = ignition_fit(N)
    prob = PlanningProblem(boundary, VP, cfg)
    ref = initial_guess_planning(boundary, cfg, VP)
    return prob, ref, subproblem_at(prob, ref)


@pytest.fixture(scope="module")
def subproblem():
    return first_subproblem(100)


def first_kkt(prog, reg=ipm.REG) -> sp.csc_matrix:
    """The IPM's first KKT matrix (W = I), whole and in the program's own
    order, as SuperLU takes it: -(W^2 + reg I) dense on each SOC block
    (explicit zeros off the diagonal). The IPM stores only its upper
    triangle, in the stage ordering (``factored_session``)."""
    n, me = prog.n, prog.A.shape[0]
    top = sp.bmat([[prog.P + reg * sp.eye(n), prog.A.T, prog.G.T],
                   [prog.A, -reg * sp.eye(me), None]], format="coo")
    G, cones = prog.G.tocoo(), prog.cones
    nn, soc = cones.split(n + me + np.arange(cones.dim))
    r = np.concatenate([nn, np.repeat(soc, cones.d, axis=1).ravel()])
    c = np.concatenate([nn, np.tile(soc, (1, cones.d)).ravel()])
    rows, cols = [top.row, G.row + n + me, r], [top.col, G.col, c]
    vals = [top.data, G.data, np.where(r == c, -(1.0 + reg), 0.0)]
    dim = n + me + cones.dim
    return sp.csc_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def program_sha256(prog) -> str:
    """The first 16 hex digits of the SHA-256 of a program's A and G (CSR
    arrays), b, h and c bytes."""
    digest = hashlib.sha256()
    for a in (*(getattr(M, name) for M in (prog.A, prog.G)
                for name in ("indptr", "indices", "data")),
              prog.b, prog.h, prog.c):
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def build_first(benchmark, prob, ref):
    """A build by a fresh problem with the plan's scaling: it makes its
    template."""
    def fresh():
        other = PlanningProblem(prob.boundary, VP, prob.cfg)
        other._scaling = prob.scaling(ref)
        return (other, ref), {}

    prog = benchmark.pedantic(PlanningProblem.build, setup=fresh, rounds=100,
                              warmup_rounds=5)
    benchmark.extra_info["program_sha256"] = program_sha256(prog)


def build_repeat(benchmark, prob, ref):
    """A build by the problem that built about ``ref`` before: it reuses
    the template and writes only values."""
    prog = benchmark(prob.build, ref)
    benchmark.extra_info["program_sha256"] = program_sha256(prog)


def test_build_first_n100(benchmark, subproblem):
    build_first(benchmark, *subproblem[:2])


def test_build_repeat_n100(benchmark, subproblem):
    build_repeat(benchmark, *subproblem[:2])


def test_build_first_n30(benchmark):
    build_first(benchmark, *first_subproblem(30)[:2])


def test_build_repeat_n30(benchmark):
    build_repeat(benchmark, *first_subproblem(30)[:2])


def trust_region(benchmark, prob, ref):
    """``scp.add_trust_region`` on a copy of the program built about
    ``ref``, as ``run_scp`` adds it once per SCP iteration."""
    prog, x_ref = prob.build(ref), prob.reference_vector(ref)
    last = []

    def fresh():
        last[:] = [replace(prog)]
        return (last[0], x_ref, prob.cfg.W_tr), {}

    benchmark.pedantic(scp.add_trust_region, setup=fresh, rounds=500,
                       warmup_rounds=5)
    digest = hashlib.sha256()
    P = last[0].P
    for a in (P.indptr, P.indices, P.data, last[0].c):
        digest.update(a.tobytes())
    benchmark.extra_info["trust_region_sha256"] = digest.hexdigest()[:16]


def test_trust_region_n100(benchmark, subproblem):
    trust_region(benchmark, *subproblem[:2])


def test_trust_region_n30(benchmark):
    trust_region(benchmark, *first_subproblem(30)[:2])


def test_ipm_solve_n100(benchmark, subproblem):
    sol = benchmark(ipm.solve, subproblem[2])
    assert sol.status == "optimal"


@pytest.fixture(scope="module")
def third_subproblem(subproblem):
    """The nominal plan's third subproblem, with the second one's solution
    at ``scp.INEXACT_TOL`` as its start, as ``run_scp`` solves it."""
    prob, ref, prog = subproblem
    inexact = scp.INEXACT_TOL
    for _ in range(2):
        start = ipm.solve(prog, inexact)
        ref = prob.decode(ref, start.x)
        prog = subproblem_at(prob, ref)
        prog.start = start
    return prog, inexact


def test_ipm_solve_warm_n100(benchmark, third_subproblem):
    prog, inexact = third_subproblem
    sol = benchmark(ipm.solve, prog, inexact)
    assert sol.status == "optimal" and sol.warm
    benchmark.extra_info["ipm_iters"] = sol.iterations
    benchmark.extra_info["cold_ipm_iters"] = \
        ipm.solve(replace(prog, start=None), inexact).iterations


def test_ipm_resolve_n100(benchmark, third_subproblem):
    """The full-tolerance re-solve of a small step: the third subproblem at
    the default 1e-8, from its own solution at ``scp.INEXACT_TOL``."""
    prog = replace(third_subproblem[0])   # a copy that owns its start
    prog.start = ipm.solve(prog, third_subproblem[1])
    sol = benchmark(ipm.solve, prog)
    assert sol.status == "optimal" and sol.warm
    benchmark.extra_info["ipm_iters"] = sol.iterations
    benchmark.extra_info["resumed"] = sol.resumed


# Rounds of a KKT or cone-algebra case, after warm-up rounds.
KERNEL_ROUNDS = dict(rounds=400, warmup_rounds=40, iterations=1)


def kernel(benchmark, function, *args, **kwargs):
    """``function(*args, **kwargs)`` timed over KERNEL_ROUNDS."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              **KERNEL_ROUNDS)


def test_kkt_factor_default_n100(benchmark, subproblem):
    K = first_kkt(subproblem[2])
    lu = kernel(benchmark, spla.splu, K)
    benchmark.extra_info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)


def factored_session(prog, scaling=None):
    """The IPM's session of the program (``helpers.ipm_session``, analysed
    afresh in the stage ordering, as a cold solve analyses it), its K
    factored at the NT scaling ``scaling``, or at W = I."""
    cones = prog.cones
    session = ipm_session(prog)
    factor(session, scaling or NTScaling(
        cones.points(cones.identity(), cones.identity())))
    return session


def refactor_ldl(benchmark, prog):
    """An IPM iteration's factorization, by the IPM's LDL' kernel in the
    IPM's ordering: the upper-triangle values of the IPM's first KKT system
    (W = I), analysed once (``ldl.analyze``) and factored numerically."""
    session = factored_session(prog)
    a = session.analysis
    factors = ldl.Factors(a.indptr, a.indices, a.Lp, a.Rp, a.Ri)
    assert kernel(benchmark, factors.factor, session.Kx,
                  session.reg_sign) >= 0
    benchmark.extra_info["nnz_L"] = int(factors.L[0].size)
    # L and D, counted as SuperLU counts L + U: both triangles and the
    # diagonal twice.
    benchmark.extra_info["fill_nnz"] = int(2 * (factors.L[0].size + factors.n))


def test_kkt_refactor_ldl_n100(benchmark, subproblem):
    refactor_ldl(benchmark, subproblem[2])


def test_kkt_refactor_ldl_n30(benchmark):
    refactor_ldl(benchmark, first_subproblem(30)[2])


def test_kkt_solve_n100(benchmark, subproblem):
    """One refined KKT solve at ``ipm.REFINE_TOL``, as the IPM solves for a
    direction."""
    prog = subproblem[2]
    cones, sol, _ = mid_solve(prog)
    session = factored_session(prog, NTScaling(cones.points(sol.s, sol.z)))
    rhs = np.concatenate([-prog.c, prog.b, prog.h])
    out = kernel(benchmark, kkt_solve, session, rhs, ipm.REFINE_TOL)
    before = session.ldl_solves
    kkt_solve(session, rhs, ipm.REFINE_TOL)
    benchmark.extra_info["ldl_solves"] = session.ldl_solves - before
    benchmark.extra_info["sol_sha256"] = sha256(out)


def sha256(*arrays) -> str:
    """The first 16 hex digits of the SHA-256 of the arrays' bytes."""
    return hashlib.sha256(np.concatenate(arrays).tobytes()).hexdigest()[:16]


def session_at(prog, sol):
    """The IPM's session of the program (``ipm._Session``), on a KKT
    system analysed afresh in the stage ordering, as a cold solve analyses
    it, at a copy of the iterate (x, y, z, s) of ``sol``."""
    return ipm_session(prog, (sol.x, sol.y, sol.z, sol.s))


def direction(benchmark, prog):
    """The predictor direction at the cold solve's eighth iterate."""
    cones, sol, _ = mid_solve(prog)
    scaling = NTScaling(cones.points(sol.s, sol.z))
    session = factored_session(prog, scaling)
    residuals = session_at(prog, sol)
    residuals.residuals()
    r = residuals.r_dual, residuals.r_eq, residuals.r_ineq
    lam = scaling.lam.u[0]
    lam_sq = cone_product(cones, lam, lam)
    step = kernel(benchmark, kkt_direction, session, scaling, *r, lam_sq)
    before = session.ldl_solves
    kkt_direction(session, scaling, *r, lam_sq)
    benchmark.extra_info["ldl_solves"] = session.ldl_solves - before
    benchmark.extra_info["direction_sha256"] = sha256(*step)


def test_direction_n30(benchmark):
    direction(benchmark, first_subproblem(30)[2])


def test_direction_n100(benchmark, subproblem):
    direction(benchmark, subproblem[2])


def evaluate_residuals(benchmark, prog):
    """The residuals at the cold solve's eighth iterate."""
    session = session_at(prog, mid_solve(prog)[1])
    pres, dres = kernel(benchmark, session.residuals)
    benchmark.extra_info["residuals_sha256"] = sha256(
        session.r_dual, session.r_eq, session.r_ineq, [pres, dres])


def test_residuals_n30(benchmark):
    evaluate_residuals(benchmark, first_subproblem(30)[2])


def test_residuals_n100(benchmark, subproblem):
    evaluate_residuals(benchmark, subproblem[2])


def test_projection_n100(benchmark):
    """The nominal N=100 plan's first Gauss-Newton step."""
    boundary, cfg = ignition_fit(100)
    prob = PlanningProblem(boundary, VP, cfg)
    steps, project = [], scp.project_onto_rows

    def recorded(program, x):
        steps.append((program, x.copy()))
        return project(program, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scp, "project_onto_rows", recorded)
        run_scp(prob, initial_guess_planning(boundary, cfg, VP),
                ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr))
    x = kernel(benchmark, project, *steps[0])
    benchmark.extra_info["step_sha256"] = sha256(x - steps[0][1])


def mid_solve(prog, k=8):
    """The cold solve's solution after k - 1 IPM iterations, which holds
    that iterate (x, y, z, s), and its solution after k, which holds the
    next."""
    solutions = []
    for iterations in (k - 1, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ipm, "MAX_ITER", iterations)
            solutions.append(ipm.solve(prog))
    sol, after = solutions
    return prog.cones, sol, after


def cone_pass(cones, s, z, ds, dz):
    """One IPM iteration's cone work, one entry point per call, and what it
    returns: lambda o lambda, the corrector's scaled product and a
    centrality corrector's clipped target."""
    iterate = cones.points(s, z)
    iterate.violations()
    scaling = NTScaling(iterate)
    lam = scaling.lam.u[0]
    for _ in range(3):
        max_steps(iterate, ds, dz)
    lam_sq = cone_product(cones, lam, lam)
    corr = scaled_product(scaling, ds, dz)
    mu = float(s @ z) / cones.degree
    v_trial = scaled_product(scaling, s + ds, z + dz)
    target = clip_eigenvalues(cones, v_trial, 0.1 * mu, 10.0 * mu)
    return np.concatenate([lam_sq, corr, target])


def cone_algebra(benchmark, prog):
    cones, sol, after = mid_solve(prog)
    ds, dz = after.s - sol.s, after.z - sol.z
    rhs = kernel(benchmark, cone_pass, cones, sol.s, sol.z, ds, dz)
    # The same bits in every tree that keeps them.
    benchmark.extra_info["rhs_sha256"] = sha256(rhs)


def test_cone_algebra_n30(benchmark):
    cone_algebra(benchmark, first_subproblem(30)[2])


def test_cone_algebra_n100(benchmark, subproblem):
    cone_algebra(benchmark, subproblem[2])


def iteration(session, degree):
    """One IPM iteration of the session from the residuals' evaluation on,
    as ``ipm.solve`` takes it: the gap, the step and the advance to the
    next iterate, with its residuals."""
    gap = float(session.s @ session.z)
    alpha_p, alpha_d = session.step(gap, gap / degree)
    session.advance(alpha_p, alpha_d)


def ipm_iteration(benchmark, prog):
    """The cold solve's eighth iteration, in a session on a KKT system
    analysed afresh in the stage ordering, as a cold solve analyses it."""
    cones, sol, after = mid_solve(prog)
    session = session_at(prog, sol)
    iterate = session.x, session.y, session.z, session.s

    def restart():
        """The session at the eighth iterate again, with its residuals."""
        for v, start in zip(iterate, (sol.x, sol.y, sol.z, sol.s)):
            v[...] = start
        session.residuals()
        return (session, cones.degree), {}

    benchmark.pedantic(iteration, setup=restart, **KERNEL_ROUNDS)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        iterate, (after.x, after.y, after.z, after.s)))
    args, _ = restart()
    before = session.ldl_solves
    iteration(*args)
    benchmark.extra_info["ldl_solves"] = session.ldl_solves - before
    benchmark.extra_info["next_sha256"] = sha256(*iterate)


def test_ipm_iteration_n30(benchmark):
    ipm_iteration(benchmark, first_subproblem(30)[2])


def test_ipm_iteration_n100(benchmark, subproblem):
    ipm_iteration(benchmark, subproblem[2])


def cold_start(benchmark, prog):
    """The cold start of a solve of ``prog``, on a fresh analysis."""
    session = ipm_session(prog)
    iterate = session.x, session.y, session.z, session.s
    e = prog.cones.identity()

    def restart():
        """The session at (0, 0, e, e) again."""
        for v, start in zip(iterate, (0.0, 0.0, e, e)):
            v[...] = start
        return (), {}

    benchmark.pedantic(session.cold_start, setup=restart, **KERNEL_ROUNDS)
    restart()
    before = session.ldl_solves
    session.cold_start()
    benchmark.extra_info["ldl_solves"] = session.ldl_solves - before
    benchmark.extra_info["cold_sha256"] = sha256(*iterate)


def test_cold_start_n30(benchmark):
    cold_start(benchmark, first_subproblem(30)[2])


def test_cold_start_n100(benchmark, subproblem):
    cold_start(benchmark, subproblem[2])


def reused_session(benchmark, prog):
    """A session of ``prog`` on the analysis of a solve of it, at a copy of
    that solve's iterate, as a warm solve builds it."""
    sol = ipm.solve(prog)
    P, A, G = (ipm._kernel_csr(M) for M in (prog.P, prog.A, prog.G))
    c, b, h = (np.ascontiguousarray(v, dtype=np.float64)
               for v in (prog.c, prog.b, prog.h))

    def arguments():
        iterate = [v.copy() for v in (sol.x, sol.y, sol.z, sol.s)]
        return (P, A, G, c, b, h, prog.cones, iterate, sol._analysis,
                prog.stage), {}

    session = benchmark.pedantic(ipm._Session, setup=arguments,
                                 **KERNEL_ROUNDS)
    assert not session.reordered


def test_session_reused_n30(benchmark):
    reused_session(benchmark, first_subproblem(30)[2])


def test_session_reused_n100(benchmark, subproblem):
    reused_session(benchmark, subproblem[2])


@pytest.mark.parametrize("boundary_at, N", [(ignition_fit, 30),
                                            (ignition_fit, 100),
                                            (current_state, 100)],
                         ids=["ignition-n30", "ignition-n100", "replan-n100"])
def test_plan(benchmark, boundary_at, N):
    """A whole plan: run_scp from the initial guess to convergence."""
    boundary, cfg = boundary_at(N)
    prob = PlanningProblem(boundary, VP, cfg)
    ref0 = initial_guess_planning(boundary, cfg, VP)
    settings = ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr)
    out = benchmark.pedantic(run_scp, args=(prob, ref0, settings),
                             rounds=10, iterations=1)
    assert out.converged
    benchmark.extra_info["scp_iters"] = out.iterations
    benchmark.extra_info["ipm_iters"] = sum(rec.solver_iterations
                                            for rec in out.log)
