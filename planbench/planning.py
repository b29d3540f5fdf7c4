"""One plan from an initial state, and the check of its result.

A plan follows the path the planner tests take: coast propagation and fit
(ignition-fit mode only), the boundary and problem, the initial guess, and
the SCP loop. Package functions are looked up through their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from rlv_landing import env, planner, scp
from rlv_landing.conic import ipm
from rlv_landing.params import PlanningConfig, VehicleParams

import probe
from scenarios import IGNITION, MIDCOURSE, Nominal

VP = VehicleParams()
COAST_HORIZON = 16.0   # [s], as in the planner tests


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # "ignition-fit" | "current-state"
    N: int
    nominal: Nominal
    reference_count: int   # size of the reference set every run plans


# A reference set takes about three quarters of a 36 s run at today's speed.
WORKLOADS = {w.name: w for w in (
    Workload("ignition-n100", "ignition-fit", 100, IGNITION, 6),
    Workload("replan-n100", "current-state", 100, MIDCOURSE, 3),
    Workload("ignition-n30", "ignition-fit", 30, IGNITION, 24),
)}


@dataclass
class PlanResult:
    seconds: float                # wall time, without the probes inside it
    scaled_seconds: float         # the same, rescaled by the probes (probe.py)
    outcome: str                  # converged | max_iter | scp_failure:<status> | degenerate | error:<type>
    scp_iters: int
    Z: np.ndarray | None = None   # trajectory nodes of the returned reference
    problems: list[str] = field(default_factory=list)
    propellant_kg: float = float("nan")
    defect: float = float("nan")
    peak_rss_mb: float = float("nan")  # the process's peak RSS when the plan ended

    @property
    def error(self) -> bool:
        """The plan ended in an exception the planner does not declare."""
        return self.outcome.startswith("error:")

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def ok(self) -> bool:
        """Converged and passed every check."""
        return self.converged and not self.problems


def _problem(workload: Workload, state: np.ndarray, cfg: PlanningConfig):
    r0, v0, m0 = state[0:3], state[3:6], float(state[6])
    if workload.mode == "ignition-fit":
        coast = planner.propagate_coast(r0, v0, m0, VP, horizon=COAST_HORIZON,
                                        step=cfg.coast_step)
        fit = planner.fit_coast_polynomial(coast, cfg.tc_window)
        boundary = planner.PlanningBoundary(mode="ignition-fit", m0=m0,
                                            coast_fit=fit)
    else:
        boundary = planner.PlanningBoundary(mode="current-state", m0=m0,
                                            r_now=r0, v_now=v0)
    prob = planner.PlanningProblem(boundary, VP, cfg)
    return prob, planner.initial_guess_planning(boundary, cfg, VP)


def nominal_state(workload: Workload) -> np.ndarray:
    n = workload.nominal
    return np.array([*n.r, *n.v, n.m])


def warm_up(workload: Workload) -> None:
    """One SCP iteration (a build and a solve) at the workload's grid."""
    cfg = PlanningConfig(N=workload.N)
    prob, ref0 = _problem(workload, nominal_state(workload), cfg)
    scp.run_scp(prob, ref0, scp.ScpSettings(cfg.eps_scp, 1, cfg.W_tr))


def plan(workload: Workload, state: np.ndarray, tracer=None,
         clock: probe.PlanClock | None = None) -> PlanResult:
    """Plan from ``state``; time the plan, then check what it returned.

    Without a clock the rescaled time equals the wall time.
    """
    cfg = PlanningConfig(N=workload.N)
    settings = scp.ScpSettings(cfg.eps_scp, cfg.max_scp_iter, cfg.W_tr)
    if clock is None:
        clock = probe.PlanClock(lambda: probe.REFERENCE_S)
    solve_fn = None if tracer is None else tracer.solve_fn
    if clock.every is not None:
        inner = solve_fn

        def solve_fn(program, solver_settings):
            clock.tick()
            return (inner or ipm.solve_robust)(program, solver_settings)
    kwargs = {} if solve_fn is None else {"solve_fn": solve_fn}
    out = None
    with nullcontext() if tracer is None else tracer.plan_span():
        clock.start()
        try:
            prob, ref0 = _problem(workload, state, cfg)
            out = scp.run_scp(prob, ref0, settings, **kwargs)
        except scp.ScpFailure as exc:
            outcome, iters = f"scp_failure:{exc.status}", exc.iteration
        except env.DegenerateStateError:
            outcome, iters = "degenerate", 0
        except Exception as exc:  # noqa: BLE001  (counted, not fatal)
            outcome, iters = f"error:{type(exc).__name__}", 0
    seconds, scaled = clock.stop()
    if out is None:
        return PlanResult(seconds, scaled, outcome, iters)
    ref = out.reference
    result = PlanResult(seconds, scaled,
                        "converged" if out.converged else "max_iter",
                        out.iterations, Z=ref.Z)
    if out.converged:
        result.problems = check(prob, ref)
        result.propellant_kg = float(ref.m[0] - ref.m[-1])
        result.defect = trapezoid_defect(prob, ref)
    return result


def check(prob, ref) -> list[str]:
    """Names of the checks a converged plan fails.

    Tolerances are those of ``test_converges_small_grid``.
    """
    problems = []
    if np.abs(ref.r[-1]).max() > 1e-4:
        problems.append("terminal position off the pad")
    if np.abs(ref.v[-1]).max() > 1e-5:
        problems.append("terminal velocity not zero")
    if not np.all(np.diff(ref.m) < 0):
        problems.append("mass not strictly decreasing")
    tight = np.abs(np.linalg.norm(ref.T, axis=1) - ref.Gamma) / ref.Gamma
    if not tight.max() < 1e-6:
        problems.append("thrust relaxation not tight")
    if prob.boundary.mode == "ignition-fit":
        lo, hi = prob.boundary.coast_fit.window
        if not lo <= ref.t_c <= hi:
            problems.append("ignition time outside the fit window")
    return problems


def trapezoid_defect(prob, ref) -> float:
    """Largest scaled nonlinear trapezoid defect, as ``test_trapezoid_consistency``."""
    lo, hi = prob.scaling_bounds(ref)
    half = 0.5 * (np.asarray(hi) - np.asarray(lo))
    N, nz = prob.N, planner.NZ
    worst = 0.0
    for k in range(N):
        fk = env.planner_rhs(ref.Z[k], VP, prob.opts)
        fk1 = env.planner_rhs(ref.Z[k + 1], VP, prob.opts)
        lhs = ref.Z[k + 1, :7] - ref.Z[k, :7]
        rhs = (ref.eta / (2 * N)) * (fk + fk1)
        err = np.abs(lhs - rhs) / half[k * nz:k * nz + 7]
        worst = max(worst, float(err.max()))
    return worst
