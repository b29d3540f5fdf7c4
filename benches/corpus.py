"""Replay benchmark plans and print one JSON line per plan.

Run from the repository root (pytest does not collect this file):

    python3 benches/corpus.py --workload ignition-n30 --seeds 5 6 --count 16

It plans the workload's reference set, then the first ``--count`` states of
each seed, through ``planbench/planning.py``'s ``plan``, the path the
benchmark times, with every SCP subproblem solved by ``ipm.solve``. Each
plan prints one JSON line:

- ``set``, ``plan``: which state;
- ``outcome``, ``scp_iters``: how the plan ended, as planbench reports it;
- ``propellant_kg``: the propellant of a converged plan, else null;
- ``stalls``: the status and primal residual of each subproblem solve that
  ended without a verdict (optimal, infeasible, unbounded).

A last line holds the totals. The same file runs on any tree whose
``ipm.solve`` takes a program and settings, so it compares two commits
plan by plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("optimal", "infeasible", "unbounded")


class SolveRecorder:
    """Stands in for planbench's tracer: only its ``solve_fn`` is used."""

    def __init__(self, ipm):
        self.ipm = ipm
        self.solves = 0
        self.stalls: list[dict] = []

    def plan_span(self):
        self.solves, self.stalls = 0, []
        return nullcontext()

    def solve_fn(self, program, settings):
        sol = self.ipm.solve(program, settings)
        self.solves += 1
        if sol.status not in VERDICTS:
            self.stalls.append({"status": sol.status,
                                "primal_res": sol.primal_res})
        return sol


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=[])
    p.add_argument("--count", type=int, default=16,
                   help="states planned per seed")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "planbench")]
    import planning
    import scenarios
    from rlv_landing.conic import ipm

    workload = planning.WORKLOADS[args.workload]
    sets = [("reference", scenarios.reference_states(
        workload.nominal, workload.reference_count))]
    sets += [(seed, scenarios.dispersed_states(seed, workload.nominal,
                                               args.count))
             for seed in args.seeds]

    recorder = SolveRecorder(ipm)
    totals = {"workload": workload.name, "plans": 0, "plan_s": 0.0,
              "solves": 0, "stalls": 0, "outcomes": {}}
    for name, states in sets:
        for i, state in enumerate(states):
            result = planning.plan(workload, state, recorder)
            totals["plans"] += 1
            totals["plan_s"] += result.seconds
            totals["solves"] += recorder.solves
            totals["stalls"] += len(recorder.stalls)
            outcomes = totals["outcomes"]
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            print(json.dumps({
                "workload": workload.name, "set": name, "plan": i,
                "outcome": result.outcome, "scp_iters": result.scp_iters,
                "propellant_kg": result.propellant_kg
                if result.converged else None,
                "stalls": recorder.stalls}), flush=True)
    totals["plan_s"] = round(totals["plan_s"], 3)
    print(json.dumps({"totals": totals}))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
