"""Replay benchmark plans and print every retry ladder of ``ipm.solve_robust``.

Run from the repository root (pytest does not collect this file):

    python3 benches/ladder_corpus.py --workload ignition-n30 --seeds 5 6 7 8 --count 16

It plans the workload's reference set, then the first ``--count`` states of
each seed, through ``planbench/planning.py``'s ``plan``, the path the
benchmark times. Each SCP subproblem goes through a wrapped
``ipm.solve_robust`` that records the result of every ``ipm.solve`` it runs.
A call whose first solve is no verdict (optimal, infeasible, unbounded) is a
ladder, whether or not it then retried. Each ladder prints one JSON line:

- ``set``, ``plan``, ``scp_iter``: which subproblem solve of the plan (a
  full-tolerance re-solve of a small step counts as one more);
- ``first_status``, ``first_primal_res``, ``first_gap``: how rung 1 ended;
- ``rung``: the solve that ended the ladder, 1 if nothing was retried;
- ``status``: the status ``solve_robust`` returned; ``retry_s``: seconds
  spent in rungs 2 and later;
- ``outcome``: how the plan ended, as planbench reports it.

A last line holds the totals. It runs on any tree whose ``solve_robust``
calls ``ipm.solve`` through the module, so the same file compares two
commits' ladders plan by plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("optimal", "infeasible", "unbounded")


class LadderRecorder:
    """Stands in for planbench's tracer: only its ``solve_fn`` is used."""

    def __init__(self, ipm):
        self.ipm = ipm
        self.ladders: list[dict] = []
        self.scp_iter = 0

    def plan_span(self):
        self.ladders, self.scp_iter = [], 0
        return nullcontext()

    def solve_fn(self, program, settings):
        ipm = self.ipm
        solve, solves = ipm.solve, []

        def recorded(prog, variant):
            t0 = time.perf_counter()
            sol = solve(prog, variant)
            solves.append((sol, time.perf_counter() - t0))
            return sol

        self.scp_iter += 1
        ipm.solve = recorded
        try:
            result = ipm.solve_robust(program, settings)
        finally:
            ipm.solve = solve
        first = solves[0][0]
        if first.status not in VERDICTS:
            self.ladders.append({
                "scp_iter": self.scp_iter,
                "first_status": first.status,
                "first_primal_res": first.primal_res,
                "first_gap": first.gap,
                "rung": len(solves),
                "status": result.status,
                "retry_s": round(sum(s for _, s in solves[1:]), 4),
            })
        return result


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

    recorder = LadderRecorder(ipm)
    totals = {"workload": workload.name, "plans": 0, "plan_s": 0.0,
              "ladders": 0, "retried": 0, "skipped": 0, "retries": 0,
              "retry_s": 0.0, "rescues": 0, "outcomes": {}}
    for name, states in sets:
        for i, state in enumerate(states):
            result = planning.plan(workload, state, recorder)
            totals["plans"] += 1
            totals["plan_s"] += result.seconds
            outcomes = totals["outcomes"]
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            for ladder in recorder.ladders:
                retries = ladder["rung"] - 1
                totals["ladders"] += 1
                totals["retried"] += retries > 0
                totals["skipped"] += retries == 0
                totals["retries"] += retries
                totals["retry_s"] += ladder["retry_s"]
                totals["rescues"] += ladder["status"] == "optimal"
                print(json.dumps({"workload": workload.name, "set": name,
                                  "plan": i, **ladder,
                                  "outcome": result.outcome}), flush=True)
    totals["plan_s"] = round(totals["plan_s"], 3)
    totals["retry_s"] = round(totals["retry_s"], 3)
    print(json.dumps({"totals": totals}))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
