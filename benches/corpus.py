"""Replay benchmark plans and print one JSON line per plan.

Run from the repository root (pytest does not collect this file):

    python3 benches/corpus.py --workload ignition-n30 --seeds 5 6 --count 16

It plans the workload's reference set, then the first ``--count`` states of
each seed, through ``planbench/planning.py``'s ``plan``, the path the
benchmark times, with every SCP subproblem solved by ``ipm.solve``. Each
plan prints one JSON line:

- ``set``, ``plan``: which state;
- ``outcome``, ``scp_iters``: how the plan ended, as planbench reports it;
- ``solves``: the plan's subproblem solves;
- ``ipm_iters``: the IPM iterations of every subproblem solve of the plan;
- ``ldl_solves``: the LDL' solves of those solves (``ldl_solves``), the
  cold starts' and every refinement step's included;
- ``reorders``: the solves that made a fresh stage-ordered analysis of
  their KKT matrix (``reordered``), having no start whose analysis matched;
- ``builds``: the subproblem builds (calls of
  ``planner.linearize_planning``, which every build makes once);
- ``templates``: the build templates made (``planner._BuildTemplate``
  constructions), one per gate set the plan's builds enter, so that
  ``reorders`` <= ``templates`` says no solve analysed a gate set's KKT
  pattern twice;
- ``projection_steps``: the Gauss-Newton steps (calls of
  ``scp.project_onto_rows``);
- ``propellant_kg``: the propellant of a converged plan, else null;
- ``problems``: the ``planning.check`` problems of a converged plan;
- ``z_hash``: the first 16 hex digits of the SHA-256 of the returned
  ``Z``'s bytes, or null when the plan returned none;
- ``stalls``: the status, primal residual, IPM iterations and ``resumed``
  flag of each subproblem solve that ended without a verdict (optimal,
  infeasible).

A last line holds the totals of those counts, the plan time and the
outcomes. The same file runs on any tree whose
``ipm.solve`` takes a program and its tolerance argument and returns a
solution that counts its ``ldl_solves``, so it compares two commits plan
by plan: two trees give the same answers when their plan lines (all but
the totals, which hold timings and counts) are the same.

``--diff SAVED`` makes that comparison. SAVED is this script's output on
another tree. After the totals, one line names each plan of this run whose
``outcome``, ``scp_iters``, ``propellant_kg``, ``z_hash`` or any of the
counts (``solves``, ``ipm_iters``, ``ldl_solves``, ``reorders``,
``builds``, ``templates``, ``projection_steps``) differs from its line in
SAVED, with the old and new values, so that "the same plans" covers the
solver's work, its fresh KKT analyses included, as well as the answer. A
field that the saved lines lack (``solves`` or ``templates``, in runs of
trees whose lines did not carry it) is not compared, and the last line
lists it as ``uncompared``. That line counts the plans compared, moved,
moved in class (``outcome`` or ``scp_iters``), and missing from SAVED. The
script then exits 1 if any plan moved or is missing, so that the
comparison serves as a check, and 0 if none did:

    python3 benches/corpus.py --workload replan-n100 --seeds 41 > old.jsonl

on one tree, then on the other:

    python3 benches/corpus.py --workload replan-n100 --seeds 41 --diff old.jsonl

``--jobs J`` plans the states in J worker processes, at most one per
core, each with its own counting wrappers. It prints the same plan lines
in the same order as one process; only the totals' ``plan_s`` reads other
timings:

    python3 benches/corpus.py --workload ignition-n30 --seeds 41 --jobs 2

``--jitter K`` plans each state a second time with its component K (0-2
r, 3-5 v, 6 m) moved up by one ulp (``np.nextafter``), and prints a line
for each plan whose ``outcome`` or ``scp_iters`` moved, then one that
counts them (``class_moved``, of which ``outcome_moved`` changed the
outcome) and gives the largest propellant move over the plans clean
(converged, with no ``planning.check`` problem) both ways, with its plan.
The jittered plans count in no total.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("optimal", "infeasible")
# The counts of a plan, each in its line and summed in the totals.
COUNTS = ("solves", "ipm_iters", "ldl_solves", "reorders", "builds",
          "templates", "projection_steps")
# The fields of a plan line that ``--diff`` compares.
COMPARED = ("outcome", "scp_iters", "propellant_kg", "z_hash", *COUNTS)
# The fields whose change moves a plan's class, not only its last bits.
CLASS = ("outcome", "scp_iters")


class SolveRecorder:
    """Stands in for planbench's tracer: only its ``plan_span`` and
    ``solve_fn`` are used. It holds the counts of the last plan."""

    def __init__(self, ipm):
        self.ipm = ipm
        self.plan_span()

    def plan_span(self):
        self.counts, self.stalls = dict.fromkeys(COUNTS, 0), []
        return nullcontext()

    def count(self, owner, name: str, key: str) -> None:
        """Replace ``owner.name`` with a wrapper that counts its calls as
        ``key``."""
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, name, counted)

    def solve_fn(self, program, settings):
        sol = self.ipm.solve(program, settings)
        self.counts["solves"] += 1
        self.counts["ipm_iters"] += sol.iterations
        self.counts["ldl_solves"] += sol.ldl_solves
        self.counts["reorders"] += sol.reordered
        if sol.status not in VERDICTS:
            self.stalls.append({"status": sol.status,
                                "primal_res": sol.primal_res,
                                "iterations": sol.iterations,
                                "resumed": sol.resumed})
        return sol


def plan_key(line: dict) -> tuple:
    return line["workload"], line["set"], line["plan"]


def saved_plans(path: str) -> dict:
    """The plan lines of a saved run, by ``plan_key``."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    return {plan_key(line): line for line in lines if "plan" in line}


class Run:
    """The plans of one workload's states in this process: planbench's
    ``plan`` with a ``SolveRecorder``, whose counting wrappers it puts on
    planner and scp, and under --jitter (``jitter``, the component) a
    second plan of each state with that component one ulp up."""

    def __init__(self, workload: str, jitter: int | None):
        import planning
        from rlv_landing import planner, scp
        from rlv_landing.conic import ipm

        self.planning, self.jitter = planning, jitter
        self.workload = planning.WORKLOADS[workload]
        self.recorder = SolveRecorder(ipm)
        self.recorder.count(planner, "linearize_planning", "builds")
        self.recorder.count(planner, "_BuildTemplate", "templates")
        self.recorder.count(scp, "project_onto_rows", "projection_steps")

    def plan(self, task: tuple) -> tuple:
        """Plan one state, ``task`` = (set, index, state): its plan line
        and result, and the jittered plan's result (None without
        --jitter)."""
        import numpy as np

        name, i, state = task
        recorder = self.recorder
        result = self.planning.plan(self.workload, state, recorder)
        line = {
            "workload": self.workload.name, "set": name, "plan": i,
            "outcome": result.outcome, "scp_iters": result.scp_iters,
            **recorder.counts,
            "propellant_kg": result.propellant_kg
            if result.converged else None,
            "problems": result.problems,
            "z_hash": None if result.Z is None else
            hashlib.sha256(result.Z.tobytes()).hexdigest()[:16],
            "stalls": recorder.stalls}
        again = None
        if self.jitter is not None:
            other = state.copy()
            other[self.jitter] = np.nextafter(other[self.jitter], np.inf)
            again = self.planning.plan(self.workload, other, recorder)
        return line, result, again


# A --jobs worker process's Run, made once by ``start_worker``.
_worker_run = None


def start_worker(workload: str, jitter: int | None) -> None:
    global _worker_run
    _worker_run = Run(workload, jitter)


def plan_in_worker(task: tuple) -> tuple:
    return _worker_run.plan(task)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="*", default=[])
    p.add_argument("--count", type=int, default=16,
                   help="states planned per seed")
    p.add_argument("--diff", metavar="SAVED",
                   help="a saved run of another tree to compare plans with")
    p.add_argument("--jitter", metavar="K", type=int, choices=range(7),
                   help="plan each state again with component K one ulp up")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per core")
    args = p.parse_args(argv)
    cores = os.cpu_count() or 1
    if not 1 <= args.jobs <= cores:
        p.error(f"--jobs must be from 1 to {cores}, the cores")
    saved = None if args.diff is None else saved_plans(args.diff)

    # Spawned workers start with this sys.path.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "planbench")]
    import scenarios

    run = Run(args.workload, args.jitter)
    workload = run.workload
    sets = [("reference", scenarios.reference_states(
        workload.nominal, workload.reference_count))]
    sets += [(seed, scenarios.dispersed_states(seed, workload.nominal,
                                               args.count))
             for seed in args.seeds]
    tasks = [(name, i, state) for name, states in sets
             for i, state in enumerate(states)]

    totals = {"workload": workload.name, "plans": 0, "plan_s": 0.0,
              **dict.fromkeys(COUNTS, 0), "stalls": 0, "outcomes": {}}
    moved, missing, status, uncompared = [], 0, 0, set()
    jittered, jitter_moves = [], []
    with (nullcontext() if args.jobs == 1 else
          multiprocessing.get_context("spawn").Pool(
              args.jobs, start_worker, (args.workload, args.jitter))) as pool:
        # Pool.imap returns the plans in task order, as map does.
        planned = map(run.plan, tasks) if pool is None else \
            pool.imap(plan_in_worker, tasks)
        for line, result, again in planned:
            name, i = line["set"], line["plan"]
            totals["plans"] += 1
            totals["plan_s"] += result.seconds
            for key in COUNTS:
                totals[key] += line[key]
            totals["stalls"] += len(line["stalls"])
            outcomes = totals["outcomes"]
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            print(json.dumps(line), flush=True)
            if again is not None:
                jittered.append((name, i, result, again))
            if saved is None:
                continue
            old = saved.get(plan_key(line))
            if old is None:
                missing += 1
                continue
            uncompared.update(field for field in COMPARED
                              if field not in old)
            changes = {field: [old[field], line[field]]
                       for field in COMPARED
                       if field in old and old[field] != line[field]}
            if changes:
                moved.append({"set": name, "plan": i, **changes})
    totals["plan_s"] = round(totals["plan_s"], 3)
    print(json.dumps({"totals": totals}))
    if saved is not None:
        for change in moved:
            print(json.dumps({"moved": change}))
        class_moved = sum(any(field in change for field in CLASS)
                          for change in moved)
        print(json.dumps({"diff": {"compared": totals["plans"] - missing,
                                   "moved": len(moved),
                                   "class_moved": class_moved,
                                   "missing": missing,
                                   **({"uncompared": sorted(uncompared)}
                                      if uncompared else {})}}))
        status = int(bool(moved or missing))
    if args.jitter is not None:
        largest, clean_both = None, 0
        for name, i, result, again in jittered:
            changes = {field: [getattr(result, field), getattr(again, field)]
                       for field in CLASS
                       if getattr(result, field) != getattr(again, field)}
            if changes:
                jitter_moves.append(changes)
                print(json.dumps({"jitter_moved": {"set": name, "plan": i,
                                                   **changes}}))
            if result.ok and again.ok:
                clean_both += 1
                move = abs(again.propellant_kg - result.propellant_kg)
                if largest is None or move > largest["kg"]:
                    largest = {"kg": move, "set": name, "plan": i}
        print(json.dumps({"jitter": {
            "component": args.jitter, "compared": len(jittered),
            "class_moved": len(jitter_moves),
            "outcome_moved": sum("outcome" in c for c in jitter_moves),
            "clean_both": clean_both, "max_propellant_move": largest}}))
    return status


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
