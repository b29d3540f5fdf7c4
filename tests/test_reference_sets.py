"""Convergence gate: the benchmark's three reference sets, planned as
``planbench/planning.py`` plans them, keep their clean plans within their
SCP iteration budget.

A change can lose plans while every unit test passes: an IPM that polishes
its loose solves less (one polish iteration in place of three) converges
the replan-n100 set in 21 SCP iterations instead of 15. The bounds are the
values measured when the gate was written; a change that improves
convergence tightens them.

``benches/corpus.py --diff``, the plan-by-plan comparison of two trees,
is held to failing when a plan moves.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PLANBENCH = ROOT / "planbench"


@pytest.fixture(scope="module")
def planbench():
    """planbench's ``planning`` and ``scenarios`` modules, imported from its
    directory as ``benches/corpus.py`` imports them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PLANBENCH))
        import planning
        import scenarios
    return planning, scenarios


@pytest.mark.parametrize("workload, clean_floor, scp_ceiling", [
    ("replan-n100", 3, 15),     # 3 states, each clean in 5 iterations
    ("ignition-n30", 15, 109),  # 24 states; the 9 others end infeasible
    ("ignition-n100", 5, 53),   # 6 states; 1 ends infeasible
], ids=["replan-n100", "ignition-n30", "ignition-n100"])
def test_reference_set_keeps_its_clean_plans(planbench, workload,
                                             clean_floor, scp_ceiling):
    planning, scenarios = planbench
    w = planning.WORKLOADS[workload]
    results = [planning.plan(w, state) for state in
               scenarios.reference_states(w.nominal, w.reference_count)]
    # Clean: converged and passing every planning.check.
    assert sum(r.ok for r in results) >= clean_floor
    # Over every plan of the set, failed ones included.
    assert sum(r.scp_iters for r in results) <= scp_ceiling


def test_corpus_diff_exits_1_when_a_plan_moves(tmp_path):
    # On the replan-n100 reference set (3 plans): a run saved, compared
    # with itself (exit 0), with a copy whose first plan has another
    # z_hash (exit 1), and with one whose first plan made one fresh KKT
    # analysis more, all else the same (exit 1). The self-comparison plans
    # in two worker processes (--jobs 2), which must print the same plan
    # lines in the same order. Each run is a subprocess, since the script
    # leaves its counting wrappers on planner and scp.
    def corpus(*args):
        done = subprocess.run(
            [sys.executable, str(ROOT / "benches" / "corpus.py"),
             "--workload", "replan-n100", *args],
            capture_output=True, text=True, check=False)
        return done.returncode, [json.loads(line)
                                 for line in done.stdout.splitlines()]

    code, lines = corpus()
    assert code == 0 and len(lines) == 4     # 3 plans and the totals
    def saved_run(name, **changed):
        """The run, its first plan's fields ``changed``, as a file."""
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in [
            lines[0] | changed, *lines[1:]]))
        return path

    saved, moved = saved_run("saved"), saved_run("moved", z_hash="0" * 16)
    reordered = saved_run("reordered", reorders=lines[0]["reorders"] + 1)
    for path, expected, count, jobs in ((saved, 0, 0, "2"), (moved, 1, 1, "1"),
                                        (reordered, 1, 1, "1")):
        code, out = corpus("--diff", str(path), "--jobs", jobs)
        assert code == expected
        assert out[:3] == lines[:3]
        assert out[-1]["diff"] == {"compared": 3, "moved": count,
                                   "class_moved": 0, "missing": 0}
