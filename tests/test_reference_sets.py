"""Convergence gate: the benchmark's three reference sets, planned as
``planbench/planning.py`` plans them, keep their clean plans within their
SCP iteration budget.

A change can lose plans while every unit test passes: an IPM that polishes
its loose solves less (one polish iteration in place of three) converges
the replan-n100 set in 21 SCP iterations instead of 15. The bounds are the
values measured when the gate was written; a change that improves
convergence tightens them.
"""

from pathlib import Path

import pytest

PLANBENCH = Path(__file__).resolve().parents[1] / "planbench"


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
