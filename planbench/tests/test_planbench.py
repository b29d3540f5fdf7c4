"""Tests of the benchmark itself: inputs, output format, tracing.

Run from the repository root: ``python3 -m pytest planbench/tests -q``.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import planning
import probe
import run
import scenarios
import spans
from rlv_landing.conic import ipm

BENCH = run.HERE


def test_generator_is_deterministic_for_a_seed():
    a = scenarios.dispersed_states(7, scenarios.IGNITION)
    b = scenarios.dispersed_states(7, scenarios.IGNITION)
    assert a.tobytes() == b.tobytes()
    assert scenarios.digest(a) == scenarios.digest(b)
    assert scenarios.digest(a) != scenarios.digest(
        scenarios.dispersed_states(8, scenarios.IGNITION))
    # Pinned, so a change to the generator or the nominal shows here.
    assert scenarios.digest(scenarios.dispersed_states(1, scenarios.IGNITION)) \
        == "1f02510fa3feb757ec063512cdab332ab5f987a0d0a47f7102daf01182a2f8cf"
    assert scenarios.digest(scenarios.reference_states(scenarios.IGNITION, 6)) \
        == "3425e864a1342c3c83635eea87f194ba7a7a2d12a383986423725b5d5e9e7078"
    # The reference set is a prefix of one fixed stream, apart from every seed's.
    reference = scenarios.reference_states(scenarios.IGNITION, 16)
    assert reference[:6].tobytes() == \
        scenarios.reference_states(scenarios.IGNITION, 6).tobytes()
    assert not np.any(np.all(reference[:, None, :6] == a[None, :, :6], axis=2))
    offsets = a[:, 0:3] - np.asarray(scenarios.IGNITION.r)
    assert np.all(a[:, 6] == scenarios.IGNITION.m)
    assert 0.0 < np.linalg.norm(offsets, axis=1).mean() < 5 * scenarios.SD_R0


@pytest.mark.parametrize("name", sorted(planning.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(name, trace, monkeypatch, capsys):
    # A coarse grid keeps the test short; the metric set does not depend on N.
    small = {k: replace(w, N=10, reference_count=2)
             for k, w in planning.WORKLOADS.items()}
    monkeypatch.setattr(planning, "WORKLOADS", small)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in declared[kind]]
    assert list(result["metrics"]) == names
    report = "\n".join(out[:-1])
    for m in declared[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert m["name"] in report
    if not trace:
        for name_, _ in run.REPORTED:
            assert name_ in report


_PLAN_SCRIPT = """
import hashlib, sys
import planning, scenarios, spans
w = planning.WORKLOADS["ignition-n30"]
state = scenarios.dispersed_states(5, w.nominal)[0]
def digest(result):
    return hashlib.sha256(result.Z.tobytes()).hexdigest()
if sys.argv[1] == "traced-first":
    tracer = spans.Tracer()
    with tracer.installed():
        traced = planning.plan(w, state, tracer)
    assert len(tracer.spans) > 100
    print(digest(traced))
print(digest(planning.plan(w, state)))
"""


def _plan_digests(mode):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", _PLAN_SCRIPT, mode], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return out.stdout.split()


def test_tracing_changes_no_result():
    never_traced = _plan_digests("untraced")
    traced, after = _plan_digests("traced-first")
    assert traced == never_traced[0]
    assert after == never_traced[0]


def test_hooks_are_restored_and_missing_targets_reported_absent(monkeypatch):
    originals = (planning.planner.linearize_planning, ipm.solve, ipm.spla,
                 planning.planner.PlanningProblem.build)
    tracer = spans.Tracer()
    with tracer.installed():
        assert ipm.solve is not originals[1]
    assert (planning.planner.linearize_planning, ipm.solve, ipm.spla,
            planning.planner.PlanningProblem.build) == originals

    monkeypatch.delattr(ipm, "spla")
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert {"ipm.factor", "ipm.trisolve"} <= tracer.absent
    assert not hasattr(ipm, "spla")
    monkeypatch.undo()

    w = replace(planning.WORKLOADS["ignition-n30"], N=10)
    tracer = spans.Tracer()
    with tracer.installed():
        planning.plan(w, planning.nominal_state(w), tracer)
    tracer.absent.add("ipm.factor")
    metrics = spans.layer_metrics(tracer)
    assert metrics["ipm.factor_s"] is None and metrics["ipm.fill_nnz"] is None
    assert metrics["ipm.self_s"] is None
    assert metrics["ipm.trisolve_s"] > 0 and metrics["planner.build_s"] > 0


def test_unexpected_error_is_a_failed_plan_not_a_crash(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(planning.scp, "run_scp", broken)
    w = replace(planning.WORKLOADS["ignition-n30"], N=10)
    result = planning.plan(w, planning.nominal_state(w))
    assert result.outcome == "error:FloatingPointError"
    assert result.error and not result.converged and not result.ok


def test_plan_times_are_rescaled_by_the_probes_around_them():
    probes = iter([0.2, 0.1, 0.3])
    clock = probe.PlanClock(lambda: next(probes))
    w = replace(planning.WORKLOADS["ignition-n30"], N=10)
    states = np.stack([planning.nominal_state(w)] * 2)
    results = run.run_plans(w, states, 0.0, clock, count=2)
    assert clock.probes == [0.2, 0.1, 0.3]
    for r, around in zip(results, (0.15, 0.2)):
        assert r.scaled_seconds == pytest.approx(
            r.seconds * probe.REFERENCE_S / around)


def test_probes_inside_a_plan_change_no_result():
    w = replace(planning.WORKLOADS["ignition-n30"], N=10)
    state = planning.nominal_state(w)
    plain = planning.plan(w, state)
    assert plain.scaled_seconds == plain.seconds
    clock = probe.PlanClock(probe.Probe(), every=0.0)
    probed = planning.plan(w, state, clock=clock)
    assert len(clock.probes) >= 2 + probed.scp_iters
    assert probed.outcome == plain.outcome
    assert np.array_equal(probed.Z, plain.Z)
