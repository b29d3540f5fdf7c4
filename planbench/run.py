"""Plan-latency benchmark: dispersed scenario -> converged plan.

Usage, from the repository root:

    python3 planbench/run.py --workload ignition-n100 --seed 1 --seconds 36 --trace 0

Each run is one process that plans one scenario at a time (a closed loop
with one client). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. ``--trace 0`` gives the end-to-end metrics; ``--trace
1`` gives the per-layer metrics from a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPS = 5
PROBE_EVERY_S = 0.25   # least time between host-speed probes inside a plan


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p, p.parse_args(argv)


def run_plans(workload, states, seconds, clock, tracer=None, count=None,
              first=0):
    """Plan states in order: ``count`` of them, or the ``first`` ones and
    then as many more as fit in ``seconds`` (a plan starts only if the
    median plan so far still fits)."""
    import planning

    results = []
    t0 = time.perf_counter()
    while len(results) < (count if count is not None else len(states)):
        if count is None and len(results) >= max(first, 1):
            if time.perf_counter() - t0 + median(r.seconds for r in results) > seconds:
                break
        result = planning.plan(workload, states[len(results)], tracer, clock)
        result.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        results.append(result)
    return results


def reference_correct(workload, results) -> bool:
    """Every converged plan of the reference set passed the checks."""
    return not any(r.converged and r.problems
                   for r in results[:workload.reference_count])


def outcome_metrics(results) -> dict:
    """The end-to-end figures that come from plan outcomes."""
    ok = [r for r in results if r.ok]
    return {
        "plan_s.p50": median(r.seconds for r in results),
        "converged_ratio": len(ok) / len(results),
        "goodput_plans_per_s": len(ok) / sum(r.seconds for r in results),
        "propellant_kg.mean": (sum(r.propellant_kg for r in ok) / len(ok)
                               if ok else None),
        "dyn_defect.max": max((r.defect for r in ok), default=None),
    }


def _report_plans(results) -> list[str]:
    counts: dict[str, int] = {}
    for r in results:
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    lines = ["plans: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))]
    for i, r in enumerate(results):
        lines.append(f"  plan {i}: {r.outcome} scp_iters={r.scp_iters} "
                     f"{r.seconds:.4f} s (rescaled {r.scaled_seconds:.4f} s)"
                     + (f" FAILED CHECKS: {'; '.join(r.problems)}" if r.problems else ""))
    return lines


REPORTED = (("refset_plan_s.scaled_mean", "s"), ("refset_plan_s.p50", "s"),
            ("probe_s.p50", "s"),
            ("plan_s.p50", "s"), ("goodput_plans_per_s", "1/s"),
            ("converged_ratio", "ratio"), ("propellant_kg.mean", "kg"),
            ("dyn_defect.max", "scaled"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser, args = _parse(argv)
    if not (SRC / "rlv_landing" / "__init__.py").is_file():
        print(f"planbench: package source not found under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import rlv_landing
    import planning
    import scenarios
    import spans  # noqa: F401  (imported here so its cost counts as set-up)
    import probe
    import_s = time.perf_counter() - t0
    # Probes inside plans only with tracing off: in a traced run they would
    # sit inside the plan spans.
    clock = probe.PlanClock(probe.Probe(),
                            every=None if args.trace else PROBE_EVERY_S)
    if Path(rlv_landing.__file__).resolve().parent != SRC / "rlv_landing":
        print(f"planbench: rlv_landing imported from {rlv_landing.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in planning.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(planning.WORKLOADS)}")
    workload = planning.WORKLOADS[args.workload]

    # Set-up: scenario generation and one warm-up SCP iteration at the
    # workload's grid, repeated; the import is paid once per process. Both
    # are rescaled by the probes, as plan times are.
    reps = []
    for _ in range(SETUP_REPS):
        clock.start()
        states = np.concatenate([
            scenarios.reference_states(workload.nominal, workload.reference_count),
            scenarios.dispersed_states(args.seed, workload.nominal)])
        planning.warm_up(workload)
        reps.append(clock.stop())
    setup_s = (import_s * probe.REFERENCE_S / clock.probes[0]
               + median(scaled for _, scaled in reps))

    lines = [
        f"planbench workload={workload.name} mode={workload.mode} N={workload.N} "
        f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        + ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS),
        f"inputs: {len(states)} states, sha256 {scenarios.digest(states)}",
        f"setup: import {import_s:.4f} s, reps (wall/rescaled) "
        + ", ".join(f"{wall:.4f}/{scaled:.4f}" for wall, scaled in reps) + " s",
    ]

    if args.trace == 0:
        results = run_plans(workload, states, args.seconds, clock,
                            first=workload.reference_count)
        reference = results[:workload.reference_count]
        correct = reference_correct(workload, results)
        values = {
            "refset_plan_s.scaled_mean":
                sum(r.scaled_seconds for r in reference) / len(reference),
            "refset_plan_s.p50": median(r.seconds for r in reference),
            "probe_s.p50": median(clock.probes),
            "setup_s": setup_s,
            # Up to the end of the reference set, so that it does not move
            # with the seed's plans.
            "peak_rss_mb": reference[-1].peak_rss_mb,
            **outcome_metrics(results),
        }
        lines += _report_plans(results)
        lines.append(f"{len(results)} plans; all end-to-end figures "
                     "(only some are in BENCHMARK.json, see README.md):")
        lines += [f"  {name:<24} {_fmt(values[name]):>14} {unit}"
                  for name, unit in REPORTED]
    else:
        results, correct, values, split = traced_run(workload, states,
                                                     args.seconds, args.seed,
                                                     clock)
        lines += _report_plans(results)
        lines.append(f"self-time split of trace.plan_s = "
                     f"{values['trace.plan_s']:.4f} s:")
        lines += [f"  {k:<24} {v:.4f} s {100 * v / values['trace.plan_s']:6.1f}%"
                  for k, v in split]

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace:
        lines += [f"  {name:<26} {_fmt(values[name]):>14} {unit}"
                  for name, unit in declared.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": sum(r.error for r in results),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def traced_run(workload, states, seconds, seed, clock):
    """Untraced plans for the overhead baseline, then the same states again
    under the tracer. The traced results must be identical."""
    import numpy as np
    import spans

    untraced = run_plans(workload, states, 0.5 * seconds, clock)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_plans(workload, states, 0.0, clock, tracer,
                           count=len(untraced))
    tracer.dump(ROOT / ".planbench" / f"spans-{workload.name}-seed{seed}.jsonl")
    identical = all(
        a.outcome == b.outcome and (a.Z is None) == (b.Z is None)
        and (a.Z is None or np.array_equal(a.Z, b.Z))
        for a, b in zip(untraced, traced))
    correct = identical and reference_correct(workload, untraced)
    results = untraced + traced

    values = spans.layer_metrics(tracer)
    values["trace.overhead_ratio"] = (
        median(r.scaled_seconds for r in traced)
        / median(r.scaled_seconds for r in untraced) - 1.0)
    iters = sum(r.scp_iters for r in traced)
    values["scp.iters.mean"] = iters / len(traced)
    values["scp.useful_ratio"] = (sum(r.scp_iters for r in traced if r.ok)
                                  / max(1, iters))
    values.update(outcome_metrics(untraced))
    split = [(k, values[k]) for k in (*spans.SELF_TIMES, "trace.remainder_s")
             if values[k] is not None]
    return results, correct, values, split


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares, in its order."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
