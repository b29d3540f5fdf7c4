"""Spans around the calls into each layer, for the traced run.

``Tracer.installed()`` replaces module attributes of the package with timed
wrappers and puts the originals back on exit; nothing in the package is
edited. Spans carry name, start, end, parent and plan id, stay in memory,
and are written out by ``Tracer.dump`` when the run ends.

A hook whose target no longer exists is skipped, and every metric that needs
it is reported as absent (``None``) instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean

import numpy as np

from rlv_landing import env, planner, scp
from rlv_landing.conic import ipm

PLAN = "plan"
BOOKKEEPING = "trace.bookkeeping"   # tracer work inside a plan: fill, patterns


class Span:
    __slots__ = ("name", "start", "end", "parent", "plan", "attrs")

    def __init__(self, name: str, start: float, parent: int, plan: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.plan = plan
        self.attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _pattern(program) -> str:
    """Hash of the A and G sparsity patterns of a program."""
    h = hashlib.blake2b(digest_size=16)
    for mat in (program.A, program.G):
        csr = mat.tocsr()
        if not csr.has_sorted_indices:
            csr = csr.sorted_indices()
        h.update(np.asarray(csr.shape, np.int64).tobytes())
        h.update(csr.indptr.astype(np.int64).tobytes())
        h.update(csr.indices.astype(np.int64).tobytes())
    return h.hexdigest()


def _build_attrs(program) -> dict:
    return {"n_eq": program.n_eq, "n_ineq": program.n_ineq,
            "nnz": program.A.nnz + program.G.nnz, "pattern": _pattern(program)}


def _solve_attrs(solution) -> dict:
    return {"status": solution.status, "iters": solution.iterations}


class _LuProxy:
    """A factorization whose triangular solves are timed."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        with self._tracer.span("ipm.trisolve"):
            return self._lu.solve(*args, **kwargs)


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``conic.ipm``."""

    def __init__(self, spla, tracer: "Tracer"):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, K, *args, **kwargs):
        tracer = self._tracer
        with tracer.span("ipm.factor") as span:
            lu = self._spla.splu(K, *args, **kwargs)
        with tracer.span(BOOKKEEPING):
            span.attrs = {"dim": K.shape[0], "nnz": K.nnz,
                          "fill": lu.L.nnz + lu.U.nnz}
        return _LuProxy(lu, tracer)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()       # span names whose hook is missing
        self._stack: list[int] = []
        self._plan = -1
        self._patches: list[tuple[object, str, object]] = []
        self.solve_fn = None                # timed ladder for run_scp

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self._plan)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def plan_span(self):
        self._plan += 1
        with self.span(PLAN):
            yield

    def _wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                with tracer.span(BOOKKEEPING):
                    span.attrs = attrs(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, attrs))

    @contextmanager
    def installed(self):
        """Install every hook; restore the package on exit."""
        try:
            self._patch(planner, "propagate_coast", "planner.coast")
            self._patch(planner, "fit_coast_polynomial", "planner.coast")
            self._patch(planner, "initial_guess_planning", "planner.guess")
            self._patch(scp, "run_scp", "scp.run")
            self._patch(planner.PlanningProblem, "build", "planner.build",
                        _build_attrs)
            self._patch(planner, "linearize_planning", "planner.linearize")
            self._patch(env, "planner_jacobian", "env.jacobian")
            self._patch(planner, "scale_program", "scaling.scale_program")
            self._patch(planner, "equilibrate_rows", "scaling.equilibrate_rows")
            self._patch(ipm, "solve", "ipm.solve", _solve_attrs)
            robust = getattr(ipm, "solve_robust", None)
            if robust is None:
                self.absent.add("ipm.ladder")
            else:
                self.solve_fn = self._wrap("ipm.ladder", robust)
            spla = getattr(ipm, "spla", None)
            if spla is None or not hasattr(spla, "splu"):
                self.absent.update(("ipm.factor", "ipm.trisolve"))
            else:
                self._patches.append((ipm, "spla", spla))
                ipm.spla = _SplaProxy(spla, self)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
            self.solve_fn = None

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for span in self.spans:
                rec = {"name": span.name, "start": span.start - t0,
                       "end": span.end - t0, "parent": span.parent,
                       "plan": span.plan}
                if span.attrs:
                    rec.update(span.attrs)
                fh.write(json.dumps(rec) + "\n")


# Metric -> span names whose hooks it needs.
_NEEDS = {
    "planner.coast_s": ("planner.coast",),
    "planner.guess_s": ("planner.guess",),
    "planner.build_s": ("planner.build",),
    "planner.build_calls": ("planner.build",),
    "planner.linearize_s": ("planner.linearize",),
    "planner.linearize_calls": ("planner.linearize",),
    "planner.n_eq": ("planner.build",),
    "planner.n_ineq": ("planner.build",),
    "planner.nnz": ("planner.build",),
    "planner.pattern_changes": ("planner.build",),
    "env.jacobian_s": ("env.jacobian",),
    "env.jacobian_calls": ("env.jacobian",),
    "scaling.s": ("scaling.scale_program", "scaling.equilibrate_rows"),
    "scp.self_s": ("scp.run", "planner.build", "ipm.ladder"),
    "ipm.solve_s": ("ipm.solve",),
    "ipm.solve_calls": ("ipm.solve",),
    "ipm.iters.mean": ("ipm.solve",),
    "ipm.ladder_retries": ("ipm.solve", "ipm.ladder"),
    "ipm.failed_ratio": ("ipm.solve",),
    "ipm.factor_s": ("ipm.factor",),
    "ipm.factor_calls": ("ipm.factor",),
    "ipm.kkt_dim": ("ipm.factor",),
    "ipm.kkt_nnz": ("ipm.factor",),
    "ipm.fill_nnz": ("ipm.factor",),
    "ipm.trisolve_s": ("ipm.trisolve",),
    "ipm.trisolve_calls": ("ipm.trisolve",),
    "ipm.self_s": ("ipm.solve", "ipm.factor", "ipm.trisolve"),
}

# Self-time metrics that, with trace.remainder_s, add up to trace.plan_s.
SELF_TIMES = {
    "planner.coast_s": ("planner.coast",),
    "planner.guess_s": ("planner.guess",),
    "planner.build_s": ("planner.build",),
    "planner.linearize_s": ("planner.linearize",),
    "env.jacobian_s": ("env.jacobian",),
    "scaling.s": ("scaling.scale_program", "scaling.equilibrate_rows"),
    "scp.self_s": ("scp.run",),
    "ipm.self_s": ("ipm.solve",),
    "ipm.factor_s": ("ipm.factor",),
    "ipm.trisolve_s": ("ipm.trisolve",),
    "trace.bookkeeping_s": (BOOKKEEPING,),
}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-plan means of the per-layer metrics from the recorded spans.

    A layer's self time is its spans' duration minus their child spans'.
    ``planner.linearize_s`` is self time (without ``env.jacobian_s``); the
    solve, factorization and triangular-solve times include their children.
    """
    spans = tracer.spans
    self_s = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.seconds
    n_plans = sum(1 for s in spans if s.name == PLAN)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_total(*names):
        return sum(self_s[i] for name in names for i in idx(name)) / n_plans

    def total(name):
        return sum(spans[i].seconds for i in idx(name)) / n_plans

    def calls(name):
        return len(idx(name)) / n_plans

    def mean_attr(name, key):
        vals = [spans[i].attrs[key] for i in idx(name) if spans[i].attrs]
        return fmean(vals) if vals else 0.0

    m: dict[str, float | None] = {}
    for metric, names in SELF_TIMES.items():
        m[metric] = self_total(*names)
    m["planner.build_calls"] = calls("planner.build")
    m["planner.linearize_calls"] = calls("planner.linearize")
    m["planner.n_eq"] = mean_attr("planner.build", "n_eq")
    m["planner.n_ineq"] = mean_attr("planner.build", "n_ineq")
    m["planner.nnz"] = mean_attr("planner.build", "nnz")
    changes, last = 0, {}
    for i in idx("planner.build"):
        s = spans[i]
        if not s.attrs:               # the build raised
            continue
        pattern = s.attrs["pattern"]
        if s.plan in last and last[s.plan] != pattern:
            changes += 1
        last[s.plan] = pattern
    m["planner.pattern_changes"] = changes / n_plans
    m["env.jacobian_calls"] = calls("env.jacobian")

    solves = [spans[i] for i in idx("ipm.solve") if spans[i].attrs]
    m["ipm.solve_s"] = total("ipm.solve")
    m["ipm.solve_calls"] = calls("ipm.solve")
    m["ipm.iters.mean"] = fmean(s.attrs["iters"] for s in solves) if solves else 0.0
    m["ipm.failed_ratio"] = (sum(s.attrs["status"] != "optimal" for s in solves)
                             / len(solves)) if solves else 0.0
    ladders = set(idx("ipm.ladder"))
    in_ladder = sum(1 for s in solves if s.parent in ladders)
    m["ipm.ladder_retries"] = (in_ladder - len(ladders)) / n_plans
    m["ipm.factor_s"] = total("ipm.factor")
    m["ipm.factor_calls"] = calls("ipm.factor")
    m["ipm.kkt_dim"] = mean_attr("ipm.factor", "dim")
    m["ipm.kkt_nnz"] = mean_attr("ipm.factor", "nnz")
    m["ipm.fill_nnz"] = mean_attr("ipm.factor", "fill")
    m["ipm.trisolve_s"] = total("ipm.trisolve")
    m["ipm.trisolve_calls"] = calls("ipm.trisolve")

    m["trace.plan_s"] = total(PLAN)
    m["trace.remainder_s"] = m["trace.plan_s"] - sum(m[k] for k in SELF_TIMES)
    for metric, names in _NEEDS.items():
        if tracer.absent.intersection(names):
            m[metric] = None
    return m
