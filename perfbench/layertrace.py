"""Spans around the calls into each gradlab layer, recorded from outside.

``Tracer.install`` rebinds layer entry points on the modules that call them
(``gradlab.solver.spsolve``, ``gradlab.harness.runner.run_experiment``, ...)
and ``uninstall`` restores the originals, so an untraced op runs the
package exactly as shipped.  A name that is no longer bound where it is
expected is reported as absent, and the metrics that need it are left out
rather than reported as zero.

Spans live in memory: name, start, end, parent and the id of the op they
belong to.  Worker threads (the threaded sweep) have no span of their own
on the stack, so their outermost spans hang off the op's root span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import gradlab.bernstein
import gradlab.harness.config
import gradlab.harness.records
import gradlab.harness.runner
import gradlab.solver

GRID_STENCILS = ("gradient", "second_derivatives", "divergence_flux", "face_average")


def _entry_points():
    """(owner, attribute, span name) for every layer boundary traced."""
    solver = gradlab.solver
    bern = gradlab.bernstein
    runner = gradlab.harness.runner
    records = gradlab.harness.records
    config = gradlab.harness.config.RunConfig
    points = [
        (runner, "sweep", "harness.sweep"),
        (runner, "run_experiment", "harness.run_experiment"),
        (runner, "persist_record", "harness.persist"),
        (records, "load_record_field", "harness.load"),
        (config, "build_problem", "harness.config"),
        (config, "build_grid", "harness.config"),
        (config, "digest", "harness.config"),
        (runner, "solve", "solver.solve"),
        (solver, "_newton_stage", "solver.newton_stage"),
        (solver, "_residual_values", "solver.residual"),
        (solver, "_jacobian_matrix", "solver.jacobian"),
        (solver, "spsolve", "solver.linsolve"),
        (solver, "sample_source", "model.source"),
        (bern, "sample_source", "model.source"),
        (bern, "check_structure_conditions", "model.structure_check"),
        (runner, "build_exponent_table", "model.exponents"),
        (bern, "prepare_bundle", "bernstein.bundle"),
        (runner, "weak_identity_check", "bernstein.weak"),
        (runner, "thm1_ledger", "bernstein.thm1"),
        (runner, "thm2_ledger", "bernstein.thm2"),
        (runner, "levelset_scan", "bernstein.scan"),
        (runner, "maximal_regularity_norm", "bernstein.maxreg"),
    ]
    # grid stencils as bound in each calling module; the span is absent only
    # if no module binds any of them
    for owner in (solver, bern, runner):
        for name in GRID_STENCILS:
            points.append((owner, name, "grid.stencil"))
    return points


def _stage_attrs(result):
    _u, history, damping, _ok = result
    return {"iterations": len(history) - 1, "damping": damping}


_ATTRS = {"solver.newton_stage": _stage_attrs}


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    start: int
    end: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._op = 0
        self._root: int | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        points = _entry_points()
        present = set()
        for owner, attr, name in points:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            present.add(name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self.absent = {name for _, _, name in points} - present

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)  # atomic under the interpreter lock
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            attrs = attrs_of(result) if attrs_of else {}
            # list.append is atomic, so threads may record concurrently
            tracer.spans.append(Span(tracer._op, sid, parent, name, start, end, attrs))
            return result

        return traced

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn`` as one op under a root span named ``op``."""
        self._op = op_id
        self._root = sid = next(self._ids)
        self.install()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.uninstall()
            self.spans.append(Span(op_id, sid, None, "op", start, end))
            self._root = None


# ---------------------------------------------------------------------------
# per-op layer metrics
# ---------------------------------------------------------------------------


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _union_ns(children[s.sid]) for s in spans}


def op_metrics(spans: list[Span], absent: set) -> dict:
    """Layer metrics of one op from its spans (times in seconds)."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def under(span, name):
        p = span.parent
        while p is not None:
            anc = by_id[p]
            if anc.name == name:
                return True
            p = anc.parent
        return False

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(ss):
        return sum(s.end - s.start for s in ss) / 1e9

    root = named("op")[0]
    op_s = (root.end - root.start) / 1e9
    stages = named("solver.newton_stage")
    iters = sum(s.attrs["iterations"] for s in stages)
    damped = sum(s.attrs["damping"] for s in stages)
    newton_res = [s for s in named("solver.residual") if under(s, "solver.newton_stage")]
    runs = named("harness.run_experiment")
    m = {
        "solver.linsolve_s": secs(named("solver.linsolve")),
        "solver.linear_solves": len(named("solver.linsolve")),
        "solver.jacobian_s": secs(named("solver.jacobian")),
        "solver.newton_iters": iters,
        "solver.stages": len(stages),
        "solver.damping_events": damped,
        # an op without Newton steps damped none of them
        "solver.full_step_ratio": (iters - damped) / iters if iters else 1.0,
        "solver.residual_evals": len(newton_res),
        "solver.residual_s": secs(newton_res),
        "solver.linesearch_evals": len(newton_res) - iters - len(stages),
        "solver.solve_s": secs(named("solver.solve")),
        "solver.self_s": sum(
            selfs[s.sid] for s in spans if s.name in ("solver.solve", "solver.newton_stage")
        ) / 1e9,
        "bernstein.bundle_calls": len(named("bernstein.bundle")),
        "bernstein.bundle_s": secs(named("bernstein.bundle")),
        "bernstein.weak_s": secs(named("bernstein.weak")),
        "bernstein.thm1_s": secs(named("bernstein.thm1")),
        "bernstein.thm2_s": secs(named("bernstein.thm2")),
        "bernstein.scan_s": secs(named("bernstein.scan")),
        "bernstein.maxreg_s": secs(named("bernstein.maxreg")),
        "model.source_s": secs(named("model.source")),
        "model.structure_check_s": secs(named("model.structure_check")),
        "model.exponents_s": secs(named("model.exponents")),
        "grid.stencil_s": secs(named("grid.stencil")),
        "grid.stencil_calls": len(named("grid.stencil")),
        "harness.config_s": secs(named("harness.config")),
        "harness.persist_s": secs(named("harness.persist")),
        "harness.load_s": secs(named("harness.load")),
        "harness.sweep_parallelism": secs(runs) / op_s,
    }
    needs = {
        "solver.linsolve": ("solver.linsolve_s", "solver.linear_solves"),
        "solver.jacobian": ("solver.jacobian_s",),
        "solver.newton_stage": (
            "solver.newton_iters", "solver.stages", "solver.damping_events",
            "solver.full_step_ratio", "solver.residual_evals", "solver.residual_s",
            "solver.linesearch_evals",
        ),
        "solver.residual": (
            "solver.residual_evals", "solver.residual_s", "solver.linesearch_evals",
        ),
        "solver.solve": ("solver.solve_s", "solver.self_s"),
        "bernstein.bundle": ("bernstein.bundle_calls", "bernstein.bundle_s"),
        "bernstein.weak": ("bernstein.weak_s",),
        "bernstein.thm1": ("bernstein.thm1_s",),
        "bernstein.thm2": ("bernstein.thm2_s",),
        "bernstein.scan": ("bernstein.scan_s",),
        "bernstein.maxreg": ("bernstein.maxreg_s",),
        "model.source": ("model.source_s",),
        "model.structure_check": ("model.structure_check_s",),
        "model.exponents": ("model.exponents_s",),
        "grid.stencil": ("grid.stencil_s", "grid.stencil_calls"),
        "harness.config": ("harness.config_s",),
        "harness.persist": ("harness.persist_s",),
        "harness.load": ("harness.load_s",),
        "harness.run_experiment": ("harness.sweep_parallelism",),
    }
    for name in absent:
        for key in needs.get(name, ()):
            m.pop(key, None)
    return m
