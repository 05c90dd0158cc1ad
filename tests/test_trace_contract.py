"""The benchmark's layer trace against the package it traces.

``perfbench/layertrace.py`` rebinds gradlab's layer entry points by name and
leaves out the metrics of any name it no longer finds, so a renamed entry
point would silently drop per-layer metrics from every traced run.

What the benchmark fixes in ``src/``, and nothing more:

- the names it rebinds, each where it is bound (``layertrace._entry_points``):
  the grid stencils ``gradient``, ``second_derivatives``,
  ``divergence_flux`` and ``face_average`` as bound in ``solver``,
  ``bernstein`` and ``harness.runner`` (the runner binds none of them,
  and the span is present while any module binds one), and each other
  entry point on the module or class it is listed on.  The wrapper passes
  ``*args, **kwargs`` through, so their signatures are free;
- ``solver._newton_stage``'s result, the 4-tuple ``(ev, history,
  damping_events, krylov_iterations)`` that ``layertrace._stage_attrs``
  unpacks, reading only the history and the damping count (``ev`` is the
  stage's final :class:`gradlab.solver.Evaluation`);
- the ``ProblemSpec`` fields ``eps``, ``hamiltonian`` and ``gamma``, which
  ``worker.jacobian_nnz`` replaces, and ``solver.jacobian(problem, u).nnz``,
  which it reads;
- ``RunConfig.build_problem``, and the calls ``perfbench/workloads.py``
  makes: ``parse_config``, ``runner.sweep``, ``runner.run_experiment``,
  ``records.load_record`` and ``records.load_record_field``, and the
  ``payload``, ``path`` and ``u`` of the results.
"""

import importlib.util
import json
import sys
from pathlib import Path

from gradlab.harness import parse_config
from gradlab.harness import runner

ROOT = Path(__file__).resolve().parents[1]

P3_ALL_LEDGERS = """
[problem]
p = 3
gamma = 3
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 20
modes = 1 1

[grid]
extents = 1 1
cells = 16 16

[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
"""

# set by perfbench's worker and runner, not by the trace's spans
OUTSIDE_THE_TRACE = {"solver.jacobian_nnz", "harness.record_bytes", "trace.overhead"}


def _layertrace(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_op_reports_every_declared_layer_metric(monkeypatch, tmp_path):
    layertrace = _layertrace(monkeypatch)
    tracer = layertrace.Tracer()
    # looked up at call time, so the op goes through the traced binding
    result = tracer.run_op(
        1, lambda: runner.run_experiment(parse_config(P3_ALL_LEDGERS), tmp_path)
    )
    assert tracer.absent == set()
    metrics = layertrace.op_metrics(tracer.spans, tracer.absent)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | OUTSIDE_THE_TRACE == {m["name"] for m in declared}
    newton = result.payload["solve"]["total_iterations"]
    assert metrics["solver.newton_iters"] == newton > 0
    # the traced linear solve is the GMRES: one call per Newton step
    assert metrics["solver.linear_solves"] == newton
