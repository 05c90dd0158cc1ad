"""The benchmark's workloads: seeded configs, one op each, and output checks.

Every op goes through gradlab's public entry points, looked up on their
modules at call time (``runner.sweep``, ``records.load_record_field``), so
that the traced run's wrappers see the calls.  Nothing here edits the
package.

Seed 0 is the nominal config and is checked against ``references.json``.
Any other seed jitters the inputs (radial centre within a cell, cosine
amplitude within 2.5%) and gets only the checks that do not depend on the
seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from gradlab.harness import config as config_mod
from gradlab.harness import records, runner

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

TOL = 1e-8  # set explicitly: the default 1e-10 fails above 96^2
MAXREG_ROUNDING = 64 * sys.float_info.epsilon
# Two solutions whose residuals are both below ``TOL`` differ by about
# TOL / lam in the discrete L2 norm, and a difference quotient amplifies that
# by 1/h; NORM_SAFETY covers the conditioning of the nonlinear terms.  With
# it, inexact GMRES in place of the direct solve passes by six orders of
# magnitude, and moving the radial centre by a quarter cell fails by one to
# three.
NORM_SAFETY = 10.0
CHECKED_NORMS = ("u_l2", "du_qgamma", "maxreg")
# ledgers whose verdicts other seeds must reproduce, except for the rows
# listed as ``band_rows`` in the references: those pass at seed 0 only inside
# their tolerance band (-tol <= slack < 0), so the jitter can decide them
SEED_FREE_LEDGERS = ("thm1", "thm2", "scan")

_ANALYSIS = """[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
"""

RADIAL_2D = """[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = {center}
power = 0.55
amplitude = 30

[grid]
extents = 1 1
cells = {n} {n}

[solver]
tol = {tol!r}
max_iter = 50
continuation = {continuation}

""" + _ANALYSIS + """epsilon_sweep = 1e-1 1e-2 1e-3
"""

RADIAL_3D = """[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = {center}
power = 0.8
amplitude = 15

[grid]
extents = 1 1 1
cells = {n} {n} {n}

[solver]
tol = {tol!r}
max_iter = 50
continuation = on

""" + _ANALYSIS

COSINE_P3 = """[problem]
p = 3
gamma = 3
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = {amplitude!r}
modes = 1 1

[grid]
extents = 1 1
cells = 96 96

[solver]
tol = {tol!r}
max_iter = 50
continuation = on

""" + _ANALYSIS + """h_sweep = 64 96
"""


def radial_center(seed: int, ndim: int, cells: int) -> str:
    """Centre 0.5 (a grid vertex), moved by up to h/4 per axis for seed > 0."""
    rng = random.Random(seed)
    h = 1.0 / cells
    coords = [0.5 + (rng.uniform(-0.25, 0.25) * h if seed else 0.0) for _ in range(ndim)]
    return " ".join(repr(c) for c in coords)


def cosine_amplitude(seed: int) -> float:
    """Amplitude 20, moved by up to 2.5% for seed > 0."""
    rng = random.Random(seed)
    return 20.0 * (1.0 + (rng.uniform(-0.025, 0.025) if seed else 0.0))


class Workload:
    name = ""

    def make_fixture(self, seed: int, work: Path) -> None:
        """Inputs made once per run, before the measured processes start."""

    def prepare(self, seed: int, work: Path) -> dict:
        """Untimed per-process set-up; returns the state the op reads."""
        raise NotImplementedError

    def op(self, state: dict, out_dir: Path) -> list:
        """One closed-loop op; returns its ``ExperimentResult`` list."""
        raise NotImplementedError


class EpsSweep2D(Workload):
    name = "eps_sweep_2d"

    def prepare(self, seed, work):
        text = RADIAL_2D.format(
            center=radial_center(seed, 2, 96), n=96, tol=TOL, continuation="on"
        )
        return {"config": config_mod.parse_config(text)}

    def op(self, state, out_dir):
        return runner.sweep(state["config"], "eps", out_dir)


class Radial3D(Workload):
    name = "radial3d"

    def prepare(self, seed, work):
        text = RADIAL_3D.format(center=radial_center(seed, 3, 16), n=16, tol=TOL)
        return {"config": config_mod.parse_config(text)}

    def op(self, state, out_dir):
        return [runner.run_experiment(state["config"], out_dir)]


class P3HSweep(Workload):
    name = "p3_h_sweep"

    def prepare(self, seed, work):
        text = COSINE_P3.format(amplitude=cosine_amplitude(seed), tol=TOL)
        return {"config": config_mod.parse_config(text)}

    def op(self, state, out_dir):
        return runner.sweep(state["config"], "h", out_dir)


class LedgerAudit(Workload):
    """Re-audit a stored 192^2 solution: load it, check it, persist it."""

    name = "ledger_audit"
    CELLS = 192

    def _text(self, seed, continuation):
        return RADIAL_2D.format(
            center=radial_center(seed, 2, self.CELLS),
            n=self.CELLS,
            tol=TOL,
            continuation=continuation,
        )

    def make_fixture(self, seed, work):
        """Solve and persist the record the op re-audits."""
        config = config_mod.parse_config(self._text(seed, "on"))
        result = runner.run_experiment(config, work / "reference")
        (work / "fixture.txt").write_text(str(result.path))

    def prepare(self, seed, work):
        record = Path((work / "fixture.txt").read_text())
        stored, _ = records.load_record(record)
        return {
            "config": config_mod.parse_config(self._text(seed, "off")),
            "record": record,
            "stored_ledgers": stored["ledgers"],
        }

    def op(self, state, out_dir):
        u = records.load_record_field(state["record"])
        return [runner.run_experiment(state["config"], out_dir, initial=u)]


# why each workload was chosen is recorded in README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (EpsSweep2D(), Radial3D(), P3HSweep(), LedgerAudit())}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def verdicts(payload: dict) -> dict:
    """Flatten the ledger block into ``{"ledger.row": pass|fail|skipped}``."""
    out = {}

    def mark(ok):
        return "pass" if ok else "fail"

    for name, block in sorted(payload["ledgers"].items()):
        if "skipped" in block:
            out[name] = "skipped"
        elif name == "weak":
            out[f"weak.{block['lemma']}"] = mark(block["passed"])
        elif name in ("thm1", "thm2"):
            for row in block["rows"]:
                out[f"{name}.{row['lemma']}"] = mark(row["passed"])
        elif name == "scan":
            out["scan.small_branch"] = mark(block["small_branch_ok"])
            for k, ok in zip(block["ks"], block["chebyshev_ok"]):
                out[f"scan.chebyshev_k{k!r}"] = mark(ok)
        elif name == "maxreg":
            out["maxreg.agreement"] = mark(
                block["relative_agreement"] <= MAXREG_ROUNDING
            )
    return out


def band_rows(payload: dict) -> list:
    """Inequality rows that pass only inside their tolerance band."""
    out = []
    for name in ("thm1", "thm2"):
        for row in payload["ledgers"].get(name, {}).get("rows", []):
            if -row["tol"] <= row["slack"] < 0:
                out.append(f"{name}.{row['lemma']}")
    return out


def reference_entry(payload: dict) -> dict:
    return {
        "cells": payload["parameters"]["cells"],
        "verdicts": verdicts(payload),
        "band_rows": band_rows(payload),
        "norms": {k: payload["norms"][k] for k in CHECKED_NORMS},
    }


def norm_rtol(payload: dict) -> float:
    h = 1.0 / max(payload["parameters"]["cells"])
    lam = float(payload["parameters"]["lambda"])
    return NORM_SAFETY * TOL / (lam * h)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def check_op(name: str, seed: int, results: list, state: dict, refs: dict) -> list:
    """Every reason this op's output is wrong; empty when it is right."""
    problems = []
    expected = refs[name]
    if len(results) != len(expected):
        return [f"{len(results)} results, expected {len(expected)}"]
    for i, (res, ref) in enumerate(zip(results, expected)):
        p = res.payload
        tag = f"variant {i}"
        if p["parameters"]["cells"] != ref["cells"]:
            problems.append(f"{tag}: cells {p['parameters']['cells']} != {ref['cells']}")
            continue
        solve = p["solve"]
        if not solve["converged"]:
            problems.append(f"{tag}: not converged")
        if not solve["residual_norm"] <= TOL:
            problems.append(f"{tag}: residual {solve['residual_norm']:.3e} > tol {TOL:g}")
        agreement = p["norms"]["maxreg_agreement"]
        if not agreement <= MAXREG_ROUNDING:
            problems.append(f"{tag}: maxreg agreement {agreement:.3e} not at rounding level")
        got = verdicts(p)
        for row, want in ref["verdicts"].items():
            if seed != 0 and (
                row.split(".")[0] not in SEED_FREE_LEDGERS or row in ref["band_rows"]
            ):
                continue
            if got.get(row) != want:
                problems.append(f"{tag}: ledger row {row} is {got.get(row)}, expected {want}")
        if seed == 0:
            extra = sorted(set(got) - set(ref["verdicts"]))
            if extra:
                problems.append(f"{tag}: unexpected ledger rows {extra}")
            rtol = norm_rtol(p)
            for key, want in ref["norms"].items():
                value = p["norms"][key]
                if not abs(value - want) <= rtol * abs(want):
                    problems.append(
                        f"{tag}: {key} = {value!r}, reference {want!r} (rtol {rtol:.1e})"
                    )
    if "stored_ledgers" in state:
        for res in results:
            if json.dumps(res.payload["ledgers"], sort_keys=True) != json.dumps(
                state["stored_ledgers"], sort_keys=True
            ):
                problems.append("re-audited ledgers differ from the stored record's")
    return problems
