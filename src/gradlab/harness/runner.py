"""Experiment orchestration: single runs, every ladder of solves, reports.

:func:`gradlab.solver.solve` solves one problem and :mod:`gradlab.bernstein`
audits one given solution; every ladder of solves lives here.  A
:func:`sweep` walks one config axis (eps, source scale, grid, superlevel
threshold or lambda), :func:`convergence_study` a grid-refinement ladder
against a known solution, and :func:`scaling_fit` a ladder of source scales.
Each runs as a warm chain, each point starting from an earlier point's
solution.  :func:`emit_report` aggregates stored records.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as _dt
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__, bernstein
from ..bernstein import (
    levelset_scan,
    maximal_regularity_norm,
    thm1_ledger,
    thm2_ledger,
    weak_identity_check,
)
from ..errors import ConfigError, GradlabError, ParameterError, RegimeError
from ..grid import Box, ScalarField, build_grid, discrete_l2, lp_norm
from ..model.exponents import build_exponent_table, to_fraction
from ..model.problem import ProblemSpec
from ..model.sources import Tabulated, sample_source
from ..solver import SolverOptions, solve
from .config import RunConfig
from .records import list_records, load_record, persist_record

# sweep axis -> (RunConfig field listing its values, the config at one value)
_SWEEP_AXES = {
    "eps": ("epsilon_sweep", lambda config, v: dataclasses.replace(config, eps=v)),
    "scale": (
        "scales",
        lambda config, v: dataclasses.replace(
            config, source_params={**config.source_params, "scale": v}
        ),
    ),
    "h": ("h_sweep", lambda config, n: dataclasses.replace(config, cells=(n,) * len(config.cells))),
    # a k point evaluates thm2 alone, at its own level
    "k": (
        "k_levels",
        lambda config, k: dataclasses.replace(config, k_levels=(k,), ledgers=("thm2",)),
    ),
    "lambda": ("lambda_sweep", lambda config, v: dataclasses.replace(config, lam=to_fraction(v))),
}


@dataclass
class ExperimentResult:
    payload: dict
    meta: dict
    u: ScalarField
    path: Path | None
    fresh: bool


def exponent_table(config: RunConfig):
    """The exponent table of ``config``'s problem and analysis settings."""
    return build_exponent_table(
        len(config.cells),
        config.p,
        config.gamma,
        config.q,
        lam=config.lam,
        beta=config.beta,
        sobolev_dim=config.sobolev_dim,
    )


def _norm_table(config: RunConfig, u: ScalarField, report, table) -> dict:
    # |Du| from the solve's final evaluation: an L^q norm of Du is that of
    # its magnitude
    mag = ScalarField(u.grid, np.sqrt(report.evaluation.du2))
    maxreg = maximal_regularity_norm(mag, float(config.q), float(config.gamma))
    return {
        "u_l2": discrete_l2(u.grid, u.values),
        "u_linf": float(np.max(np.abs(u.values))),
        "du_l2": lp_norm(mag, 2.0),
        "du_qgamma": lp_norm(mag, float(config.q * config.gamma)),
        "du_eta": lp_norm(mag, float(table.thm1.eta)),
        "maxreg": maxreg.via_power_field,
        "maxreg_agreement": maxreg.relative_agreement,
    }


def run_experiment(
    config: RunConfig,
    out_dir: str | Path | None = None,
    initial: ScalarField | None = None,
    sweep_tag: tuple | None = None,
    source: ScalarField | None = None,
) -> ExperimentResult:
    """Solve one config and evaluate its requested analyses.

    The returned payload is deterministic for a given config and initial
    iterate; timing and provenance go to the meta side of the record.
    ``initial``, if given, starts the solve, and ``source``, the config's
    source already sampled on its grid, serves it, as
    :func:`gradlab.solver.solve` describes.  A solve that fails raises,
    and no record is written; in a sweep, that stops the chain and later
    points are not run.
    """
    problem = config.build_problem()
    grid = config.build_grid()
    # a bad [analysis] entry fails here, before the solve it would waste
    table = exponent_table(config)
    t0 = time.perf_counter()
    u, report = solve(problem, grid, config.solver, initial=initial, source=source)
    wall = time.perf_counter() - t0

    payload: dict = {
        "config_digest": config.digest(),
        "parameters": {
            "p": str(config.p),
            "gamma": str(config.gamma),
            "lambda": str(config.lam),
            "q": str(config.q),
            "eps": config.eps,
            "beta": str(config.beta),
            "source_kind": config.source_kind,
            "source_params": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in config.source_params.items()
            },
            "extents": list(config.extents),
            "cells": list(config.cells),
            "sobolev_dim": table.sobolev_dim,
        },
        "solve": {
            "converged": report.converged,
            "residual_norm": report.residual_norm,
            "total_iterations": report.total_iterations,
            "stages": [
                {
                    "cells": list(s.cells),
                    "iterations": s.iterations,
                    "residual_norm": s.residual_norm,
                }
                for s in report.stages
            ],
        },
        "exponents": table.to_dict(),
        "norms": _norm_table(config, u, report, table),
        "ledgers": {},
    }

    # built on first use, so a run whose ledgers are all skipped builds none
    bundle = functools.cache(lambda: bernstein.prepare_bundle(problem, u, report))
    if "weak" in config.ledgers:
        payload["ledgers"]["weak"] = weak_identity_check(bundle(), float(config.beta)).to_dict()
    if "thm1" in config.ledgers:
        payload["ledgers"]["thm1"] = thm1_ledger(bundle(), table).to_dict()
    if "thm2" in config.ledgers:
        if table.thm2 is None:
            payload["ledgers"]["thm2"] = {"skipped": table.thm2_refusal}
        else:
            k0 = config.k_levels[0] if config.k_levels else 1.0
            payload["ledgers"]["thm2"] = thm2_ledger(bundle(), table, k0).to_dict()
    if "scan" in config.ledgers:
        if table.thm2 is None or len(config.k_levels) < 4:
            payload["ledgers"]["scan"] = {
                "skipped": "needs a superlevel regime and at least 4 k_levels"
            }
        else:
            payload["ledgers"]["scan"] = levelset_scan(bundle(), table, config.k_levels).to_dict()
    if "maxreg" in config.ledgers:
        payload["ledgers"]["maxreg"] = {
            "q": str(config.q),
            "value": payload["norms"]["maxreg"],
            "relative_agreement": payload["norms"]["maxreg_agreement"],
        }

    meta = {
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "wall_time": wall,
        "version": __version__,
        "sweep_axis": sweep_tag[0] if sweep_tag else None,
        "sweep_value": sweep_tag[1] if sweep_tag else None,
        "solve": {
            "stages": [
                {
                    "cells": list(s.cells),
                    "iterations": s.iterations,
                    "krylov_iterations": s.krylov_iterations,
                    "damping_events": s.damping_events,
                    "residual_history": s.residual_history,
                }
                for s in report.stages
            ],
        },
    }
    path, fresh = (None, True)
    if out_dir is not None:
        path, fresh = persist_record(out_dir, payload, meta, u)
    return ExperimentResult(payload=payload, meta=meta, u=u, path=path, fresh=fresh)


def _sweep_variants(config: RunConfig, axis: str, samples: dict | None = None) -> list:
    """(value, config, source) triples: the base config with one value on
    ``axis``, and its source sampled on its grid.

    Every point's problem, grid and exponent table is built here, and its
    source sampled, so a bad point fails before any point is solved.
    ``samples`` maps (source, grid) pairs to samples already taken; points
    that share both, such as an eps sweep's, share one sample.
    """
    if axis not in _SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; choose from {tuple(_SWEEP_AXES)}"
        )
    field, at = _SWEEP_AXES[axis]
    values = getattr(config, field)
    if not values:
        raise ConfigError(f"{axis} sweep needs {field!r} values in [analysis]")
    if axis == "k" and exponent_table(config).thm2 is None:
        raise RegimeError("k sweep needs a superlevel regime (no thm2 block)")
    samples = {} if samples is None else samples
    variants = []
    for value in values:
        variant = at(config, value)
        key = (variant.build_problem().source, variant.build_grid())
        if key not in samples:
            samples[key] = sample_source(*key)
        exponent_table(variant)
        variants.append((value, variant, samples[key]))
    return variants


def sweep(config: RunConfig, axis: str, out_dir: str | Path | None = None) -> list:
    """Run a family of experiments along one axis, as one warm chain.

    The first point solves cold; each later point starts from the previous
    point's solution (see :func:`gradlab.solver.solve` for what a warm
    start does).  A k point has the same target as the point before it, so
    it takes no Newton step and only evaluates ``thm2`` at its own level.
    A point that fails raises and stops the chain: later points are not run.
    A point whose problem, grid or exponent table cannot be built, or whose
    source cannot be sampled on its grid, fails before any point is solved.
    """
    variants = _sweep_variants(config, axis)
    results = []
    initial = None
    for value, variant, source in variants:
        result = run_experiment(
            variant, out_dir, initial=initial, sweep_tag=(axis, value), source=source
        )
        initial = result.u
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


@dataclass
class StudyLevel:
    cells: int
    h: float
    converged: bool
    error_linf: float | None
    error_l2: float | None


@dataclass
class ConvergenceStudy:
    levels: list
    orders_linf: list
    orders_l2: list


def convergence_study(
    box: Box,
    p: float,
    gamma: float,
    lam: float,
    eps: float,
    f_exact,
    u_exact,
    base_cells: int,
    levels: int = 3,
    options: SolverOptions | None = None,
) -> ConvergenceStudy:
    """Solve against a known continuum solution on a doubling grid ladder.

    ``f_exact`` and ``u_exact`` take the tuple of center coordinate arrays.
    The ladder runs as a warm chain: the first level solves cold, and each
    later one starts from the last converged level's solution (see
    :func:`gradlab.solver.solve`).  A level that fails to solve is recorded
    and skipped; orders are then computed over consecutive successful pairs.
    """
    if levels < 3:
        raise ConfigError("convergence study needs at least 3 levels")
    rows = []
    ndim = len(box.extents)
    prev = None  # the last converged level's solution
    for i in range(levels):
        n = base_cells * 2**i
        grid = build_grid(box, (n,) * ndim)
        centers = grid.centers()
        problem = ProblemSpec.power_model(
            box, p=p, gamma=gamma, lam=lam, eps=eps,
            source=Tabulated(np.asarray(f_exact(centers), dtype=float)),
        )
        exact = np.asarray(u_exact(centers), dtype=float)
        try:
            u, _ = solve(problem, grid, options, initial=prev)
        except GradlabError:  # the study reports partial results
            rows.append(StudyLevel(n, grid.max_spacing, False, None, None))
            continue
        prev = u
        diff = u.values - exact
        rows.append(
            StudyLevel(
                cells=n,
                h=grid.max_spacing,
                converged=True,
                error_linf=float(np.max(np.abs(diff))),
                error_l2=discrete_l2(grid, diff),
            )
        )
    orders_linf, orders_l2 = [], []
    for a, b in zip(rows, rows[1:]):
        if a.converged and b.converged:
            ratio = np.log2(a.h / b.h)
            orders_linf.append(float(np.log2(a.error_linf / b.error_linf) / ratio))
            orders_l2.append(float(np.log2(a.error_l2 / b.error_l2) / ratio))
    return ConvergenceStudy(levels=rows, orders_linf=orders_linf, orders_l2=orders_l2)


# ---------------------------------------------------------------------------
# scaling fit
# ---------------------------------------------------------------------------


@dataclass
class EstimateFit:
    """Log-log fit of a gradient norm against the source norm it answers to."""

    scales: list
    source_norms: list
    gradient_norms: list
    slope: float
    intercept: float
    theoretical_slope: float
    eta: float
    q_eta: float
    used_points: int
    failures: list


def scaling_fit(config: RunConfig) -> EstimateFit:
    """Solve ``config`` at each of its ``scales``; fit the gradient norm's growth.

    The points are a ``scale`` sweep's (:func:`_sweep_variants`), all built
    before the first solve.  The estimate predicts that ``|Du|_eta`` grows
    like ``|f|_(q_eta)^(1/(p-1))``, with ``eta`` and ``q_eta`` from the
    config's exponent table; the slope is the log-log least-squares fit over
    the top half of the scales, where the nonlinearity dominates.  The scales
    run as a warm chain: the first solves cold, and each later one starts
    from the last converged scale's solution (see :func:`gradlab.solver.solve`).
    Failed solves are recorded and skipped, but at least three fitted points
    are required.  The five or more scales must rise and be positive.
    """
    scales = config.scales
    if len(scales) < 5:
        raise ParameterError("need at least 5 scales")
    # a nan fails here too, before any scale is solved
    if not all(s > 0 for s in scales):
        raise ParameterError(f"scales must be positive, got {scales}")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ParameterError("scales must be strictly increasing")
    variants = _sweep_variants(config, "scale")
    table = exponent_table(config)
    eta, q_eta = float(table.thm1.eta), float(table.thm1.q_eta)
    grid = config.build_grid()
    xs, ys, used_scales, failures = [], [], [], []
    u = None  # the last converged scale's solution
    for s, variant, source in variants:
        try:
            u, report = solve(
                variant.build_problem(), grid, config.solver, initial=u, source=source
            )
        except GradlabError as exc:  # failures are data here
            failures.append({"scale": s, "error": f"{type(exc).__name__}: {exc}"})
            continue
        xs.append(lp_norm(report.source, q_eta))
        ys.append(lp_norm(ScalarField(grid, np.sqrt(report.evaluation.du2)), eta))
        used_scales.append(s)
    if len(xs) < 3:
        raise ParameterError(
            f"only {len(xs)} scales solved; need at least 3 points to fit"
        )
    top = max(3, len(xs) // 2 + len(xs) % 2)
    lx = np.log(np.asarray(xs[-top:]))
    ly = np.log(np.asarray(ys[-top:]))
    slope, intercept = np.polyfit(lx, ly, 1)
    return EstimateFit(
        scales=used_scales,
        source_norms=xs,
        gradient_norms=ys,
        slope=float(slope),
        intercept=float(intercept),
        theoretical_slope=1.0 / (float(config.p) - 1.0),
        eta=eta,
        q_eta=q_eta,
        used_points=int(top),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _report_row(name: str, payload: dict, meta: dict) -> dict:
    params = payload.get("parameters", {})
    norms = payload.get("norms", {})
    solve_block = payload.get("solve", {})
    ledgers = payload.get("ledgers", {})

    def ledger_pass(name):
        block = ledgers.get(name)
        if not block or "skipped" in block:
            return ""
        return block["all_pass"]

    weak = ledgers.get("weak")
    scan = ledgers.get("scan")
    return {
        "record": name,
        "sweep_axis": meta.get("sweep_axis") or "",
        "sweep_value": meta.get("sweep_value", ""),
        "p": params.get("p", ""),
        "gamma": params.get("gamma", ""),
        "lambda": params.get("lambda", ""),
        "eps": params.get("eps", ""),
        "q": params.get("q", ""),
        "cells": "x".join(str(c) for c in params.get("cells", [])),
        "regime": payload.get("exponents", {}).get("regime", ""),
        "converged": solve_block.get("converged", ""),
        "iterations": solve_block.get("total_iterations", ""),
        "residual": solve_block.get("residual_norm", ""),
        "u_l2": norms.get("u_l2", ""),
        "u_linf": norms.get("u_linf", ""),
        "du_l2": norms.get("du_l2", ""),
        "du_eta": norms.get("du_eta", ""),
        "du_qgamma": norms.get("du_qgamma", ""),
        "maxreg": norms.get("maxreg", ""),
        "weak_gap": weak["constants"]["relative_gap"] if weak and "constants" in weak else "",
        "thm1_pass": ledger_pass("thm1"),
        "thm2_pass": ledger_pass("thm2"),
        "scan_small_branch": scan.get("small_branch_ok", "") if scan and "skipped" not in scan else "",
    }


# the report's columns, in order: the keys of a row built from no record
REPORT_COLUMNS = list(_report_row("", {}, {}))


def emit_report(
    records_dir: str | Path,
    out_dir: str | Path | None = None,
    formats: tuple = ("csv", "json"),
) -> dict:
    """Aggregate all records under ``records_dir`` into report files.

    Writes ``report.csv`` with a fixed column order, ``report.json`` with
    the full payloads, and for each sweep axis present a two-column
    ``<axis>_du_qgamma.dat`` suitable for direct plotting.  Returns the
    mapping of written file names to paths.
    """
    records_dir = Path(records_dir)
    out_dir = Path(out_dir) if out_dir is not None else records_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    loaded = [(d.name, *load_record(d)) for d in list_records(records_dir)]
    rows = [_report_row(*record) for record in loaded]
    written = {}

    if "csv" in formats:
        csv_path = out_dir / "report.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        written["report.csv"] = csv_path
    if "json" in formats:
        full = [
            {"record": name, "meta": meta, "payload": payload}
            for name, payload, meta in loaded
        ]
        json_path = out_dir / "report.json"
        json_path.write_text(json.dumps(full, sort_keys=True, indent=1))
        written["report.json"] = json_path

    by_axis: dict = {}
    for row in rows:
        axis = row["sweep_axis"]
        if axis and row["sweep_value"] != "" and row["du_qgamma"] != "":
            by_axis.setdefault(axis, []).append(
                (float(row["sweep_value"]), float(row["du_qgamma"]))
            )
    for axis, points in by_axis.items():
        points.sort()
        dat_path = out_dir / f"{axis}_du_qgamma.dat"
        with open(dat_path, "w") as fh:
            fh.write(f"# {axis} du_qgamma\n")
            for x, y in points:
                fh.write(f"{x!r} {y!r}\n")
        written[dat_path.name] = dat_path
    return written
