"""Experiment harness: config parsing, record store, sweeps, reports, CLI."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gradlab
from gradlab.errors import ConfigError, NonconvergenceError, RegimeError
from gradlab.grid import Box
from gradlab.harness import (
    convergence_study,
    emit_report,
    load_record,
    parse_config,
    run_experiment,
    sweep,
)
from gradlab.harness.cli import main
from gradlab.harness.records import list_records, load_record_field
from gradlab.harness.runner import _sweep_variants

SMOOTH = """
[problem]
p = 2
gamma = 2
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 8
modes = 1 1

[grid]
extents = 1 1
cells = 24 24
"""

SINGULAR = """
[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = 0.5 0.5
power = 0.55
amplitude = 30

[grid]
extents = 1 1
cells = 48 48

[analysis]
beta = 5
sobolev_dim = 3
ledgers = thm2
k_levels = 1.0 1.3 1.6 1.9 2.2
epsilon_sweep = 1e-1 1e-2 1e-3
h_sweep = 32 48
"""


def test_parse_minimal_and_defaults():
    cfg = parse_config(SMOOTH)
    assert cfg.p == Fraction(2)
    assert cfg.gamma == Fraction(2)
    assert cfg.lam == Fraction(1)
    assert cfg.q == Fraction(3)
    assert cfg.eps == pytest.approx(1e-2)
    assert cfg.beta == Fraction(4)
    assert cfg.cells == (24, 24)
    assert cfg.directory == "runs"
    assert cfg.formats == ("json",)
    assert cfg.ledgers == ()
    cfg.validate()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("amplitude = 8", "amplitude = 8\nvolume = 3"),
        lambda t: t + "\n[plotting]\nstyle = dots\n",
        lambda t: t.replace("q = 3\n", ""),
        lambda t: t.replace("source = cosine", "source = vortex"),
        lambda t: t.replace("cells = 24 24", "cells = 24"),
        lambda t: t.replace("eps = 1e-2", "eps = abc"),
        lambda t: t.replace("cells = 24 24", "cells = 48 x"),
        lambda t: t + "\n[analysis]\nbeta = five\n",
        lambda t: t.replace("source = cosine", "source = radial\ncenter = 0.5 0.5\npower = -"),
        lambda t: t + "\n[analysis]\nsobolev_dim = three\n",
        lambda t: t + "\n[solver]\nmax_iter = ten\n",
        lambda t: t + "\n[solver]\ncontinuation = maybe\n",
        lambda t: t + "\n[solver]\neps_ratio = 1\n",
        lambda t: t + "\n[solver]\ndamping_factor = 1.5\n",
    ],
)
def test_parse_rejections(mutate):
    with pytest.raises(ConfigError):
        parse_config(mutate(SMOOTH))


def test_radial_source_needs_geometry():
    broken = SMOOTH.replace("source = cosine", "source = radial")
    with pytest.raises(ConfigError):
        parse_config(broken)


def test_digest_ignores_layout_not_values():
    cfg = parse_config(SMOOTH)
    shuffled = parse_config(
        "; a comment\n[grid]\ncells = 24 24\nextents = 1 1\n\n[problem]\n"
        "q = 3\nsource = cosine\nmodes = 1 1\namplitude = 8\n"
        "p = 2\ngamma = 2\nlambda = 1\neps = 1e-2\n"
    )
    assert shuffled.digest() == cfg.digest()
    changed = parse_config(SMOOTH.replace("amplitude = 8", "amplitude = 9"))
    assert changed.digest() != cfg.digest()


def test_validate_checks_source_membership():
    bad = parse_config(
        SINGULAR.replace("power = 0.55", "power = 0.9").replace("q = 3", "q = 3")
    )
    with pytest.raises(ConfigError):
        bad.validate()


def test_natural_growth_config_rejected_at_build():
    cfg = parse_config(SMOOTH.replace("p = 2", "p = 3"))  # gamma = 2 = p - 1
    with pytest.raises(RegimeError, match="gamma > p-1"):
        cfg.build_problem()


def test_run_experiment_persists_and_caches(tmp_path):
    cfg = parse_config(SMOOTH)
    result = run_experiment(cfg, tmp_path)
    assert result.fresh
    assert result.payload["solve"]["converged"]
    for key in ("config_digest", "parameters", "solve", "exponents", "norms", "ledgers"):
        assert key in result.payload
    assert result.payload["config_digest"] == cfg.digest()
    payload, meta = load_record(result.path)
    assert payload == result.payload
    assert "wall_time" in meta and "wall_time" not in json.dumps(payload)
    stages = meta["solve"]["stages"]
    assert len(stages) == len(payload["solve"]["stages"])
    assert sum(s["krylov_iterations"] for s in stages) > 0
    assert all(s["direct_fallbacks"] == 0 for s in stages)
    assert "krylov_iterations" not in json.dumps(payload)
    field = load_record_field(result.path)
    assert np.array_equal(field.values, result.u.values)
    again = run_experiment(cfg, tmp_path)
    assert not again.fresh
    assert again.path == result.path


def test_payload_reproducible_across_directories(tmp_path):
    cfg = parse_config(SINGULAR)
    a = run_experiment(cfg, tmp_path / "a")
    b = run_experiment(cfg, tmp_path / "b")
    assert (a.path / "record.json").read_bytes() == (b.path / "record.json").read_bytes()


def test_one_point_eps_sweep_matches_single_run(tmp_path):
    cfg = parse_config(SMOOTH + "\n[analysis]\nepsilon_sweep = 1e-2\n")
    single = run_experiment(cfg, tmp_path / "single")
    rows = sweep(cfg, "eps", tmp_path / "swept")
    assert len(rows) == 1
    assert rows[0].payload == single.payload


def test_eps_and_h_sweeps(tmp_path):
    cfg = parse_config(SINGULAR)
    eps_rows = sweep(cfg, "eps", tmp_path / "eps")
    assert [r.meta["sweep_value"] for r in eps_rows] == [1e-1, 1e-2, 1e-3]
    # warm points solve at their own eps only, not along the schedule
    for row, eps in zip(eps_rows[1:], [1e-2, 1e-3]):
        assert [s["eps"] for s in row.payload["solve"]["stages"]] == [eps]
    norms = [r.payload["norms"]["du_qgamma"] for r in eps_rows]
    spread = (max(norms) - min(norms)) / min(norms)
    assert spread <= 0.05
    h_rows = sweep(cfg, "h", tmp_path / "h")
    assert [r.payload["parameters"]["cells"] for r in h_rows] == [[32, 32], [48, 48]]


def test_k_sweep_reuses_one_solve(tmp_path):
    cfg = parse_config(SINGULAR)
    rows = sweep(cfg, "k", tmp_path)
    assert len(rows) == len(cfg.k_levels)
    for row, k in zip(rows, cfg.k_levels):
        thm2 = row.payload["ledgers"]["thm2"]
        assert {r["constants"]["k"] for r in thm2["rows"] if "k" in r["constants"]} == {k}
    assert len({row.payload["config_digest"] for row in rows}) == len(rows)
    iterations = [row.payload["solve"]["total_iterations"] for row in rows]
    assert iterations[0] > 0
    assert iterations[1:] == [0] * (len(rows) - 1)
    for row in rows[1:]:
        assert np.array_equal(row.u.values, rows[0].u.values)


def test_k_sweep_needs_superlevel_regime(tmp_path, monkeypatch):
    """Planar p = 2, gamma = 2 with dimension-3 bookkeeping has no thm2
    block; the sweep refuses before it solves anything."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the regime check")

    monkeypatch.setattr("gradlab.harness.runner.solve", no_solve)
    cfg = parse_config(SMOOTH + "\n[analysis]\nsobolev_dim = 3\nk_levels = 1.0 1.5\n")
    with pytest.raises(RegimeError, match="superlevel"):
        sweep(cfg, "k", tmp_path)


def test_scale_variants_digest_text_parses_back():
    """A base config with no scale entry and a [solver] section: each
    variant's canonical text must still be a config that parses to it."""
    cfg = parse_config(SMOOTH + "\n[solver]\ntol = 1e-9\n\n[analysis]\nscales = 1 2\n")
    variants = _sweep_variants(cfg, "scale")
    assert [v for v, _ in variants] == [1.0, 2.0]
    for value, variant in variants:
        assert variant.source_params["scale"] == value
        assert parse_config(variant.canonical_text) == variant


def test_sweep_axis_validation(tmp_path):
    cfg = parse_config(SMOOTH)
    with pytest.raises(ConfigError):
        sweep(cfg, "eps", tmp_path)  # no epsilon_sweep values configured
    with pytest.raises(ConfigError):
        sweep(cfg, "temperature", tmp_path)


def test_convergence_study_second_order(box2d):
    """Manufactured continuum solution for p=2, gamma=2, lam=1: with
    u* = cos(pi x) cos(pi y) the forcing reduces to a closed form."""
    def u_exact(coords):
        x, y = coords
        return np.cos(np.pi * x) * np.cos(np.pi * y)

    def f_exact(coords, eps=1e-2):
        x, y = coords
        base = (1 + 2 * np.pi**2) * np.cos(np.pi * x) * np.cos(np.pi * y)
        ham = eps + np.pi**2 / 2 - (np.pi**2 / 2) * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return base + ham

    study = convergence_study(
        box2d, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
        f_exact=f_exact, u_exact=u_exact, base_cells=16, levels=3,
    )
    assert len(study.levels) == 3
    assert all(lv.converged for lv in study.levels)
    assert min(study.orders_linf) >= 1.7
    assert min(study.orders_l2) >= 1.7


@pytest.mark.parametrize(
    "error, propagates",
    [(NonconvergenceError("stalled"), False), (TypeError("bug"), True)],
)
def test_convergence_study_records_only_package_errors(
    box2d, monkeypatch, error, propagates
):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr("gradlab.harness.runner.solve", failing_solve)
    args = dict(
        p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
        f_exact=lambda c: np.ones_like(c[0]), u_exact=lambda c: np.zeros_like(c[0]),
        base_cells=8, levels=3,
    )
    if propagates:
        with pytest.raises(type(error)):
            convergence_study(box2d, **args)
    else:
        study = convergence_study(box2d, **args)
        assert not any(lv.converged for lv in study.levels)


def test_convergence_study_needs_three_levels(box2d):
    with pytest.raises(ConfigError):
        convergence_study(
            box2d, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
            f_exact=lambda c: c[0], u_exact=lambda c: c[0],
            base_cells=16, levels=2,
        )


def test_emit_report_empty_directory(tmp_path):
    written = emit_report(tmp_path / "none", tmp_path / "out")
    rows = list(csv.DictReader(written["report.csv"].read_text().splitlines()))
    assert rows == []
    assert json.loads(written["report.json"].read_text()) == []


def test_emit_report_with_records(tmp_path):
    cfg = parse_config(SINGULAR)
    sweep(cfg, "h", tmp_path / "records")
    written = emit_report(tmp_path / "records", tmp_path / "out")
    with open(written["report.csv"]) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames[:4] == ["record", "sweep_axis", "sweep_value", "p"]
        rows = list(reader)
    assert len(rows) == 2
    assert {row["sweep_axis"] for row in rows} == {"h"}
    assert "h_du_qgamma.dat" in written
    lines = [
        ln for ln in written["h_du_qgamma.dat"].read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(lines) == 2
    assert all(len(ln.split()) == 2 for ln in lines)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_exponents_and_check(tmp_path, capsys):
    assert main(["exponents", "-N", "3", "-p", "2", "--gamma", "6", "-q", "3", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["regime"] == "Thm2Interior"
    assert table["thm2"]["r"] == "8/3"
    cfg = _write(tmp_path, "ok.ini", SMOOTH)
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out
    assert "digest" in out and "regime" in out


def test_cli_config_failures(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", SMOOTH.replace("gamma = 2", "gamma = 1"))
    assert main(["check", bad]) == 2
    assert main(["check", str(tmp_path / "missing.ini")]) == 2
    # a number that does not parse is a config error, not a traceback
    bad = _write(tmp_path, "nan.ini", SMOOTH.replace("eps = 1e-2", "eps = abc"))
    assert main(["check", bad]) == 2
    assert "'eps'" in capsys.readouterr().err


def test_cli_check_rejects_grid_that_solve_rejects(tmp_path, capsys):
    coarse = _write(tmp_path, "coarse.ini", SMOOTH.replace("cells = 24 24", "cells = 48 4"))
    assert main(["check", coarse]) == 2
    assert "cells" in capsys.readouterr().err


def test_cli_solve_and_bernstein_smooth(tmp_path, capsys):
    cfg = _write(
        tmp_path, "smooth.ini",
        SMOOTH + "\n[analysis]\nledgers = weak thm1\nbeta = 4\n",
    )
    out_dir = str(tmp_path / "runs")
    assert main(["solve", cfg, "--out", out_dir]) == 0
    assert len(list_records(out_dir)) == 1
    assert main(["bernstein", cfg, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "weak_identity" in out and "diff1" in out


def test_cli_bernstein_default_ledgers_enter_the_digest(tmp_path):
    """With no ledgers entry, bernstein runs all five, and its record's digest
    is that of a canonical text naming them, not the solve record's."""
    cfg = _write(tmp_path, "smooth.ini", SMOOTH)
    assert main(["solve", cfg, "--out", str(tmp_path / "solve")]) == 0
    main(["bernstein", cfg, "--out", str(tmp_path / "bern")])
    (solved,) = [load_record(r)[0] for r in list_records(tmp_path / "solve")]
    (bern,) = [load_record(r)[0] for r in list_records(tmp_path / "bern")]
    five = ("weak", "thm1", "thm2", "scan", "maxreg")
    expected = parse_config(SMOOTH).override("ledgers", " ".join(five))
    assert solved["config_digest"] == parse_config(SMOOTH).digest()
    assert bern["config_digest"] == expected.digest() != solved["config_digest"]
    assert parse_config(expected.canonical_text).ledgers == five
    assert set(bern["ledgers"]) == set(five)


def test_cli_bernstein_unresolved_identity_fails(tmp_path, capsys):
    """At 32 cells the singular source is not resolved, the weak-identity
    gap exceeds its h-proportional tolerance, and the CLI reports honestly."""
    text = SINGULAR.replace("cells = 48 48", "cells = 32 32").replace(
        "ledgers = thm2", "ledgers = weak thm2"
    )
    cfg = _write(tmp_path, "sing32.ini", text)
    code = main(["bernstein", cfg, "--out", str(tmp_path / "runs")])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAILED" in captured.err


def test_cli_nonconvergence_exit(tmp_path):
    text = SMOOTH.replace("amplitude = 8", "amplitude = 8000") + (
        "\n[solver]\nmax_iter = 2\ncontinuation = off\n"
    )
    cfg = _write(tmp_path, "stall.ini", text)
    assert main(["solve", cfg, "--out", str(tmp_path / "runs")]) == 3


def test_cli_sweep_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, "sing.ini", SINGULAR)
    out_dir = str(tmp_path / "runs")
    assert main(["sweep", cfg, "--axis", "h", "--out", out_dir]) == 0
    assert main(["report", out_dir, "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "report.csv").exists()


def test_console_entry_point(tmp_path):
    # the child imports the same gradlab as this suite, installed or not
    src = str(Path(gradlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradlab.harness.cli",
         "exponents", "-N", "3", "-p", "2", "--gamma", "6", "-q", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "Thm2Interior" in proc.stdout
