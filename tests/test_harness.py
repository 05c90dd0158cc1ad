"""Experiment harness: config parsing, record store, sweeps, reports, CLI."""

import ast
import csv
import dataclasses
import functools
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gradlab
import gradlab.solver
from gradlab import bernstein
from gradlab.errors import (
    ConfigError,
    NonconvergenceError,
    ParameterError,
    RegimeError,
    ResolutionError,
    UnconvergedInputError,
    UnsupportedRegimeError,
)
from gradlab.grid import Box, save_field
from gradlab.harness import (
    convergence_study,
    emit_report,
    load_record,
    parse_config,
    run_experiment,
    sweep,
)
from gradlab.harness import records
from gradlab.harness import runner as runner_module
from gradlab.harness.cli import main
from gradlab.harness.config import _SECTIONS, _SOURCES
from gradlab.harness.records import list_records, load_record_field
from gradlab.harness.runner import _sweep_variants
from gradlab.solver import solve

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


RADIAL_3D = """
[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = 0.5 0.5 0.5
power = 0.8
amplitude = 15

[grid]
extents = 1 1 1
cells = 16 16 16

[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
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
    assert cfg.solver.continuation is True
    assert cfg.ledgers == ()


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
        # without the cosine's modes, so that the bad power is what fails
        lambda t: t.replace("source = cosine", "source = radial\ncenter = 0.5 0.5\npower = -")
        .replace("modes = 1 1\n", ""),
        lambda t: t + "\n[analysis]\nsobolev_dim = three\n",
        lambda t: t + "\n[solver]\nmax_iter = ten\n",
        lambda t: t + "\n[solver]\ncontinuation = maybe\n",
        lambda t: t + "\n[solver]\nmax_iter = -1\n",
        lambda t: t + "\n[solver]\ntol = 0\n",
        lambda t: t + "\n[solver]\ntol = nan\n",
        # a source key that the declared kind does not take
        lambda t: t.replace("modes = 1 1", "modes = 1 1\ncenter = 0.5 0.5"),
        lambda t: t.replace("source = cosine", "source = radial\ncenter = 0.5 0.5\npower = 0.5"),
        lambda t: t.replace("source = cosine", "source = random\nseed = 3").replace(
            "modes = 1 1\n", ""
        ),
        # a variant with a bad source is refused when it is made
        lambda t: dataclasses.replace(parse_config(t), source_kind="bogus"),
        lambda t: dataclasses.replace(parse_config(t), source_params={}),
        lambda t: dataclasses.replace(
            parse_config(t), source_params={"amplitude": 8.0, "modes": (1, 1), "seed": 3}
        ),
    ],
)
def test_parse_rejections(mutate):
    with pytest.raises(ConfigError):
        parse_config(mutate(SMOOTH))


@pytest.mark.parametrize(
    "section, key",
    [
        ("solver", "damping_factor"),
        ("solver", "armijo"),
        ("solver", "eps_ratio"),
        ("solver", "gamma_stages"),
        ("solver", "min_step"),
        ("output", "directory"),
        ("output", "formats"),
        ("analysis", "maxreg_q"),
    ],
)
def test_newton_constants_and_output_section_are_not_settings(section, key):
    """The Newton constants, the [output] section and maxreg_q, which was
    always q, are not settings: a config that names one is refused like any
    other unknown key."""
    with pytest.raises(ConfigError, match=rf"unknown (key {key!r}|section \[{section}\])"):
        parse_config(SMOOTH + f"\n[{section}]\n{key} = 1\n")


class _SettingReads(ast.NodeVisitor):
    """Attribute names read off a config or solver options, outside the
    parser: ``config.x``, ``options.x``, ``<...>.solver.x``, and ``self.x``
    in a ``RunConfig`` method."""

    RECEIVERS = {"config", "options"}

    def __init__(self):
        self.names = set()
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        if node.name != "parse_config":
            self.generic_visit(node)

    def visit_Attribute(self, node):
        value = node.value
        if isinstance(node.ctx, ast.Load) and (
            (isinstance(value, ast.Name) and value.id in self.RECEIVERS)
            or (isinstance(value, ast.Attribute) and value.attr == "solver")
            or (
                isinstance(value, ast.Name)
                and value.id == "self"
                and self.classes[-1:] == ["RunConfig"]
            )
        ):
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_setting_is_read_outside_the_parser():
    """A config or solver field that only the parser touches is a setting
    nothing honours; it has to go, not sit in the digest."""
    from gradlab.harness.config import RunConfig
    from gradlab.solver import SolverOptions

    reads = _SettingReads()
    for path in Path(gradlab.__file__).parent.rglob("*.py"):
        reads.visit(ast.parse(path.read_text()))
    # the sweep value lists are read by name, getattr(config, field)
    reads.names |= {field for field, _ in runner_module._SWEEP_AXES.values()}
    fields = {f.name for cls in (RunConfig, SolverOptions) for f in dataclasses.fields(cls)}
    assert fields - reads.names == set()


def test_radial_source_needs_geometry():
    broken = SMOOTH.replace("source = cosine", "source = radial")
    with pytest.raises(ConfigError):
        parse_config(broken)


# SMOOTH with its sections and keys reordered and a comment
_SHUFFLED = (
    "; a comment\n[grid]\ncells = 24 24\nextents = 1 1\n\n[problem]\n"
    "q = 3\nsource = cosine\nmodes = 1 1\namplitude = 8\n"
    "p = 2\ngamma = 2\nlambda = 1\neps = 1e-2\n"
)


def test_digest_ignores_layout_not_values():
    cfg = parse_config(SMOOTH)
    shuffled = parse_config(_SHUFFLED)
    assert shuffled.digest() == cfg.digest()
    changed = parse_config(SMOOTH.replace("amplitude = 8", "amplitude = 9"))
    assert changed.digest() != cfg.digest()


@pytest.mark.parametrize(
    "first, second",
    [
        (SMOOTH, SMOOTH.replace("eps = 1e-2", "eps = 0.01")),
        (SMOOTH, SMOOTH.replace("p = 2", "p = 4/2")),
        (SMOOTH, _SHUFFLED),
    ],
    ids=["eps-spelling", "p-spelling", "shuffled-sections"],
)
def test_identical_runs_are_cache_hits(tmp_path, first, second):
    """Two spellings of one config share a digest and make one record."""
    assert first != second
    assert parse_config(first).digest() == parse_config(second).digest()
    assert run_experiment(parse_config(first), tmp_path).fresh
    again = run_experiment(parse_config(second), tmp_path)
    assert not again.fresh
    assert len(list_records(tmp_path)) == 1


def test_ledgers_are_a_set():
    """The ledgers entry names a set: order and repeats change neither the
    ledgers run nor the digest."""
    def at(ledgers):
        return parse_config(SMOOTH + f"\n[analysis]\nledgers = {ledgers}\n")

    assert at("weak thm1").ledgers == at("thm1 weak weak").ledgers == ("weak", "thm1")
    assert at("weak thm1").digest() == at("thm1 WEAK weak").digest()
    assert at("maxreg scan thm2 thm1 weak").ledgers == ("weak", "thm1", "thm2", "scan", "maxreg")


def test_readme_config_blocks_parse():
    """Every ini block in README parses, and its comments after values do
    not reach the digest."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert blocks
    for text in blocks:
        assert re.search(r"\s;", text)  # the block does carry inline comments
        bare = re.sub(r"\s+;.*", "", text)
        cfg = parse_config(text)
        assert cfg == parse_config(bare)
        assert cfg.digest() == parse_config(bare).digest()


# a value for every key of every section, and each source kind's own keys
_EVERY_KEY = {
    "problem": {"p": "2", "gamma": "2", "lambda": "1", "eps": "1e-2", "q": "3", "scale": "2"},
    "grid": {"extents": "1 1", "cells": "24 24"},
    "solver": {"tol": "1e-8", "max_iter": "20", "continuation": "on"},
    "analysis": {
        "beta": "4",
        "ledgers": "weak thm1",
        "k_levels": "1 2",
        "sobolev_dim": "3",
        "epsilon_sweep": "1e-2",
        "scales": "1 2",
        "lambda_sweep": "1",
        "h_sweep": "16 24",
    },
}
_KIND_KEYS = {
    "cosine": {"amplitude": "8", "modes": "1 1"},
    "radial": {"center": "0.5 0.5", "power": "0.55", "amplitude": "30", "core_radius": "0.01"},
    "random": {"seed": "3", "cutoff": "4"},
}
# (source kind, section, key) for each key of the parser's tables
_TABLE_KEYS = [
    ("cosine", section, key) for section, table in _SECTIONS.items() for key in table
] + [(kind, "problem", key) for kind, (_, keys) in _SOURCES.items() for key in keys]
_TABLE_IDS = [f"{kind}-{section}-{key}" for kind, section, key in _TABLE_KEYS]


def _every_key_config(kind, section=None, key=None, value=None):
    """A config of source ``kind`` that sets every key, with ``key`` of
    ``section`` set to ``value`` instead, or left out if ``value`` is None."""
    sections = {name: dict(entries) for name, entries in _EVERY_KEY.items()}
    sections["problem"].update(source=kind, **_KIND_KEYS[kind])
    if key is not None:
        del sections[section][key]
        if value is not None:
            sections[section][key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for name, entries in sections.items()
    )


def test_every_key_config_sets_every_key_of_the_tables():
    declared = {(section, key) for _, section, key in _TABLE_KEYS}
    written = {(s, k) for s, entries in _EVERY_KEY.items() for k in entries}
    written |= {("problem", k) for keys in _KIND_KEYS.values() for k in keys}
    assert declared == written | {("problem", "source")}
    for kind in _KIND_KEYS:
        parse_config(_every_key_config(kind))


@pytest.mark.parametrize("kind, section, key", _TABLE_KEYS, ids=_TABLE_IDS)
def test_a_value_that_does_not_convert_names_its_key_and_section(kind, section, key):
    with pytest.raises(ConfigError, match=rf"bad value for '{key}' in section \[{section}\]"):
        parse_config(_every_key_config(kind, section, key, "x"))


@pytest.mark.parametrize("kind, section, key", _TABLE_KEYS, ids=_TABLE_IDS)
def test_a_missing_required_key_is_named(kind, section, key):
    """Dropping a required key is a config error naming it; dropping any
    other key leaves a config that parses."""
    text = _every_key_config(kind, section, key)
    table = _SECTIONS[section] if key in _SECTIONS[section] else _SOURCES[kind][1]
    if table[key][-1] is ...:
        with pytest.raises(ConfigError, match=f"missing key '{key}'"):
            parse_config(text)
    else:
        parse_config(text)


def test_readme_config_format_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config format\n")[1].split("\n## ")[0]
    assert {key for _, _, key in _TABLE_KEYS if f"`{key}`" not in section} == set()


@pytest.mark.parametrize("beta, ledgers", [("1", "thm1"), ("1.9", "thm1 weak"), ("-1", "weak")])
def test_a_test_power_below_a_ledgers_bound_fails_before_the_solve(
    tmp_path, monkeypatch, capsys, beta, ledgers
):
    """thm1 needs beta >= 2 and weak beta >= 0.  A config that asks for a
    ledger below its bound is a config error naming beta, so ``check``
    reports it and no run solves a config the ledger would reject after the
    solve; so is such a variant of a good config."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config whose ledger refuses its beta")

    monkeypatch.setattr(runner_module, "solve", no_solve)
    text = SMOOTH + f"\n[analysis]\nbeta = {beta}\nledgers = {ledgers}\n"
    with pytest.raises(ConfigError, match="beta"):
        parse_config(text)
    cfg = _write(tmp_path, "bad.ini", text)
    for argv in (["check", cfg], ["solve", cfg]):
        assert main(argv) == 2
        assert "beta" in capsys.readouterr().err
    good = parse_config(SMOOTH + f"\n[analysis]\nledgers = {ledgers}\n")
    with pytest.raises(ConfigError, match="beta"):
        dataclasses.replace(good, beta=Fraction(beta))
    # bernstein runs every ledger when the config names none
    bare = _write(tmp_path, "bare.ini", SMOOTH + f"\n[analysis]\nbeta = {beta}\n")
    assert main(["bernstein", bare]) == 2
    assert "beta" in capsys.readouterr().err
    # a beta that only other ledgers see is fine
    assert parse_config(SMOOTH + "\n[analysis]\nbeta = 1\nledgers = thm2 scan\n").beta == 1


def test_validate_checks_source_membership():
    """L^q membership is checked on every config: at parse, and on every
    variant made from one, such as a sweep point."""
    with pytest.raises(ConfigError, match="not in L"):
        parse_config(SINGULAR.replace("power = 0.55", "power = 0.9"))
    with pytest.raises(ConfigError, match="not in L"):
        dataclasses.replace(parse_config(SINGULAR), q=Fraction(4))


def test_natural_growth_config_rejected_at_build():
    cfg = parse_config(SMOOTH.replace("p = 2", "p = 3"))  # gamma = 2 = p - 1
    with pytest.raises(RegimeError, match="gamma > p-1"):
        cfg.build_problem()


def test_run_experiment_persists_and_caches(tmp_path, linear_solves):
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
    for stage, report in zip(stages, payload["solve"]["stages"]):
        assert stage["residual_history"][-1] == report["residual_norm"]
        assert len(stage["residual_history"]) == stage["iterations"] + 1
        assert 0 <= stage["damping_events"] <= stage["iterations"]
    assert "residual_history" not in json.dumps(payload)
    assert len(linear_solves) == payload["solve"]["total_iterations"]
    assert all(res <= target for res, target in linear_solves)
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


def test_record_directory_is_named_by_its_payload_hash(tmp_path):
    """A record's directory name is the first 16 hex digits of the sha256 of
    its record.json bytes."""
    result = run_experiment(parse_config(SMOOTH), tmp_path)
    data = (result.path / "record.json").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert result.path.name == digest[:16]
    assert records.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 100_000])
def test_builtin_sha256_is_hashlibs(size):
    """The hash behind config digests and record ids is SHA-256 on either
    side of the one-block padding edge (55 and 56 bytes), at one block and
    over many."""
    data = np.random.default_rng(size).bytes(size)
    assert records.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="CPython's built-in SHA-256 module"
)
def test_sha256_is_the_interpreters_own():
    """The hash comes from ``_sha2`` on 3.12+ and ``_sha256`` on 3.10 and
    3.11, so a silent fallback to hashlib, and with it OpenSSL, fails here."""
    module = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert records.sha256 is importlib.import_module(module).sha256


_NO_BUILTIN_SHA256 = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from gradlab.harness import parse_config
from gradlab.harness.records import persist_record, sha256

config, out_dir = sys.argv[1:]
path, _ = persist_record(out_dir, {"cells": [24, 24], "eps": 0.01}, {})
print(json.dumps({
    "hashlib": sha256 is hashlib.sha256,
    "digest": parse_config(open(config).read()).digest(),
    "record": path.name,
}))
"""


def test_interpreters_without_the_builtin_sha256_fall_back_to_hashlib(tmp_path):
    """With neither built-in module importable, gradlab hashes through
    hashlib and gets the same config digest and record id."""
    src = str(Path(gradlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_BUILTIN_SHA256, _write(tmp_path, "c.ini", SMOOTH),
         str(tmp_path / "theirs")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    ours, _ = records.persist_record(tmp_path / "ours", {"cells": [24, 24], "eps": 0.01}, {})
    assert json.loads(proc.stdout) == {
        "hashlib": True,
        "digest": parse_config(SMOOTH).digest(),
        "record": ours.name,
    }


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
    # warm points solve in one stage on their own grid, not nested
    for row in eps_rows[1:]:
        assert [s["cells"] for s in row.payload["solve"]["stages"]] == [[48, 48]]
    norms = [r.payload["norms"]["du_qgamma"] for r in eps_rows]
    spread = (max(norms) - min(norms)) / min(norms)
    assert spread <= 0.05
    h_rows = sweep(cfg, "h", tmp_path / "h")
    assert [r.payload["parameters"]["cells"] for r in h_rows] == [[32, 32], [48, 48]]
    # the 48^2 point starts from the 32^2 solution, prolonged
    assert len(h_rows[1].payload["solve"]["stages"]) == 1
    _assert_matches_cold(h_rows[1], run_experiment(cfg))


def test_lambda_sweep_is_a_warm_chain(tmp_path):
    cfg = parse_config(
        SINGULAR.replace("cells = 48 48", "cells = 64 64") + "lambda_sweep = 0.5 1 2\n"
    )
    rows = sweep(cfg, "lambda", tmp_path)
    assert [r.payload["parameters"]["lambda"] for r in rows] == ["1/2", "1", "2"]
    assert len(rows[0].payload["solve"]["stages"]) > 1
    for row in rows[1:]:
        assert len(row.payload["solve"]["stages"]) == 1
    _assert_matches_cold(rows[-1], run_experiment(dataclasses.replace(cfg, lam=Fraction(2))))


def _assert_matches_cold(warm, cold):
    """A warm-chained point agrees with a cold solve of its config within
    ``10 tol / (lam h)``, and every ledger verdict is the same."""
    params = cold.payload["parameters"]
    tol = parse_config(SINGULAR).solver.tol
    bound = 10 * tol / (float(Fraction(params["lambda"])) / max(params["cells"]))
    assert warm.payload["parameters"] == params
    assert np.max(np.abs(warm.u.values - cold.u.values)) <= bound
    for key, value in cold.payload["norms"].items():
        assert warm.payload["norms"][key] == pytest.approx(value, rel=bound, abs=1e-15)

    def verdicts(payload):
        return {
            (name, row["lemma"]): row["passed"]
            for name, block in payload["ledgers"].items()
            for row in block["rows"]
        }

    assert verdicts(cold.payload)
    assert verdicts(warm.payload) == verdicts(cold.payload)


def test_runner_has_no_thread_pool():
    """Every sweep axis is one serial warm chain."""
    tree = ast.parse(Path(runner_module.__file__).read_text())
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not any(name and name.startswith("concurrent") for name in imported)


# kept with no caller in src/: the tests' reference for the adjointness of
# the flux divergence
_UNCALLED_IN_SRC = {"dirichlet_form"}


def _identifiers(tree, bare=True):
    """Every name the tree mentions: attributes and the identifier-like
    strings that perfbench rebinds entry points by, and with ``bare`` also
    loads and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value
        elif not bare:
            continue
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


# A method named like a numpy array attribute (``Grid.shape``) would count
# as reached by any array's ``.shape``, so it counts only when read on a
# receiver of its class: a name (``grid.shape``) or an attribute
# (``bundle.grid.shape``) spelled as listed here.
_RECEIVERS = {"Grid": {"grid", "g"}, "Box": {"box", "domain"}}


def _receiver_attributes(tree, receivers):
    """The attributes the tree reads on a receiver named in ``receivers``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in receivers:
                yield node.attr


def test_every_definition_in_src_is_named_outside_itself():
    """``src/`` holds no code that only the tests reach: each function, class
    and method is named somewhere in ``src/`` outside its own definition, or
    in perfbench, which rebinds layer entry points by name.  A method is
    reached through an attribute or by name in a string, so a bare name,
    such as a local variable of the same name, does not count for it; a
    method named like an array attribute is reached only through a receiver
    of its class (``_RECEIVERS``)."""
    package = Path(gradlab.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = [ast.parse(path.read_text()) for path in package.rglob("*.py")]
    others = [ast.parse(path.read_text()) for path in perfbench.glob("*.py")]
    named, attributes = Counter(), Counter()
    for tree in trees + others:
        named.update(_identifiers(tree))
        attributes.update(_identifiers(tree, bare=False))
    array_attributes = set(dir(np.ndarray))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = set()
    for tree in trees:
        owners = {
            node: cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, defs) or node.name.startswith("__"):
                continue
            method = node in owners
            if method and node.name in array_attributes:
                owner = owners[node]
                assert owner in _RECEIVERS, f"name the receivers of {owner}.{node.name}"
                receivers = _RECEIVERS[owner]
                counts = Counter(
                    name
                    for other in trees + others
                    for name in _receiver_attributes(other, receivers)
                )
                mentions = _receiver_attributes(node, receivers)
            else:
                counts = attributes if method else named
                mentions = _identifiers(node, bare=not method)
            inside = sum(name == node.name for name in mentions)
            if counts[node.name] == inside:
                unnamed.add(f"{owners[node]}.{node.name}" if method else node.name)
    assert unnamed == _UNCALLED_IN_SRC


def _imported_names(tree):
    """``(name, line)`` for each name an import binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _reexported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_in_src_imports_a_name_it_never_uses():
    """Each name a module in ``src/`` imports is read in that module, or,
    in a package ``__init__``, re-exported through ``__all__``."""
    package = Path(gradlab.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= _reexported(tree)
        for name, line in _imported_names(tree):
            if name not in read:
                unused.append(f"{path.relative_to(package)}:{line} {name}")
    assert unused == []


def test_only_the_harness_runs_ladders_of_solves():
    """``bernstein`` audits one given solution and ``solver`` solves one
    problem: neither runs a ladder of solves."""
    package = Path(gradlab.__file__).parent
    bern = ast.parse((package / "bernstein.py").read_text())
    from_solver = {
        alias.name
        for node in ast.walk(bern)
        if isinstance(node, ast.ImportFrom) and node.module == "solver"
        for alias in node.names
    }
    assert from_solver and "solve" not in from_solver
    solver = ast.parse((package / "solver.py").read_text())
    callers = {
        fn.name
        for fn in ast.walk(solver)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "solve"
    }
    assert callers <= {"solve"}


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


@pytest.mark.parametrize(
    "axis, values, error",
    [
        ("h", "h_sweep = 48 6", ResolutionError),
        ("eps", "epsilon_sweep = 1e-1 -1e-2", ParameterError),
        ("lambda", "lambda_sweep = 1 -1", ParameterError),
        ("lambda", "lambda_sweep = 1 0", UnsupportedRegimeError),
        ("scale", "scales = 1 nan", ParameterError),
        ("eps", "epsilon_sweep = 1e-1 inf", ParameterError),
        ("lambda", "lambda_sweep = 1 nan", ParameterError),
        ("lambda", "lambda_sweep = 1 inf", ParameterError),
    ],
)
def test_sweep_with_a_bad_point_fails_before_it_solves(
    tmp_path, monkeypatch, axis, values, error
):
    """A sweep builds every point's problem, grid and exponent table before
    its first solve, so a bad later point costs no solve and leaves no
    record; ``check`` builds them too and rejects the config."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every point was checked")

    monkeypatch.setattr("gradlab.harness.runner.solve", no_solve)
    text = SMOOTH + f"\n[analysis]\n{values}\n"
    with pytest.raises(error):
        sweep(parse_config(text), axis, tmp_path)
    assert not any(tmp_path.iterdir())
    assert main(["check", _write(tmp_path, "bad.ini", text)]) == 2


@pytest.mark.parametrize("error", [NonconvergenceError("stalled"), TypeError("bug")])
def test_sweep_stops_at_the_first_failed_point(tmp_path, monkeypatch, error):
    """A failed point stops a sweep, and its error propagates whatever its
    type: the point before it keeps its record, the one after is not solved."""
    real_solve = runner_module.solve
    solved = []  # eps of each point whose solve was called

    def fails_second(problem, grid, options=None, initial=None):
        solved.append(problem.eps)
        if len(solved) == 2:
            raise error
        return real_solve(problem, grid, options, initial=initial)

    monkeypatch.setattr("gradlab.harness.runner.solve", fails_second)
    cfg = parse_config(SMOOTH + "\n[analysis]\nepsilon_sweep = 1e-1 1e-2 1e-3\n")
    with pytest.raises(type(error)):
        sweep(cfg, "eps", tmp_path)
    assert solved == [1e-1, 1e-2]
    [record] = list_records(tmp_path)
    payload, meta = load_record(record)
    assert payload["parameters"]["eps"] == 1e-1
    assert (meta["sweep_axis"], meta["sweep_value"]) == ("eps", 1e-1)


def test_scale_variants_digest_text_parses_back():
    """A base config with no scale entry and a [solver] section: each
    variant is, digest and all, the config written with that scale."""
    text = SMOOTH + "\n[solver]\ntol = 1e-9\n\n[analysis]\nscales = 1 2\n"
    variants = _sweep_variants(parse_config(text), "scale")
    assert [v for v, _ in variants] == [1.0, 2.0]
    for value, variant in variants:
        assert variant.source_params["scale"] == value
        written = parse_config(text.replace("modes = 1 1", f"modes = 1 1\nscale = {value:g}"))
        assert written == variant
        assert written.digest() == variant.digest()


def test_sweep_axis_validation(tmp_path):
    cfg = parse_config(SMOOTH)
    with pytest.raises(ConfigError):
        sweep(cfg, "eps", tmp_path)  # no epsilon_sweep values configured
    with pytest.raises(ConfigError):
        sweep(cfg, "temperature", tmp_path)


def _with_solver(config, **options):
    """``config`` with the given solver settings replaced."""
    return dataclasses.replace(config, solver=dataclasses.replace(config.solver, **options))


def _cosine_exact(coords):
    return np.prod([np.cos(np.pi * x) for x in coords], axis=0)


def _cosine_forcing(coords, p=2.0, gamma=2.0, eps=1e-2):
    """The source for which ``u = prod_d cos(pi x_d)`` solves the problem at
    lam = 1: ``u - a(w) Lap u - 2 a'(w) Du.D^2u Du + w^(gamma/2)``, with
    ``w = eps + |Du|^2`` and ``Lap u = -N pi^2 u``."""
    n = len(coords)
    cos = [np.cos(np.pi * x) for x in coords]
    sin = [np.sin(np.pi * x) for x in coords]

    def cos_except(*axes):
        return np.prod([cos[e] for e in range(n) if e not in axes], axis=0)

    u = np.prod(cos, axis=0)
    du = [-np.pi * sin[d] * cos_except(d) for d in range(n)]
    w = eps + sum(g**2 for g in du)
    # u_dd = -pi^2 u and, for d != e, u_de = pi^2 sin_d sin_e (the other cosines)
    quad = -np.pi**2 * u * (w - eps) + sum(
        2 * np.pi**2 * sin[d] * sin[e] * cos_except(d, e) * du[d] * du[e]
        for d in range(n) for e in range(d + 1, n)
    )
    a = w ** ((p - 2) / 2)
    a_prime = (p - 2) / 2 * w ** ((p - 4) / 2)
    return u + n * np.pi**2 * a * u - 2 * a_prime * quad + w ** (gamma / 2)


def _verdicts(payload):
    """Every ledger verdict of a payload, by ledger and row."""
    out = {}
    for name, block in payload["ledgers"].items():
        if name in ("thm1", "thm2"):
            out.update({f"{name}.{r['lemma']}": r["passed"] for r in block["rows"]})
        elif name == "scan":
            out[name] = (block["small_branch_ok"], tuple(block["chebyshev_ok"]))
        elif name == "maxreg":
            out[name] = block["relative_agreement"] <= 64 * sys.float_info.epsilon
        else:
            out[name] = block["passed"]
    return out


@pytest.mark.parametrize(
    "text, single_steps",
    [
        (
            SINGULAR.replace("cells = 48 48", "cells = 64 64").replace(
                "ledgers = thm2", "ledgers = weak thm1 thm2 scan maxreg"
            ),
            8,
        ),
        (RADIAL_3D.replace("cells = 16 16 16", "cells = 32 32 32"), 6),
    ],
    ids=["readme-64", "radial-32cubed"],
)
def test_nested_cold_solve_matches_a_single_grid_cold_solve(text, single_steps):
    """The nested solve and a cold solve on the target grid alone
    (``continuation = off``, in at most ``single_steps`` Newton steps) reach
    the same solution, to what two residuals below tol allow, and the same
    ledger verdicts."""
    config = parse_config(text)
    problem, grid, options = config.build_problem(), config.build_grid(), config.solver
    single = run_experiment(_with_solver(config, continuation=False))
    assert [s["cells"] for s in single.payload["solve"]["stages"]] == [list(grid.cells)]
    assert single.payload["solve"]["total_iterations"] <= single_steps
    nested = run_experiment(config)
    for stages in (nested.payload["solve"]["stages"], nested.meta["solve"]["stages"]):
        assert stages[0]["cells"] == [n // 2 for n in grid.cells]
        assert stages[-1]["cells"] == list(grid.cells)
    bound = 10 * options.tol / (problem.lam * grid.max_spacing)
    assert np.max(np.abs(nested.u.values - single.u.values)) <= bound
    assert _verdicts(nested.payload) == _verdicts(single.payload)
    assert len(_verdicts(nested.payload)) > 10


@pytest.mark.parametrize(
    "text, levels, max_steps",
    [
        (SINGULAR.replace("cells = 48 48", "cells = 64 64"), [32, 64], 13),
        (RADIAL_3D.replace("cells = 16 16 16", "cells = 32 32 32"), [16, 32], 11),
    ],
    ids=["readme-64", "radial-32cubed"],
)
def test_cold_solve_newton_count(text, levels, max_steps):
    """At tol = 1e-8 a cold solve takes one stage per grid of its nested
    iteration and no more Newton steps than measured; nesting down to 8
    cells per axis took 24 and 16."""
    config = _with_solver(parse_config(text), tol=1e-8)
    grid = config.build_grid()
    _, report = solve(config.build_problem(), grid, config.solver)
    assert report.converged
    assert [s.cells for s in report.stages] == [(n,) * grid.ndim for n in levels]
    assert report.total_iterations <= max_steps


def test_readme_config_solves_cold_with_its_source_scaled_by_4():
    """ROADMAP item 1's regression: README's config at tol = 1e-8 with its
    source scaled by 4 solves cold, in one stage on its own 48^2 grid.
    Nested down to 12^2, 8 cells per axis being the only floor, Newton
    stalls there after 50 steps, at residual 4.676e-2."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0]
    config = parse_config(text.replace("amplitude = 30", "amplitude = 30\nscale = 4"))
    config = _with_solver(config, tol=1e-8)
    assert config.cells == (48, 48) and config.source_params["scale"] == 4.0
    _, report = solve(config.build_problem(), config.build_grid(), config.solver)
    assert report.converged
    assert [s.cells for s in report.stages] == [(48, 48)]
    assert report.total_iterations <= 16


@pytest.mark.parametrize(
    "p, gamma, ndim, base_cells",
    [(2.0, 2.0, 2, 16), (3.0, 3.0, 2, 16), (2.0, 2.0, 3, 8), (3.0, 3.0, 3, 8)],
    ids=["p2-2d", "p3-2d", "p2-3d", "p3-3d"],
)
def test_convergence_study_second_order(p, gamma, ndim, base_cells):
    """Manufactured continuum solution u* = prod_d cos(pi x_d) at lam = 1,
    with its closed-form source, on the compact stencil (p = 2) and the wide
    one (p = 3), in 2D and 3D: second order on every stencil path."""
    study = convergence_study(
        Box((1.0,) * ndim), p=p, gamma=gamma, lam=1.0, eps=1e-2,
        f_exact=functools.partial(_cosine_forcing, p=p, gamma=gamma),
        u_exact=_cosine_exact, base_cells=base_cells, levels=3,
    )
    assert len(study.levels) == 3
    assert all(lv.converged for lv in study.levels)
    assert min(study.orders_linf) >= 1.8
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


def test_convergence_study_chains_from_the_last_converged_level(box2d, monkeypatch):
    """Only the first level is cold; a failed level is recorded and the next
    one starts from the last level that converged."""
    calls = []  # (cells, cells of the initial field, stages solved)
    real_solve = runner_module.solve

    def solve(problem, grid, options=None, initial=None):
        start = initial.grid.cells[0] if initial is not None else None
        if grid.cells[0] == 16:
            calls.append((16, start, None))
            raise NonconvergenceError("stalled")
        u, report = real_solve(problem, grid, options, initial=initial)
        calls.append((grid.cells[0], start, len(report.stages)))
        return u, report

    monkeypatch.setattr("gradlab.harness.runner.solve", solve)
    study = convergence_study(
        box2d, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
        f_exact=_cosine_forcing, u_exact=_cosine_exact, base_cells=8, levels=4,
    )
    # 8^2 cannot be halved, so the cold level is one stage on itself
    assert calls[0] == (8, None, 1)
    assert calls[1:] == [(16, 8, None), (32, 8, 1), (64, 32, 1)]
    assert [lv.converged for lv in study.levels] == [True, False, True, True]
    assert study.orders_linf[0] >= 1.7


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


def test_emit_report_loads_each_record_once(tmp_path, monkeypatch):
    for amplitude in (8, 9):
        cfg = parse_config(SMOOTH.replace("amplitude = 8", f"amplitude = {amplitude}"))
        run_experiment(cfg, tmp_path / "records")
    calls = []

    def counted(path):
        calls.append(Path(path).name)
        return load_record(path)

    monkeypatch.setattr(runner_module, "load_record", counted)
    written = emit_report(tmp_path / "records", tmp_path / "out")
    assert len(json.loads(written["report.json"].read_text())) == 2
    assert len(calls) == 2 and len(set(calls)) == 2


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


@pytest.mark.parametrize("p", ["abc", "1/0"])
def test_cli_exponents_refuses_a_value_that_is_not_a_rational(capsys, p):
    assert main(["exponents", "-N", "3", "-p", p, "--gamma", "6", "-q", "3"]) == 2
    assert "not a finite rational number" in capsys.readouterr().err


def test_random_source_refuses_a_negative_seed(tmp_path, capsys):
    """numpy refuses a negative seed only when it samples the field; the
    config is refused when it is made."""
    text = SMOOTH.replace("source = cosine", "source = random\nseed = -1").replace(
        "amplitude = 8\nmodes = 1 1\n", ""
    )
    with pytest.raises(ParameterError, match="seed"):
        parse_config(text)
    assert main(["check", _write(tmp_path, "seed.ini", text)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_cli_config_failures(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", SMOOTH.replace("gamma = 2", "gamma = 1"))
    assert main(["check", bad]) == 2
    assert main(["check", str(tmp_path / "missing.ini")]) == 2
    # a number that does not parse is a config error, not a traceback
    bad = _write(tmp_path, "nan.ini", SMOOTH.replace("eps = 1e-2", "eps = abc"))
    assert main(["check", bad]) == 2
    assert "'eps'" in capsys.readouterr().err


_SINGULAR_16 = SINGULAR.replace("cells = 48 48", "cells = 16 16")
_SMOOTH_16 = SMOOTH.replace("cells = 24 24", "cells = 16 16")


@pytest.mark.parametrize(
    "text, message",
    [
        (SMOOTH.replace("cells = 24 24", "cells = 48 4"), "cells"),
        (SMOOTH.replace("modes = 1 1", "modes = 1"), "cosine mode vector"),
        (_SINGULAR_16.replace("center = 0.5 0.5", "center = 0.5"), "singularity center"),
        (
            _SINGULAR_16.replace("center = 0.5 0.5", "center = 0.53125 0.53125"),
            "coincides with the singularity",
        ),
        (_SINGULAR_16.replace("eps = 1e-2", "eps = nan"), "eps must be positive"),
        (_SMOOTH_16.replace("eps = 1e-2", "eps = inf"), "eps must be positive and finite"),
        (_SMOOTH_16.replace("eps = 1e-2", "eps = 1e400"), "eps must be positive and finite"),
        (_SINGULAR_16.replace("amplitude = 30", "amplitude = nan"), "not finite"),
        (_SINGULAR_16.replace("extents = 1 1", "extents = 1 nan"), "box extents"),
        (_SINGULAR_16.replace("power = 0.55", "power = nan"), "singular power"),
        (
            _SINGULAR_16.replace("power = 0.55", "power = 0.55\ncore_radius = nan"),
            "core radius",
        ),
    ],
    ids=[
        "coarse-grid",
        "cosine-modes",
        "radial-center-dimension",
        "radial-center-on-a-cell",
        "nan-eps",
        "inf-eps",
        "overflowing-eps",
        "nan-amplitude",
        "nan-extent",
        "nan-power",
        "nan-core",
    ],
)
def test_cli_check_rejects_grid_that_solve_rejects(tmp_path, capsys, text, message):
    """A config that ``solve`` rejects before any Newton step fails ``check``
    with the same message."""
    cfg = _write(tmp_path, "bad.ini", text)
    assert main(["check", cfg]) == 2
    assert message in capsys.readouterr().err
    assert main(["solve", cfg]) == 2
    assert message in capsys.readouterr().err


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
    is that of a config naming them, not the solve record's."""
    cfg = _write(tmp_path, "smooth.ini", SMOOTH)
    assert main(["solve", cfg, "--out", str(tmp_path / "solve")]) == 0
    main(["bernstein", cfg, "--out", str(tmp_path / "bern")])
    (solved,) = [load_record(r)[0] for r in list_records(tmp_path / "solve")]
    (bern,) = [load_record(r)[0] for r in list_records(tmp_path / "bern")]
    five = ("weak", "thm1", "thm2", "scan", "maxreg")
    expected = dataclasses.replace(parse_config(SMOOTH), ledgers=five)
    assert solved["config_digest"] == parse_config(SMOOTH).digest()
    assert bern["config_digest"] == expected.digest() != solved["config_digest"]
    written = parse_config(SMOOTH + "\n[analysis]\nledgers = " + " ".join(five) + "\n")
    assert written == expected and written.ledgers == five
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


def test_bad_analysis_entry_fails_before_the_solve(tmp_path, monkeypatch, capsys):
    """An ``[analysis]`` entry that the exponent table rejects stops ``solve``
    and ``sweep`` before any Newton step, as it stops ``check``."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config with a bad [analysis] entry")

    monkeypatch.setattr(runner_module, "solve", no_solve)
    text = _SINGULAR_16.replace("sobolev_dim = 3", "sobolev_dim = 2")
    with pytest.raises(ParameterError, match="Sobolev dimension"):
        run_experiment(parse_config(text))
    cfg = _write(tmp_path, "bad.ini", text)
    for argv in (["check", cfg], ["solve", cfg], ["sweep", cfg, "--axis", "eps"]):
        assert main(argv) == 2
        assert "Sobolev dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "levels", ["0.5 1.0 1.5 2.0", "1.0 1.3 1.3 1.9", "1.0 1.6 1.3 1.9", "nan 1.3 1.6 1.9"]
)
def test_bad_k_levels_fail_before_the_solve(tmp_path, monkeypatch, capsys, levels):
    """Superlevel thresholds below 1, or not strictly increasing, are a
    config error that names the key, so ``check`` reports them and no run
    solves a config that thm2 or the scan would reject after the solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config with bad k_levels")

    monkeypatch.setattr(runner_module, "solve", no_solve)
    text = _SINGULAR_16.replace("k_levels = 1.0 1.3 1.6 1.9 2.2", f"k_levels = {levels}")
    assert text != _SINGULAR_16
    with pytest.raises(ConfigError, match="'k_levels'"):
        parse_config(text)
    cfg = _write(tmp_path, "bad.ini", text)
    for argv in (["check", cfg], ["solve", cfg]):
        assert main(argv) == 2
        assert "'k_levels'" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["max_iter = -1", "tol = 0", "tol = nan"])
def test_cli_bad_solver_setting_exits_2(tmp_path, capsys, setting):
    """A solver setting no solve can honour is a config error, reported
    before any Newton step, not a crash or a stall."""
    cfg = _write(tmp_path, "bad.ini", SMOOTH + f"\n[solver]\n{setting}\n")
    assert main(["solve", cfg]) == 2
    assert "bad [solver] section" in capsys.readouterr().err


def test_cli_sweep_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, "sing.ini", SINGULAR)
    out_dir = str(tmp_path / "runs")
    assert main(["sweep", cfg, "--axis", "h", "--out", out_dir]) == 0
    assert main(["report", out_dir, "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "report.csv").exists()


_SCIPY_PROBE = """
import json, sys
from pathlib import Path


def modules():
    return sorted(sys.modules)


import gradlab.bernstein
import gradlab.harness.cli
from gradlab.grid import load_field
from gradlab.harness import parse_config, run_experiment
from gradlab.solver import jacobian, solve

loaded = {"import": modules()}
config_path, field_path, out_dir = sys.argv[1:]
cfg = parse_config(Path(config_path).read_text())
audit = run_experiment(cfg, out_dir, initial=load_field(field_path))
loaded["audit"] = modules()
problem = cfg.build_problem()
u, report = solve(problem, cfg.build_grid())
nnz = jacobian(problem, u).nnz
loaded["solve"] = modules()
print(json.dumps({
    "newton": {
        "import": 0,
        "audit": audit.payload["solve"]["total_iterations"],
        "solve": report.total_iterations,
    },
    "nnz": nnz,
    "record": str(audit.path),
    "loaded": loaded,
}))
"""


@pytest.fixture(scope="module")
def scipy_probe(tmp_path_factory):
    """One subprocess that imports the CLI and the ledgers, re-audits a
    stored converged field and persists its record, then solves and calls
    ``jacobian()``, noting the modules loaded after each step."""
    tmp = tmp_path_factory.mktemp("scipy_probe")
    text = SMOOTH.replace("cells = 24 24", "cells = 16 16")
    config_path = _write(tmp, "probe.ini", text)
    field_path = tmp / "u.field"
    save_field(field_path, run_experiment(parse_config(text)).u)
    src = str(Path(gradlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, config_path, str(field_path),
         str(tmp / "records")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "step, absent",
    [(step, ("scipy", "_hashlib")) for step in ("import", "audit", "solve")],
)
def test_scipy_loads_only_where_it_runs(scipy_probe, step, absent):
    """Importing the CLI and the ledgers, re-auditing a converged field
    without a Newton step, and a Newton solve followed by the public
    ``jacobian()`` load no scipy module at all: the Jacobian is numpy's own
    banded operator.  Nor do they load OpenSSL's ``_hashlib``: the config
    digest and the record id come from the interpreter's built-in SHA-256.
    The three steps share one subprocess."""
    assert (scipy_probe["newton"][step] > 0) == (step == "solve")
    assert scipy_probe["record"]
    assert scipy_probe["nnz"] > 0
    loaded = [
        m for m in scipy_probe["loaded"][step]
        if any(m == a or m.startswith(a + ".") for a in absent)
    ]
    assert loaded == []


# the interpreter's SHA-256 module, ``_sha256`` up to 3.11 and ``_sha2`` from
# 3.12: each is stdlib, but 3.11's ``sys.stdlib_module_names`` lacks
# ``_sha2`` and 3.12's lacks ``_sha256``, and ``harness/records.py`` imports
# both, one as the fallback of the other
_BUILTIN_SHA256 = {"_sha2", "_sha256"}


def _top_level_imports(root: Path) -> set:
    """The non-stdlib top-level packages that the files under ``root``
    import by absolute name, gradlab and the modules beside them (the tests'
    ``fingerprints``) left out."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {path.stem for path in root.glob("*.py")} | {"gradlab"}
    return names - set(sys.stdlib_module_names) - _BUILTIN_SHA256 - local


def test_imports_are_declared_dependencies():
    """``src/`` imports numpy alone, the one runtime dependency; the tests
    import nothing beyond it and the ``test`` extra (pytest, hypothesis
    and scipy, their reference)."""
    tomllib = pytest.importorskip("tomllib")
    repo = Path(__file__).resolve().parents[1]
    project = tomllib.loads((repo / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}

    runtime = names(project["dependencies"])
    assert runtime == {"numpy"}
    assert _top_level_imports(repo / "src") <= runtime
    test_extra = names(project["optional-dependencies"]["test"])
    assert _top_level_imports(repo / "tests") <= runtime | test_extra


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


def test_no_ledger_state_outlives_its_run(monkeypatch):
    """The bundle a run builds, and all it memoizes, is freed once the run
    returns: nothing at module level keeps the last one alive."""
    refs = []
    inner = bernstein.prepare_bundle

    def keep_a_weakref(*args, **kwargs):
        bundle = inner(*args, **kwargs)
        refs.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(bernstein, "prepare_bundle", keep_a_weakref)
    config = parse_config(
        SINGULAR.replace("cells = 48 48", "cells = 24 24").replace(
            "ledgers = thm2", "ledgers = weak thm1 thm2 scan maxreg"
        )
    )
    result = run_experiment(config)
    assert set(result.payload["ledgers"]) == {"weak", "thm1", "thm2", "scan", "maxreg"}
    gc.collect()
    assert len(refs) == 1
    assert refs[0]() is None


def test_a_run_takes_the_gradient_of_its_solution_once(monkeypatch):
    """The solve's last evaluation of ``u`` serves the norm table and the
    ledger bundle too: a 48^2 run of README's config with all five ledgers
    takes the gradient of the returned solution's values once."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = parse_config(re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0])
    assert config.cells == (48, 48)
    assert config.ledgers == ("weak", "thm1", "thm2", "scan", "maxreg")
    seen = []
    for module in (gradlab.solver, bernstein, runner_module):
        if hasattr(module, "gradient"):
            inner = module.gradient

            def recorded(grid, values, _inner=inner):
                seen.append(np.array(values, copy=True))
                return _inner(grid, values)

            monkeypatch.setattr(module, "gradient", recorded)
    result = run_experiment(config)
    assert result.payload["solve"]["converged"]
    assert all(result.payload["ledgers"][name].get("skipped") is None for name in config.ledgers)
    u = result.u.values
    assert sum(v.shape == u.shape and np.array_equal(v, u) for v in seen) == 1


def test_residual_gate_bites_through_the_handed_over_residual(monkeypatch):
    """A solve that stops above ``RESIDUAL_GATE`` is still refused by the
    ledgers, now on the residual norm the solve reports.  The source is
    sampled once on the target grid, and nothing samples it or evaluates
    the residual again after the solve returns."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0]
    config = _with_solver(parse_config(text), tol=1e-4)
    assert config.cells == (48, 48) and "thm1" in config.ledgers
    calls = []
    for module, name in (
        (gradlab.solver, "sample_source"),
        (bernstein, "sample_source"),
        (gradlab.solver, "_residual_values"),
        (runner_module, "solve"),
    ):
        inner = getattr(module, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            out = _inner(*args, **kwargs)
            field = out[0] if _name == "solve" else getattr(out, "residual", out)
            calls.append((_name, np.shape(getattr(field, "values", field))))
            return out

        monkeypatch.setattr(module, name, counted)
    with pytest.raises(
        UnconvergedInputError, match=r"discrete residual 3\.724e-05 \(gate 1\.0e-06\)"
    ):
        run_experiment(config)
    on_target = [name for name, shape in calls if shape == (48, 48)]
    assert on_target.count("sample_source") == 1
    assert on_target[-1] == "solve"
    assert on_target.count("_residual_values") >= 1


def _readme_text():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0]


@pytest.mark.parametrize("name", ["readme", "radial3d"])
def test_payload_ledgers_report_the_exponent_tables_values(name):
    """The ledgers read r and the Sobolev dimension from the run's exponent
    table, so the payload's ledger constants are its ``exponents`` block's."""
    text = {"readme": _readme_text(), "radial3d": RADIAL_3D}[name]
    payload = run_experiment(parse_config(text)).payload
    exponents, ledgers = payload["exponents"], payload["ledgers"]
    rows = {f"{family}.{row['lemma']}": row for family in ("thm1", "thm2")
            for row in ledgers[family]["rows"]}
    mainineq, diff3 = rows["thm2.mainineq"]["constants"], rows["thm1.diff3"]["constants"]
    assert mainineq["r"] == float(Fraction(exponents["thm2"]["r"]))
    assert mainineq["sobolev_dim"] == exponents["sobolev_dim"] == 3
    assert diff3["sobolev_dim"] == exponents["sobolev_dim"]
    assert ledgers["scan"]["sobolev_dim"] == exponents["sobolev_dim"]


def test_a_sweep_point_whose_source_cannot_be_sampled_fails_before_it_solves(
    tmp_path, monkeypatch, capsys
):
    """At 17^2 a cell center of README's radial source sits on its
    singularity.  The sweep samples every point's source on that point's
    grid before its first solve, so ``check`` rejects the config and the
    sweep writes no record, not the 16^2 and 24^2 ones first."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every point was sampled")

    monkeypatch.setattr("gradlab.harness.runner.solve", no_solve)
    text = re.sub(r"h_sweep = .*", "h_sweep = 16 24 17", _readme_text())
    cfg = _write(tmp_path, "h17.ini", text.replace("cells = 48 48", "cells = 16 16"))
    assert main(["check", cfg]) == 2
    assert "coincides with the singularity" in capsys.readouterr().err
    out_dir = tmp_path / "runs"
    assert main(["sweep", cfg, "--axis", "h", "--out", str(out_dir)]) == 2
    assert "coincides with the singularity" in capsys.readouterr().err
    assert not out_dir.exists() or not list_records(out_dir)


@pytest.mark.parametrize("eps", ["inf", "-1"])
def test_a_bad_eps_is_named_by_the_problems_rule(tmp_path, capsys, eps):
    """On README's gamma = 6 config the Hamiltonian's own checks would read
    a bad eps first; the problem's rule names it."""
    text = re.sub(r"eps = \S+", f"eps = {eps}", _readme_text(), count=1)
    assert main(["check", _write(tmp_path, "eps.ini", text)]) == 2
    assert "regularization eps must be positive and finite" in capsys.readouterr().err


def test_cli_check_prints_the_closed_form_constants(tmp_path, capsys):
    """README's config (p = 2, gamma = 6): ``2 t a'/a = p - 2 = 0``, margin
    ``p - 1 = 1``, and the Hamiltonian's ``c = 2``, ``C = 6 * 2^3 = 48``."""
    assert main(["check", _write(tmp_path, "readme.ini", _readme_text())]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "structure: ratio=0 margin=1" in lines
    assert "growth: lower=2 gradient=48" in lines
