"""INI experiment configs.

A config fully determines a run: the problem, the grid, the solver knobs,
and which analyses to evaluate.  Parsing is strict; an unknown section or
key is a :class:`ConfigError`, not a warning, so a typo cannot silently
drop an option.  The exponent-bearing parameters (p, gamma, q, lambda, and
the analysis beta) are parsed as exact fractions for the exponent calculus.
A config is its parsed values: its digest hashes them, not the text they
were written in, and a variant of it is a :func:`dataclasses.replace`.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError, ParameterError, UnsupportedRegimeError
from ..grid import Box, Grid, build_grid
from ..model.exponents import to_fraction
from ..model.problem import ProblemSpec
from ..model.sources import (
    CosineProduct,
    RadialSingular,
    Scaled,
    SeededSmoothRandom,
    lq_membership,
)
from ..solver import SolverOptions
from .records import sha256


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split())


def _ints(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.split())


def _boolean(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


# kind -> (class, {key: (convert, default)}).  A default of ``...`` marks a
# required key; one of ``None`` leaves an absent key out of the parameters,
# so the class's own default applies.
_SOURCES = {
    "cosine": (CosineProduct, {"amplitude": (float, 1.0), "modes": (_ints, (1, 1))}),
    "radial": (
        RadialSingular,
        {
            "center": (_floats, ...),
            "power": (float, ...),
            "amplitude": (float, 1.0),
            "core_radius": (float, None),
        },
    ),
    "random": (SeededSmoothRandom, {"seed": (int, ...), "cutoff": (int, None)}),
}

# every ledger, in the order a run evaluates them
_LEDGER_NAMES = ("weak", "thm1", "thm2", "scan", "maxreg")


def _source_kind(raw: str) -> str:
    kind = raw.strip().lower()
    if kind not in _SOURCES:
        raise ConfigError(f"unknown source kind; choose from {tuple(_SOURCES)}")
    return kind


def _ledgers(raw: str) -> tuple:
    """A set of ledgers, kept in their evaluation order."""
    named = raw.lower().split()
    for name in named:
        if name not in _LEDGER_NAMES:
            raise ConfigError(f"unknown ledger {name!r}; choose from {_LEDGER_NAMES}")
    return tuple(name for name in _LEDGER_NAMES if name in named)


def _k_levels(raw: str) -> tuple:
    # thm2 and the scan reject such levels too, but only after the solve
    levels = _floats(raw)
    increasing = all(a < b for a, b in zip(levels, levels[1:]))
    if not (increasing and all(k >= 1 for k in levels)):
        raise ConfigError("levels must be at least 1 and strictly increasing")
    return levels


# section -> {key: (field, convert, default)}, ``...`` marking a required
# key.  [problem] also takes its source kind's keys from _SOURCES; they and
# ``scale`` go to ``source_params``, and the [solver] fields to SolverOptions.
_SECTIONS = {
    "problem": {
        "p": ("p", to_fraction, ...),
        "gamma": ("gamma", to_fraction, ...),
        "lambda": ("lam", to_fraction, ...),
        "eps": ("eps", float, ...),
        "q": ("q", to_fraction, ...),
        "source": ("source_kind", _source_kind, ...),
        "scale": ("scale", float, None),
    },
    "grid": {"extents": ("extents", _floats, ...), "cells": ("cells", _ints, ...)},
    "solver": {
        "tol": ("tol", float, SolverOptions.tol),
        "max_iter": ("max_iter", int, SolverOptions.max_iter),
        "continuation": ("continuation", _boolean, SolverOptions.continuation),
    },
    "analysis": {
        "beta": ("beta", to_fraction, Fraction(4)),
        "ledgers": ("ledgers", _ledgers, ()),
        "k_levels": ("k_levels", _k_levels, ()),
        "sobolev_dim": ("sobolev_dim", int, None),
        "epsilon_sweep": ("epsilon_sweep", _floats, ()),
        "scales": ("scales", _floats, ()),
        "lambda_sweep": ("lambda_sweep", _floats, ()),
        "h_sweep": ("h_sweep", _ints, ()),
    },
}


@dataclass
class RunConfig:
    """Parsed experiment description."""

    # problem, with exact copies of the exponent-bearing entries
    p: Fraction
    gamma: Fraction
    lam: Fraction
    q: Fraction
    eps: float
    source_kind: str
    source_params: dict
    # grid
    extents: tuple
    cells: tuple
    # solver
    solver: SolverOptions
    # analysis
    beta: Fraction
    ledgers: tuple
    k_levels: tuple
    sobolev_dim: int | None
    epsilon_sweep: tuple
    scales: tuple
    lambda_sweep: tuple
    h_sweep: tuple

    def __post_init__(self):
        # on every config, each dataclasses.replace variant included
        if self.lam == 0:
            raise UnsupportedRegimeError(
                "a run needs lambda > 0; probe lambda -> 0 through a lambda_sweep "
                "of positive values"
            )
        # the ledgers' own bounds on the test power, which they check only
        # after the solve
        for ledger, least in (("weak", 0), ("thm1", 2)):
            if ledger in self.ledgers and self.beta < least:
                raise ConfigError(f"the {ledger} ledger needs beta >= {least}, got {self.beta}")
        ndim = len(self.extents)
        if not lq_membership(self.build_source(), float(self.q), ndim):
            raise ConfigError(f"declared source is not in L^{self.q} over a {ndim}d box")

    def digest(self) -> str:
        """Hash of the parsed values; exact fractions enter as ``p/q``."""
        values = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return sha256(values.encode()).hexdigest()

    def build_source(self):
        params = dict(self.source_params)
        scale = params.pop("scale", None)
        # parse_config refuses these first, and a parsed config holds every
        # key whose default is not None; a dataclasses.replace variant
        # reaches them here, from __post_init__
        if self.source_kind not in _SOURCES:
            raise ConfigError(
                f"unknown source kind {self.source_kind!r}; choose from {tuple(_SOURCES)}"
            )
        source_class, keys = _SOURCES[self.source_kind]
        for key in params:
            if key not in keys:
                raise ConfigError(f"{self.source_kind} source takes no key {key!r}")
        for key, (_, default) in keys.items():
            if default is not None and key not in params:
                raise ConfigError(f"{self.source_kind} source needs key {key!r}")
        base = source_class(**params)
        return Scaled(base, scale) if scale is not None else base

    def build_problem(self) -> ProblemSpec:
        return ProblemSpec.power_model(
            Box(self.extents),
            p=float(self.p),
            gamma=float(self.gamma),
            lam=float(self.lam),
            eps=self.eps,
            source=self.build_source(),
        )

    def build_grid(self) -> Grid:
        return build_grid(Box(self.extents), self.cells)


def _read(parser, section, table) -> dict:
    """Each key's converted entry, or its default if it is absent, by field.
    A value that does not convert is a ConfigError that names the key and the
    section, and carries a converter's own ConfigError as its reason."""
    values = {}
    for key, (field, convert, default) in table.items():
        if not parser.has_option(section, key):
            if default is ...:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
            values[field] = default
            continue
        raw = parser.get(section, key)
        try:
            values[field] = convert(raw)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            reason = f"; {exc}" if isinstance(exc, ConfigError) else ""
            raise ConfigError(
                f"bad value for {key!r} in section [{section}]: {raw!r}{reason}"
            ) from exc
    return values


def parse_config(text: str) -> RunConfig:
    # "key = value  ; note" is a comment after the value, as in README
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    fields = {}
    for section, table in _SECTIONS.items():
        fields |= _read(parser, section, table)
    kind = fields["source_kind"]
    _, keys = _SOURCES[kind]
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key in _SECTIONS[section] or (section == "problem" and key in keys):
                continue
            if section == "problem" and any(key in other for _, other in _SOURCES.values()):
                raise ConfigError(f"{kind} source takes no key {key!r}")
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    params = _read(parser, "problem", {key: (key, *entry) for key, entry in keys.items()})
    params["scale"] = fields.pop("scale")
    fields["source_params"] = {key: value for key, value in params.items() if value is not None}

    if len(fields["extents"]) != len(fields["cells"]):
        raise ConfigError("grid 'extents' and 'cells' disagree on dimension")
    try:
        solver = {field: fields.pop(field) for field, _, _ in _SECTIONS["solver"].values()}
        fields["solver"] = SolverOptions(**solver)
    except ParameterError as exc:
        raise ConfigError(f"bad [solver] section: {exc}") from exc
    return RunConfig(**fields)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!s}: {exc}") from exc
    return parse_config(text)
