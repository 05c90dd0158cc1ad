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


# the [problem] keys that every source kind takes
_PROBLEM_KEYS = {"p", "gamma", "lambda", "eps", "q", "source", "scale"}

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

_KNOWN_KEYS = {
    "problem": _PROBLEM_KEYS.union(*(keys for _, keys in _SOURCES.values())),
    "grid": {"extents", "cells"},
    "solver": {"tol", "max_iter", "continuation"},
    "analysis": {
        "beta",
        "ledgers",
        "k_levels",
        "sobolev_dim",
        "epsilon_sweep",
        "scales",
        "lambda_sweep",
        "h_sweep",
    },
}

_REQUIRED = {"problem": {"p", "gamma", "lambda", "eps", "q", "source"}, "grid": {"extents", "cells"}}

# every ledger, in the order a run evaluates them
_LEDGER_NAMES = ("weak", "thm1", "thm2", "scan", "maxreg")


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
        source_class, _ = _SOURCES[self.source_kind]
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


def _get(parser, section, key, default=None):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return default


def _value(parser, section, key, convert, default=None):
    """``convert`` of the entry's text, or ``default`` if the entry is absent."""
    raw = _get(parser, section, key)
    if raw is None:
        return default
    try:
        return convert(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"bad value for {key!r} in section [{section}]: {raw!r}"
        ) from exc


def parse_config(text: str) -> RunConfig:
    # "key = value  ; note" is a comment after the value, as in README
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section, keys in _REQUIRED.items():
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if not parser.has_option(section, key):
                raise ConfigError(f"missing key {key!r} in section [{section}]")

    def problem(key, convert, default=None):
        return _value(parser, "problem", key, convert, default)

    p = problem("p", to_fraction)
    gamma = problem("gamma", to_fraction)
    lam = problem("lambda", to_fraction)
    q = problem("q", to_fraction)
    eps = problem("eps", float)

    kind = parser.get("problem", "source").strip().lower()
    if kind not in _SOURCES:
        raise ConfigError(f"unknown source kind {kind!r}")
    _, keys = _SOURCES[kind]
    for key in parser.options("problem"):
        if key not in _PROBLEM_KEYS and key not in keys:
            raise ConfigError(f"{kind} source takes no key {key!r}")
    required = [key for key, (_, default) in keys.items() if default is ...]
    if not all(parser.has_option("problem", key) for key in required):
        raise ConfigError(f"{kind} source needs {' and '.join(map(repr, required))}")
    params = {key: problem(key, *entry) for key, entry in keys.items()}
    params = {key: value for key, value in params.items() if value is not None}
    if parser.has_option("problem", "scale"):
        params["scale"] = problem("scale", float)

    extents = _value(parser, "grid", "extents", _floats)
    cells = _value(parser, "grid", "cells", _ints)
    if len(extents) != len(cells):
        raise ConfigError("grid 'extents' and 'cells' disagree on dimension")

    def boolean(raw):
        try:
            return parser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None

    def solver_value(key, convert):
        return _value(parser, "solver", key, convert, getattr(SolverOptions, key))

    try:
        solver = SolverOptions(
            tol=solver_value("tol", float),
            max_iter=solver_value("max_iter", int),
            continuation=solver_value("continuation", boolean),
        )
    except ParameterError as exc:
        raise ConfigError(f"bad [solver] section: {exc}") from exc

    def analysis(key, convert, default=None):
        return _value(parser, "analysis", key, convert, default)

    # a set of ledgers, kept in their evaluation order
    named = _get(parser, "analysis", "ledgers", "").lower().split()
    for name in named:
        if name not in _LEDGER_NAMES:
            raise ConfigError(f"unknown ledger {name!r}; choose from {_LEDGER_NAMES}")
    ledgers = tuple(name for name in _LEDGER_NAMES if name in named)

    # thm2 and the scan reject such levels too, but only after the solve
    k_levels = analysis("k_levels", _floats, ())
    increasing = all(a < b for a, b in zip(k_levels, k_levels[1:]))
    if not (increasing and all(k >= 1 for k in k_levels)):
        raise ConfigError("[analysis] 'k_levels' must be at least 1 and strictly increasing")

    return RunConfig(
        p=p,
        gamma=gamma,
        lam=lam,
        q=q,
        eps=eps,
        source_kind=kind,
        source_params=params,
        extents=extents,
        cells=cells,
        solver=solver,
        beta=analysis("beta", to_fraction, Fraction(4)),
        ledgers=ledgers,
        k_levels=k_levels,
        sobolev_dim=analysis("sobolev_dim", int),
        epsilon_sweep=analysis("epsilon_sweep", _floats, ()),
        scales=analysis("scales", _floats, ()),
        lambda_sweep=analysis("lambda_sweep", _floats, ()),
        h_sweep=analysis("h_sweep", _ints, ()),
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!s}: {exc}") from exc
    return parse_config(text)
