"""INI experiment configs.

A config fully determines a run: the problem, the grid, the solver knobs,
and which analyses to evaluate.  Parsing is strict; an unknown section or
key is a :class:`ConfigError`, not a warning, so a typo cannot silently
drop an option.  The exponent-bearing parameters (p, gamma, q, lambda, and
the analysis beta) keep their raw strings and are re-parsed as exact
fractions for the exponent calculus.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError, ParameterError
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

_KNOWN_KEYS = {
    "problem": {
        "p",
        "gamma",
        "lambda",
        "eps",
        "q",
        "source",
        "amplitude",
        "modes",
        "center",
        "power",
        "core_radius",
        "seed",
        "cutoff",
        "scale",
    },
    "grid": {"extents", "cells"},
    "solver": {
        "tol",
        "max_iter",
        "damping_factor",
        "armijo",
        "eps_ratio",
        "gamma_stages",
        "min_step",
        "continuation",
    },
    "analysis": {
        "beta",
        "ledgers",
        "k_levels",
        "sobolev_dim",
        "epsilon_sweep",
        "scales",
        "lambda_sweep",
        "h_sweep",
        "maxreg_q",
    },
    "output": {"directory", "formats"},
}

_REQUIRED = {"problem": {"p", "gamma", "lambda", "eps", "q", "source"}, "grid": {"extents", "cells"}}

_LEDGER_NAMES = {"weak", "thm1", "thm2", "scan", "maxreg"}


@dataclass
class RunConfig:
    """Parsed experiment description plus the raw text it came from."""

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
    continuation: bool
    # analysis
    beta: Fraction
    ledgers: tuple
    k_levels: tuple
    sobolev_dim: int | None
    epsilon_sweep: tuple
    scales: tuple
    lambda_sweep: tuple
    h_sweep: tuple
    maxreg_q: Fraction
    # output
    directory: str
    formats: tuple
    canonical_text: str = field(repr=False, default="")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()

    def override(self, key: str, value: str) -> "RunConfig":
        """This config with the entry ``key = value`` set, parsed again.

        The entry goes into the section that owns ``key``.  If the result
        parses to the same fields as this config, this config itself is
        returned, so its digest keeps the text it was written with.
        """
        section = next(s for s, keys in _KNOWN_KEYS.items() if key in keys)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(self.canonical_text)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        variant = parse_config(_canonical_text(parser))
        if dataclasses.replace(variant, canonical_text=self.canonical_text) == self:
            return self
        return variant

    def build_source(self):
        params = self.source_params
        if self.source_kind == "cosine":
            base = CosineProduct(amplitude=params["amplitude"], modes=params["modes"])
        elif self.source_kind == "radial":
            base = RadialSingular(
                center=params["center"],
                power=params["power"],
                amplitude=params["amplitude"],
                core_radius=params.get("core_radius", 0.0),
            )
        elif self.source_kind == "random":
            base = SeededSmoothRandom(seed=params["seed"], cutoff=params.get("cutoff", 3))
        else:
            raise ConfigError(f"unknown source kind {self.source_kind!r}")
        scale = params.get("scale")
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

    def build_grid(self, cells: tuple | None = None) -> Grid:
        return build_grid(Box(self.extents), cells or self.cells)

    def validate(self) -> None:
        """Checks beyond syntax: membership of the source in the stated L^q."""
        source = self.build_source()
        ndim = len(self.extents)
        if not lq_membership(source, float(self.q), ndim):
            raise ConfigError(
                f"declared source is not in L^{self.q} over a {ndim}d box"
            )


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split())


def _ints(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.split())


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


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
    parser = configparser.ConfigParser(interpolation=None)
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
    params: dict = {}
    if kind == "cosine":
        params["amplitude"] = problem("amplitude", float, 1.0)
        params["modes"] = problem("modes", _ints, (1, 1))
    elif kind == "radial":
        if not parser.has_option("problem", "center") or not parser.has_option(
            "problem", "power"
        ):
            raise ConfigError("radial source needs 'center' and 'power'")
        params["center"] = problem("center", _floats)
        params["power"] = problem("power", float)
        params["amplitude"] = problem("amplitude", float, 1.0)
        if parser.has_option("problem", "core_radius"):
            params["core_radius"] = problem("core_radius", float)
    elif kind == "random":
        if not parser.has_option("problem", "seed"):
            raise ConfigError("random source needs 'seed'")
        params["seed"] = problem("seed", int)
        if parser.has_option("problem", "cutoff"):
            params["cutoff"] = problem("cutoff", int)
    else:
        raise ConfigError(f"unknown source kind {kind!r}")
    if parser.has_option("problem", "scale"):
        params["scale"] = problem("scale", float)

    extents = _value(parser, "grid", "extents", _floats)
    cells = _value(parser, "grid", "cells", _ints)
    if len(extents) != len(cells):
        raise ConfigError("grid 'extents' and 'cells' disagree on dimension")

    def solver_value(key, convert):
        return _value(parser, "solver", key, convert, getattr(SolverOptions, key))

    try:
        solver = SolverOptions(
            tol=solver_value("tol", float),
            max_iter=solver_value("max_iter", int),
            damping_factor=solver_value("damping_factor", float),
            armijo=solver_value("armijo", float),
            eps_ratio=solver_value("eps_ratio", float),
            gamma_stages=solver_value("gamma_stages", int),
            min_step=solver_value("min_step", float),
        )
    except ParameterError as exc:
        raise ConfigError(f"bad [solver] section: {exc}") from exc
    continuation = _value(parser, "solver", "continuation", _boolean, True)

    def analysis(key, convert, default=None):
        return _value(parser, "analysis", key, convert, default)

    ledgers_raw = _get(parser, "analysis", "ledgers", "")
    ledgers = tuple(tok.strip().lower() for tok in ledgers_raw.split())
    for name in ledgers:
        if name not in _LEDGER_NAMES:
            raise ConfigError(
                f"unknown ledger {name!r}; choose from {sorted(_LEDGER_NAMES)}"
            )

    config = RunConfig(
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
        continuation=continuation,
        beta=analysis("beta", to_fraction, Fraction(4)),
        ledgers=ledgers,
        k_levels=analysis("k_levels", _floats, ()),
        sobolev_dim=analysis("sobolev_dim", int),
        epsilon_sweep=analysis("epsilon_sweep", _floats, ()),
        scales=analysis("scales", _floats, ()),
        lambda_sweep=analysis("lambda_sweep", _floats, ()),
        h_sweep=analysis("h_sweep", _ints, ()),
        maxreg_q=analysis("maxreg_q", to_fraction, q),
        directory=_get(parser, "output", "directory", "runs"),
        formats=tuple(
            tok.strip().lower()
            for tok in _get(parser, "output", "formats", "json").split()
        ),
        canonical_text=_canonical_text(parser),
    )
    return config


def _canonical_text(parser: configparser.ConfigParser) -> str:
    """Sections and keys in sorted order, so the digest ignores layout."""
    out = io.StringIO()
    for section in sorted(parser.sections()):
        out.write(f"[{section}]\n")
        for key in sorted(parser.options(section)):
            value = " ".join(parser.get(section, key).split())
            out.write(f"{key} = {value}\n")
    return out.getvalue()


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!s}: {exc}") from exc
    return parse_config(text)
