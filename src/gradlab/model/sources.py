"""Source terms and their sampling onto grids.

:func:`sample_source` evaluates every variant at cell centers, and
:func:`lq_membership` answers the Lebesgue-membership question that decides
whether a declared integrability target ``q`` is honest.  Only the radial
power is genuinely singular; the others are bounded and belong to every class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError, ParameterError
from ..grid import Grid, ScalarField


@dataclass(frozen=True)
class CosineProduct:
    """Separable cosine product, compatible with the Neumann boundary."""

    amplitude: float
    modes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        if any(m < 0 for m in self.modes):
            raise ParameterError("cosine modes must be nonnegative integers")


@dataclass(frozen=True)
class RadialSingular:
    """``f(x) = amplitude * max(|x - center|, core_radius)^(-power)``.

    With zero core radius the sample is the true singular power; which
    Lebesgue classes it belongs to is :func:`lq_membership`'s answer.
    """

    center: tuple[float, ...]
    power: float
    amplitude: float = 1.0
    core_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (np.isfinite(self.power) and self.power > 0):
            raise ParameterError(
                f"radial singular power must be finite and positive, got {self.power}"
            )
        if not (np.isfinite(self.core_radius) and self.core_radius >= 0):
            raise ParameterError(
                f"core radius must be finite and nonnegative, got {self.core_radius}"
            )


@dataclass(frozen=True)
class Scaled:
    base: "SourceSpec"
    factor: float

    def __post_init__(self):
        # refused here, before a sweep solves the scales ahead of it
        if not np.isfinite(self.factor):
            raise ParameterError(f"source scale must be finite, got {self.factor}")


@dataclass(frozen=True)
class SeededSmoothRandom:
    """Low-frequency random cosine series, reproducible from the seed."""

    seed: int
    cutoff: int = 3

    def __post_init__(self):
        # refused when the config is made, not when numpy first samples the field
        if self.seed < 0:
            raise ParameterError(f"random source seed must be nonnegative, got {self.seed}")
        if self.cutoff < 1:
            raise ParameterError("frequency cutoff must be at least 1")


@dataclass(eq=False)
class Tabulated:
    """Raw cell values, used for manufactured right-hand sides."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


SourceSpec = CosineProduct | RadialSingular | Scaled | SeededSmoothRandom | Tabulated


def lq_membership(source: SourceSpec, q: float, ndim: int) -> bool:
    """Does the source belong to ``L^q`` over the box?"""
    if isinstance(source, Scaled):
        return lq_membership(source.base, q, ndim)
    if isinstance(source, RadialSingular):
        if source.core_radius > 0:
            return True
        return source.power * q < ndim
    return True


def sample_source(source: SourceSpec, grid: Grid) -> ScalarField:
    """Evaluate the source at cell centers; every sampled value must be finite."""
    if isinstance(source, Tabulated):
        vals = source.values.copy()  # the ScalarField below checks its shape
    elif isinstance(source, Scaled):
        vals = source.factor * sample_source(source.base, grid).values
    elif isinstance(source, CosineProduct):
        if len(source.modes) != grid.ndim:
            raise ContractError("cosine mode vector must match the grid dimension")
        vals = np.full(grid.shape, source.amplitude)
        centers = grid.centers()
        for d in range(grid.ndim):
            vals = vals * np.cos(
                source.modes[d] * np.pi * centers[d] / grid.domain.extents[d]
            )
    elif isinstance(source, RadialSingular):
        if len(source.center) != grid.ndim:
            raise ContractError("singularity center must match the grid dimension")
        centers = grid.centers()
        dist2 = np.zeros(grid.shape)
        for d in range(grid.ndim):
            dist2 += (centers[d] - source.center[d]) ** 2
        dist = np.sqrt(dist2)
        if source.core_radius > 0:
            dist = np.maximum(dist, source.core_radius)
        if np.any(dist == 0.0):
            raise ParameterError(
                "a cell center coincides with the singularity; shift the center "
                "or use an even cell count"
            )
        vals = source.amplitude * dist ** (-source.power)
    elif isinstance(source, SeededSmoothRandom):
        rng = np.random.default_rng(source.seed)
        vals = np.zeros(grid.shape)
        centers = grid.centers()
        ranges = [range(source.cutoff + 1)] * grid.ndim
        modes = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(
            -1, grid.ndim
        )
        for m in modes:
            if not m.any():
                continue
            c = rng.standard_normal() / (1.0 + float(m @ m))
            term = np.full(grid.shape, c)
            for d in range(grid.ndim):
                term = term * np.cos(m[d] * np.pi * centers[d] / grid.domain.extents[d])
            vals += term
    else:
        raise ParameterError(f"unknown source kind: {type(source).__name__}")
    if not np.all(np.isfinite(vals)):
        raise ParameterError(
            f"the {type(source).__name__} source is not finite on the grid {grid.cells}"
        )
    return ScalarField(grid, vals)
