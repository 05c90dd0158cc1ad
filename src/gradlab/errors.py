"""Exception types shared across the package.

The command line front end maps these onto process exit codes, so solver
failures must stay distinguishable from bad input.
"""

from __future__ import annotations


class GradlabError(Exception):
    """Base class for all package errors."""


class ParameterError(GradlabError, ValueError):
    """An argument is outside the documented domain (exponents, steps, ...)."""


class ConfigError(GradlabError, ValueError):
    """A run configuration file is malformed or names unknown keys."""


class RegimeError(GradlabError, ValueError):
    """Parameters fall outside the admissible growth/ellipticity regime."""


class StructureViolationError(GradlabError, ValueError):
    """A diffusion coefficient fails its structural sign conditions."""


class ResolutionError(GradlabError, ValueError):
    """A grid is too coarse for the discrete operators to make sense."""


class ContractError(GradlabError, ValueError):
    """Fields or grids passed together do not match in shape or spacing."""


class UnconvergedInputError(GradlabError, ValueError):
    """An integral check was asked to run on a field that does not solve
    the discrete problem to the required residual level."""


class UnsupportedRegimeError(GradlabError, ValueError):
    """A solve was requested for parameters the solver does not
    handle (for instance a vanishing zero-order coefficient)."""


class NonconvergenceError(GradlabError, RuntimeError):
    """Newton iteration stalled.  Carries the best iterate for diagnosis."""

    def __init__(self, message, best_iterate=None, report=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.report = report
