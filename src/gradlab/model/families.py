"""Diffusion coefficient and Hamiltonian families with structural checkers.

The diffusion coefficient ``a(t)`` multiplies the gradient in the flux
``a(|Du|^2 + eps) Du``; the checkers estimate the constants that control its
ellipticity and growth by dense sampling on a log-spaced grid.  The gradient
nonlinearity is the regularized power ``H(xi) = (eps + |xi|^2)^(gamma/2)``,
whose growth constants are available in closed form and re-verified
numerically on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, StructureViolationError

_MIN_SAMPLES = 100


@dataclass(frozen=True)
class PowerDiffusion:
    """``a(t) = t^((p-2)/2)``, the p-Laplacian coefficient."""

    p: float

    def __post_init__(self):
        if self.p <= 1:
            raise ParameterError("power diffusion requires p > 1")

    def a(self, t):
        return np.asarray(t, dtype=float) ** ((self.p - 2.0) / 2.0)

    def a_prime(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (self.p - 2.0) * t ** ((self.p - 4.0) / 2.0)


@dataclass(frozen=True)
class PerturbedPower:
    """Power coefficient modulated by a bounded log-periodic oscillation.

    ``a(t) = t^((p-2)/2) (1 + delta sin(log t))`` stays uniformly comparable
    to the clean power for ``delta < 1/4`` while exercising every sampled
    constant away from its exact power value.
    """

    p: float
    oscillation: float

    def __post_init__(self):
        if self.p <= 1:
            raise ParameterError("perturbed power requires p > 1")
        if not 0.0 <= self.oscillation < 0.25:
            raise ParameterError("oscillation amplitude must lie in [0, 1/4)")

    def a(self, t):
        t = np.asarray(t, dtype=float)
        return t ** ((self.p - 2.0) / 2.0) * (1.0 + self.oscillation * np.sin(np.log(t)))

    def a_prime(self, t):
        t = np.asarray(t, dtype=float)
        osc = 1.0 + self.oscillation * np.sin(np.log(t))
        return t ** ((self.p - 4.0) / 2.0) * (
            0.5 * (self.p - 2.0) * osc + self.oscillation * np.cos(np.log(t))
        )


CoefficientFamily = PowerDiffusion | PerturbedPower


@dataclass
class AssumptionReport:
    """Sampled structural constants of a diffusion coefficient.

    ``inf_ratio``/``sup_ratio`` bound ``2 t a'(t)/a(t)``; the envelopes compare
    ``a`` against the clean power ``t^((p-2)/2)``; ``ellipticity_margin`` is
    the sampled infimum of ``(2 t a'(t) + a(t))/a(t)``, the coefficient that
    keeps the linearized operator uniformly elliptic; ``ratio_abs_bound`` is
    the sampled supremum of ``|2 t a'(t)/a(t)|``.
    """

    p: float
    t_min: float
    t_max: float
    samples: int
    inf_ratio: float
    sup_ratio: float
    env_lower: float
    env_upper: float
    ellipticity_margin: float
    ratio_abs_bound: float
    flags: dict

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def check_structure_conditions(
    family: CoefficientFamily, t_min: float, t_max: float, samples: int = 512
) -> AssumptionReport:
    """Estimate the structural constants of ``family`` on ``[t_min, t_max]``.

    Sampling is log-spaced and includes both endpoints, so enlarging the
    range can only widen the reported extremes (up to sampling error).
    """
    if samples < _MIN_SAMPLES:
        raise ParameterError(f"need at least {_MIN_SAMPLES} samples, got {samples}")
    if not 0 < t_min < t_max:
        raise ParameterError("need 0 < t_min < t_max")
    t = np.geomspace(t_min, t_max, samples)
    a = np.asarray(family.a(t), dtype=float)
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        bad = t[np.argmax((a <= 0) | ~np.isfinite(a))]
        raise StructureViolationError(
            f"coefficient is not positive at sample t = {bad:.6g}"
        )
    ap = np.asarray(family.a_prime(t), dtype=float)
    ratio = 2.0 * t * ap / a
    envelope = a / t ** ((family.p - 2.0) / 2.0)
    inf_ratio = float(ratio.min())
    sup_ratio = float(ratio.max())
    env_lower = float(envelope.min())
    env_upper = float(envelope.max())
    margin = float((1.0 + ratio).min())
    ratio_abs = float(np.abs(ratio).max())
    flags = {
        "ratio_bounded_below": inf_ratio > -1.0,
        "ratio_bounded_above": np.isfinite(sup_ratio),
        "envelope_positive": env_lower > 0.0,
        "envelope_finite": np.isfinite(env_upper),
        "margin_positive": margin > 0.0,
    }
    return AssumptionReport(
        p=family.p,
        t_min=float(t_min),
        t_max=float(t_max),
        samples=samples,
        inf_ratio=inf_ratio,
        sup_ratio=sup_ratio,
        env_lower=env_lower,
        env_upper=env_upper,
        ellipticity_margin=margin,
        ratio_abs_bound=ratio_abs,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerHamiltonian:
    """``H(xi) = (eps + |xi|^2)^(gamma/2)`` with supernatural growth in mind."""

    gamma: float
    eps: float = 0.0

    def __post_init__(self):
        if self.gamma <= 1:
            raise ParameterError("power Hamiltonian requires gamma > 1")
        if self.eps < 0:
            raise ParameterError("regularization eps must be nonnegative")
        # re-verify the closed-form gradient growth constant numerically
        s = np.geomspace(1.0, 1e3, 64)
        grad = 2.0 * self.h_prime_of_w(self.eps + s**2) * s
        if np.any(grad > self.gradient_growth_constant * s ** (self.gamma - 1.0) * (1 + 1e-12)):
            raise StructureViolationError(
                "gradient growth constant violated; is eps larger than 1?"
            )

    @property
    def lower_growth_constant(self) -> float:
        """Constant c with ``H(xi) >= (c/2)(eps + |xi|^2)^(gamma/2)`` exactly."""
        return 2.0

    @property
    def gradient_growth_constant(self) -> float:
        """Constant C with ``|H_xi(xi)| <= C |xi|^(gamma-1)`` for ``|xi| >= 1``."""
        return self.gamma * 2.0 ** (self.gamma / 2.0)

    # H and h' as functions of w = eps + |xi|^2, so H_xi = 2 h'(w) xi
    def h_of_w(self, w):
        return np.asarray(w, dtype=float) ** (self.gamma / 2.0)

    def h_prime_of_w(self, w):
        return 0.5 * self.gamma * np.asarray(w, dtype=float) ** (self.gamma / 2.0 - 1.0)


@dataclass
class GrowthReport:
    gamma: float
    s_min: float
    s_max: float
    samples: int
    lower_constant: float  # inf H(xi)/|xi|^gamma
    upper_constant: float  # sup |H_xi(xi)|/|xi|^(gamma-1)
    flags: dict

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def check_growth_conditions(
    family: PowerHamiltonian, s_min: float, s_max: float, samples: int = 512
) -> GrowthReport:
    """Sample the radial growth constants of ``H`` over ``|xi|`` in a range.

    The coercivity and gradient-growth bounds are only claimed above unit
    gradient size, so the range must start at ``|xi| >= 1``.
    """
    if samples < _MIN_SAMPLES:
        raise ParameterError(f"need at least {_MIN_SAMPLES} samples, got {samples}")
    if s_min < 1.0:
        raise ParameterError("growth constants are sampled for |xi| >= 1")
    if s_min >= s_max:
        raise ParameterError("need s_min < s_max")
    s = np.geomspace(s_min, s_max, samples)
    w = family.eps + s**2
    h = family.h_of_w(w)
    grad = 2.0 * family.h_prime_of_w(w) * s
    lower = float((h / s**family.gamma).min())
    upper = float((grad / s ** (family.gamma - 1.0)).max())
    flags = {
        "coercive": lower > 0.0,
        "gradient_bounded": np.isfinite(upper),
    }
    return GrowthReport(
        gamma=family.gamma,
        s_min=float(s_min),
        s_max=float(s_max),
        samples=samples,
        lower_constant=lower,
        upper_constant=upper,
        flags=flags,
    )
