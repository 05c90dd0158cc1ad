"""Coefficient and Hamiltonian families, and the coefficient's structure checker.

The diffusion coefficient ``a(t)`` multiplies the gradient in the flux
``a(|Du|^2 + eps) Du``; the checker estimates the constants that control its
ellipticity and growth by dense sampling on a log-spaced grid.  The gradient
nonlinearity is the regularized power ``H(xi) = (eps + |xi|^2)^(gamma/2)``,
whose growth constants are exact in closed form; construction checks the
closed-form condition under which the gradient bound holds, and samples
nothing.
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
        # |H_xi| / (C |xi|^(gamma-1)) = (1 + eps/|xi|^2)^(gamma/2-1) / 2^(gamma/2)
        # is below 1 for gamma < 2 and largest at |xi| = 1 for gamma >= 2
        half = self.gamma / 2.0
        if self.gamma > 2 and (1.0 + self.eps) ** (half - 1.0) > 2.0**half:
            raise StructureViolationError(
                "gradient growth constant violated: |H_xi| <= C |xi|^(gamma-1) on "
                "|xi| >= 1 needs gamma <= 2 or (1 + eps)^(gamma/2 - 1) <= 2^(gamma/2), "
                f"got gamma = {self.gamma:g}, eps = {self.eps:g}"
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
