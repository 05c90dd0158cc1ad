"""Coefficient and Hamiltonian families, with their structure constants in closed form.

The diffusion coefficient ``a(t) = t^((p-2)/2)`` multiplies the gradient in
the flux ``a(|Du|^2 + eps) Du``.  The constants that control its ellipticity
and growth are exact: ``2 t a'(t)/a(t) = p - 2`` for every ``t > 0``, the
coefficient equals the clean power, so both envelopes are 1, and the
ellipticity margin ``(a + 2 t a')/a`` is ``p - 1``.  The gradient
nonlinearity is the regularized power ``H(xi) = (eps + |xi|^2)^(gamma/2)``,
whose growth constants are exact in closed form too; construction checks the
closed-form condition under which the gradient bound holds.  Nothing is
sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, StructureViolationError


@dataclass(frozen=True)
class PowerDiffusion:
    """``a(t) = t^((p-2)/2)``, the p-Laplacian coefficient."""

    p: float

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ParameterError(f"power diffusion requires finite p > 1, got {self.p}")

    def a(self, t):
        return np.asarray(t, dtype=float) ** ((self.p - 2.0) / 2.0)

    def a_prime(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (self.p - 2.0) * t ** ((self.p - 4.0) / 2.0)


@dataclass(frozen=True)
class StructureConstants:
    """The coefficient's structure constants: ``ratio = 2 t a'(t)/a(t)`` and
    ``ellipticity_margin = 1 + ratio``, the factor that keeps the linearized
    operator uniformly elliptic."""

    ratio: float
    ellipticity_margin: float


def check_structure_conditions(coefficient: PowerDiffusion) -> StructureConstants:
    """The closed-form structure constants of ``a(t) = t^((p-2)/2)``:
    ``ratio = p - 2`` and ``ellipticity_margin = p - 1``, both exact for every
    ``t > 0``, so no range of ``t`` enters.

    It keeps its name, and the bundle keeps calling it, because perfbench's
    layer tracer rebinds it on ``gradlab.bernstein`` to report
    ``model.structure_check``.  Once perfbench reads the run's own accounts
    (ROADMAP item 15), that frees the name, as it frees ``solver.spsolve``.
    """
    return StructureConstants(
        ratio=coefficient.p - 2.0, ellipticity_margin=coefficient.p - 1.0
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
        if not 1 < self.gamma < math.inf:
            raise ParameterError(
                f"power Hamiltonian requires finite gamma > 1, got {self.gamma}"
            )
        if not 0 <= self.eps < math.inf:
            raise ParameterError(
                f"regularization eps must be nonnegative and finite, got {self.eps}"
            )
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
