"""Problem description: coefficient, Hamiltonian, source, and scalars."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError, RegimeError
from ..grid import Box
from .families import (
    CoefficientFamily,
    PowerDiffusion,
    PowerHamiltonian,
)
from .sources import SourceSpec


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ParameterError(f"regularization eps must be positive and finite, got {eps}")


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the regularized Neumann problem

    ``lam * u - div(a(|Du|^2 + eps) Du) + H(Du) = f``  with zero-flux boundary.

    The Hamiltonian must share the problem's regularization exactly, so that
    both nonlinearities, and the ledgers, read one shifted gradient square.
    """

    domain: Box
    p: float
    gamma: float
    lam: float
    eps: float
    coefficient: CoefficientFamily
    hamiltonian: PowerHamiltonian
    source: SourceSpec

    def __post_init__(self):
        if self.p <= 1:
            raise ParameterError("need p > 1")
        if self.gamma <= self.p - 1:
            raise RegimeError(
                f"supernatural growth requires gamma > p-1 "
                f"(gamma={self.gamma}, p={self.p})"
            )
        _check_eps(self.eps)
        if self.lam < 0:
            raise ParameterError("zero-order coefficient lambda must be nonnegative")
        if abs(self.coefficient.p - self.p) > 1e-14:
            raise ParameterError("coefficient family p does not match the problem")
        if abs(self.hamiltonian.gamma - self.gamma) > 1e-14:
            raise ParameterError("hamiltonian gamma does not match the problem")
        if self.hamiltonian.eps != self.eps:
            raise ParameterError(f"hamiltonian eps {self.hamiltonian.eps!r} != problem eps {self.eps!r}")

    @classmethod
    def power_model(
        cls,
        domain: Box,
        p: float,
        gamma: float,
        lam: float,
        eps: float,
        source: SourceSpec,
        coefficient: CoefficientFamily | None = None,
    ) -> "ProblemSpec":
        """Convenience constructor wiring matching power families."""
        _check_eps(eps)  # before the Hamiltonian's own checks read it
        coeff = coefficient if coefficient is not None else PowerDiffusion(p)
        return cls(
            domain=domain,
            p=p,
            gamma=gamma,
            lam=lam,
            eps=eps,
            coefficient=coeff,
            hamiltonian=PowerHamiltonian(gamma, eps),
            source=source,
        )
