"""Exact rational exponent calculus for the gradient estimates.

Every quantity here is a :class:`fractions.Fraction`; nothing in this module
touches floating point, so the algebraic identities between the exponents can
be asserted with ``==``.  Floats entering from configs or call sites are
converted through their shortest decimal representation, which keeps inputs
like ``2.5`` exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParameterError, RegimeError

# regime tags, ordered by reporting precedence
THM2_ENDPOINT_I = "Thm2Endpoint_i"
THM2_ENDPOINT_II = "Thm2Endpoint_ii"
THM2_INTERIOR = "Thm2Interior"
THM1 = "Thm1"
INADMISSIBLE = "Inadmissible"
PROOF_GAP = "ProofGap"


def to_fraction(x) -> Fraction:
    """Convert ints, Fractions, strings, or floats to an exact Fraction.

    Floats go through ``repr`` so that decimal literals round-trip exactly
    (``0.1`` becomes ``1/10``, not the binary expansion).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParameterError("booleans are not exponents")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    raise ParameterError(f"cannot interpret {x!r} as a rational number")


def _validate_common(N, p, gamma):
    if N < 2:
        raise ParameterError("dimension must be at least 2")
    if p <= 1:
        raise RegimeError("the diffusion exponent requires p > 1")
    if gamma <= p - 1:
        raise RegimeError(
            f"supernatural growth requires gamma > p-1, got gamma={gamma}, p={p}"
        )


def endpoint_exponent(N, p, gamma) -> Fraction:
    """Borderline integrability exponent ``N (gamma - (p-1)) / gamma``."""
    N = int(N)
    p, gamma = to_fraction(p), to_fraction(gamma)
    _validate_common(N, p, gamma)
    return Fraction(N) * (gamma - (p - 1)) / gamma


def theorem1_exponents(N, p, beta) -> tuple[Fraction, Fraction, Fraction]:
    """Interior-range exponents ``(eta, alpha, q_eta)`` for a test power beta.

    ``eta`` is the gradient norm exponent produced by the Sobolev step,
    ``alpha`` the dual Hoelder index on the source term, and ``q_eta = 2 alpha``
    the source integrability that makes the bound close.
    """
    N = int(N)
    p, beta = to_fraction(p), to_fraction(beta)
    if N < 3:
        raise ParameterError(
            "the Sobolev exponent degenerates below dimension 3; substitute an "
            "effective dimension for planar runs"
        )
    if p <= 1:
        raise RegimeError("the diffusion exponent requires p > 1")
    denom = 4 * beta + 2 * (p - 1) * N - 2 * (p - 2)
    if denom <= 0:
        raise ParameterError("test power beta too small: nonpositive denominator")
    eta = (beta + p / 2) * Fraction(N, N - 2)
    alpha = N * (2 * beta + p) / denom
    return eta, alpha, 2 * alpha


def theorem1_alpha_prime(N, p, beta) -> Fraction:
    """Conjugate Hoelder index of :func:`theorem1_exponents`' alpha."""
    N = int(N)
    p, beta = to_fraction(p), to_fraction(beta)
    if N < 3:
        raise ParameterError("need dimension at least 3")
    denom = (2 * beta + 2 - p) * (N - 2)
    if denom <= 0:
        raise ParameterError("test power beta too small: nonpositive denominator")
    return (2 * beta + p) * N / denom


@dataclass(frozen=True)
class Thm2Exponents:
    """Endpoint-range exponents: interpolation index r, test power beta,
    and the Young exponent eta = 2 gamma - p + 1."""

    r: Fraction
    beta: Fraction
    eta: Fraction


@dataclass(frozen=True)
class ProofGap:
    """Marker result: the interpolation index collapses to r <= 2, so the
    superlevel argument has no room.  Carries the exact offending value."""

    r: Fraction


def theorem2_exponents(N, p, gamma, q):
    """Exponents ``(r, beta, eta)`` of the endpoint-range estimate.

    ``r`` interpolates the declared source integrability ``q`` against the
    borderline exponent; ``beta = (r-2) gamma + p - 1`` is the superlevel test
    power and ``eta = 2 gamma - p + 1`` the Young exponent.  When ``r <= 2``
    the construction is empty and a :class:`ProofGap` is returned instead;
    that outcome is a first-class result, not an error.
    """
    N = int(N)
    p, gamma, q = to_fraction(p), to_fraction(gamma), to_fraction(q)
    _validate_common(N, p, gamma)
    if N < 3:
        raise ParameterError(
            "the Sobolev exponent degenerates below dimension 3; substitute an "
            "effective dimension for planar runs"
        )
    if p < 2:
        raise RegimeError("the superlevel estimate requires p >= 2")
    q_end = endpoint_exponent(N, p, gamma)
    if q < q_end:
        raise RegimeError(f"declared q={q} undershoots the endpoint exponent {q_end}")
    r = Fraction(2, N) * q_end + Fraction(N - 2, N) * q
    if r <= 2:
        return ProofGap(r)
    beta = (r - 2) * gamma + (p - 1)
    eta = 2 * gamma - p + 1
    return Thm2Exponents(r=r, beta=beta, eta=eta)


def classify_regime(N, p, gamma, q, lam) -> list[str]:
    """All regime tags the parameters satisfy, ordered by precedence.

    Endpoint tags outrank the interior tag, which outranks the classical
    high-integrability tag; parameter sets satisfying several hypotheses
    report all of them.  An empty hypothesis set reports inadmissibility.
    """
    N = int(N)
    p, gamma, q = to_fraction(p), to_fraction(gamma), to_fraction(q)
    lam = to_fraction(lam)
    if N < 2:
        raise ParameterError("dimension must be at least 2")
    if p <= 1 or gamma <= p - 1:
        return [INADMISSIBLE]
    tags = []
    if p >= 2 and N >= 3:
        q_end = endpoint_exponent(N, p, gamma)
        if q == q_end and gamma > Fraction(N, N - 2) * (p - 1):
            tags.append(THM2_ENDPOINT_I if lam == 0 else THM2_ENDPOINT_II)
        elif q > max(q_end, Fraction(2)):
            tags.append(THM2_INTERIOR)
    if q >= N:
        tags.append(THM1)
    if not tags:
        tags.append(INADMISSIBLE)
    return tags


@dataclass
class ExponentTable:
    """Everything the harness wants to report about one parameter set."""

    N: int
    p: Fraction
    gamma: Fraction
    q: Fraction
    lam: Fraction
    q_end: Fraction
    tags: list[str]
    regime: str
    sobolev_dim: int
    # classical-range block (requires a test power beta)
    beta1: Fraction | None = None
    eta1: Fraction | None = None
    alpha: Fraction | None = None
    alpha_prime: Fraction | None = None
    q_eta: Fraction | None = None
    # endpoint-range block
    thm2: Thm2Exponents | None = None
    proof_gap_r: Fraction | None = None
    r_gamma: Fraction | None = None
    q_gamma: Fraction | None = None

    def to_dict(self) -> dict:
        def enc(x):
            return None if x is None else str(x)

        out = {
            "N": self.N,
            "p": enc(self.p),
            "gamma": enc(self.gamma),
            "q": enc(self.q),
            "lambda": enc(self.lam),
            "q_end": enc(self.q_end),
            "tags": list(self.tags),
            "regime": self.regime,
            "sobolev_dim": self.sobolev_dim,
            "q_gamma": enc(self.q_gamma),
        }
        if self.beta1 is not None:
            out["thm1"] = {
                "beta": enc(self.beta1),
                "eta": enc(self.eta1),
                "alpha": enc(self.alpha),
                "alpha_prime": enc(self.alpha_prime),
                "q_eta": enc(self.q_eta),
            }
        if self.thm2 is not None:
            out["thm2"] = {
                "r": enc(self.thm2.r),
                "beta": enc(self.thm2.beta),
                "eta": enc(self.thm2.eta),
                "r_gamma": enc(self.r_gamma),
            }
        if self.proof_gap_r is not None:
            out["proof_gap_r"] = enc(self.proof_gap_r)
        return out


def effective_sobolev_dimension(N: int, sobolev_dim: int | None = None) -> int:
    """Dimension used in Sobolev exponents.

    In the plane the embedding reaches every finite Lebesgue exponent, so the
    dimension-dependent formulas are evaluated at a finite stand-in (default
    4) unless the caller pins one explicitly, e.g. 3 for a planar surrogate
    of a three-dimensional run.
    """
    if sobolev_dim is not None:
        if sobolev_dim < 3:
            raise ParameterError("effective Sobolev dimension must be at least 3")
        return int(sobolev_dim)
    return N if N >= 3 else 4


def build_exponent_table(N, p, gamma, q, lam=1, beta=None, sobolev_dim=None) -> ExponentTable:
    """Assemble the full exponent report for one parameter set."""
    N = int(N)
    p, gamma, q = to_fraction(p), to_fraction(gamma), to_fraction(q)
    lam = to_fraction(lam)
    _validate_common(N, p, gamma)
    ns = effective_sobolev_dimension(N, sobolev_dim)
    q_end = endpoint_exponent(ns, p, gamma)
    tags = classify_regime(ns, p, gamma, q, lam)
    regime = tags[0]
    table = ExponentTable(
        N=N,
        p=p,
        gamma=gamma,
        q=q,
        lam=lam,
        q_end=q_end,
        tags=tags,
        regime=regime,
        sobolev_dim=ns,
        q_gamma=q * gamma,
    )
    if beta is not None:
        beta = to_fraction(beta)
        eta1, alpha, q_eta = theorem1_exponents(ns, p, beta)
        table.beta1 = beta
        table.eta1 = eta1
        table.alpha = alpha
        table.alpha_prime = theorem1_alpha_prime(ns, p, beta)
        table.q_eta = q_eta
    if p >= 2 and regime != INADMISSIBLE:
        try:
            result = theorem2_exponents(ns, p, gamma, q)
        except RegimeError:
            result = None
        if isinstance(result, ProofGap):
            table.proof_gap_r = result.r
            remaining = [t for t in tags if not t.startswith("Thm2")]
            table.regime = remaining[0] if remaining else PROOF_GAP
        elif result is not None:
            table.thm2 = result
            table.r_gamma = result.r * gamma
    return table
