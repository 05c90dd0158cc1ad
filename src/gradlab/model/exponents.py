"""Exact rational exponent calculus for the gradient estimates.

Every quantity here is a :class:`fractions.Fraction`; nothing in this module
touches floating point, so the algebraic identities between the exponents can
be asserted with ``==``.  Floats entering from configs or call sites are
converted through their shortest decimal representation, which keeps inputs
like ``2.5`` exact; an input that is not a finite rational is a
:class:`ParameterError`.  Each exponent has one private derivation, called
once its inputs are converted and checked; ``alpha'`` is the Hoelder
conjugate of Theorem 1's ``alpha``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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

    Floats go through their shortest decimal string so that decimal literals
    round-trip exactly (``0.1`` becomes ``1/10``, not the binary expansion).
    A value that names no finite rational (``"abc"``, ``"1/0"``, nan, inf)
    is a :class:`ParameterError`.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParameterError("booleans are not exponents")
    if not isinstance(x, (int, str, float)):
        raise ParameterError(f"cannot interpret {x!r} as a rational number")
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{x!r} is not a finite rational number") from None


def _exact(N, *values) -> tuple:
    """``N`` as an int and each value as an exact Fraction."""
    return (int(N), *(to_fraction(v) for v in values))


def _check_growth(N, p, gamma):
    if N < 2:
        raise ParameterError("dimension must be at least 2")
    if p <= 1:
        raise RegimeError("the diffusion exponent requires p > 1")
    if gamma <= p - 1:
        raise RegimeError(
            f"supernatural growth requires gamma > p-1, got gamma={gamma}, p={p}"
        )


def _check_sobolev(N):
    if N < 3:
        raise ParameterError(
            "the Sobolev exponent degenerates below dimension 3; substitute an "
            "effective dimension for planar runs"
        )


def _endpoint(N, p, gamma) -> Fraction:
    return N * (gamma - (p - 1)) / gamma


def endpoint_exponent(N, p, gamma) -> Fraction:
    """Borderline integrability exponent ``N (gamma - (p-1)) / gamma``."""
    N, p, gamma = _exact(N, p, gamma)
    _check_growth(N, p, gamma)
    return _endpoint(N, p, gamma)


def _theorem1(N, p, beta) -> tuple[Fraction, Fraction, Fraction]:
    denom = 4 * beta + 2 * (p - 1) * N - 2 * (p - 2)
    if denom <= 0:
        raise ParameterError("test power beta too small: nonpositive denominator")
    alpha = N * (2 * beta + p) / denom
    return (beta + p / 2) * Fraction(N, N - 2), alpha, 2 * alpha


def _conjugate(alpha) -> Fraction:
    # alpha - 1 = (N-2)(2 beta + 2 - p) / denom: alpha > 1 iff 2 beta + 2 > p
    if alpha <= 1:
        raise ParameterError(f"test power beta too small: alpha = {alpha} <= 1")
    return alpha / (alpha - 1)


def theorem1_exponents(N, p, beta) -> tuple[Fraction, Fraction, Fraction]:
    """Interior-range exponents ``(eta, alpha, q_eta)`` for a test power beta.

    ``eta`` is the gradient norm exponent produced by the Sobolev step,
    ``alpha`` the dual Hoelder index on the source term, and ``q_eta = 2 alpha``
    the source integrability that makes the bound close.
    """
    N, p, beta = _exact(N, p, beta)
    _check_sobolev(N)
    if p <= 1:
        raise RegimeError("the diffusion exponent requires p > 1")
    return _theorem1(N, p, beta)


def theorem1_alpha_prime(N, p, beta) -> Fraction:
    """Hoelder conjugate ``alpha / (alpha - 1)`` of :func:`theorem1_exponents`'
    alpha, which needs ``alpha > 1``."""
    return _conjugate(theorem1_exponents(N, p, beta)[1])


@dataclass(frozen=True)
class Thm1Exponents:
    """Classical-range exponents of :func:`theorem1_exponents` for the test
    power beta, with alpha's Hoelder conjugate alpha'."""

    beta: Fraction
    eta: Fraction
    alpha: Fraction
    alpha_prime: Fraction
    q_eta: Fraction


@dataclass(frozen=True)
class Thm2Exponents:
    """Endpoint-range exponents: interpolation index r, test power beta,
    and the Young exponent eta = 2 gamma - p + 1."""

    r: Fraction
    beta: Fraction
    eta: Fraction

    @property
    def r_gamma(self) -> Fraction:
        # beta + eta = (r-2) gamma + p - 1 + 2 gamma - p + 1 = r gamma
        return self.beta + self.eta


@dataclass(frozen=True)
class ProofGap:
    """Marker result: the interpolation index collapses to r <= 2, so the
    superlevel argument has no room.  Carries the exact offending value."""

    r: Fraction


def _theorem2(N, p, gamma, q, q_end):
    r = Fraction(2, N) * q_end + Fraction(N - 2, N) * q
    if r <= 2:
        return ProofGap(r)
    return Thm2Exponents(r=r, beta=(r - 2) * gamma + (p - 1), eta=2 * gamma - p + 1)


def theorem2_exponents(N, p, gamma, q):
    """Exponents ``(r, beta, eta)`` of the endpoint-range estimate.

    ``r`` interpolates the declared source integrability ``q`` against the
    borderline exponent; ``beta = (r-2) gamma + p - 1`` is the superlevel test
    power and ``eta = 2 gamma - p + 1`` the Young exponent.  When ``r <= 2``
    the construction is empty and a :class:`ProofGap` is returned instead;
    that outcome is a first-class result, not an error.
    """
    N, p, gamma, q = _exact(N, p, gamma, q)
    _check_growth(N, p, gamma)
    _check_sobolev(N)
    if p < 2:
        raise RegimeError("the superlevel estimate requires p >= 2")
    q_end = _endpoint(N, p, gamma)
    if q < q_end:
        raise RegimeError(f"declared q={q} undershoots the endpoint exponent {q_end}")
    return _theorem2(N, p, gamma, q, q_end)


def _classify(N, p, gamma, q, lam, q_end) -> list[str]:
    tags = []
    if p >= 2 and N >= 3:
        if q == q_end and gamma > Fraction(N, N - 2) * (p - 1):
            tags.append(THM2_ENDPOINT_I if lam == 0 else THM2_ENDPOINT_II)
        elif q > max(q_end, Fraction(2)):
            tags.append(THM2_INTERIOR)
    if q >= N:
        tags.append(THM1)
    return tags or [INADMISSIBLE]


def classify_regime(N, p, gamma, q, lam) -> list[str]:
    """All regime tags the parameters satisfy, ordered by precedence.

    Endpoint tags outrank the interior tag, which outranks the classical
    high-integrability tag; parameter sets satisfying several hypotheses
    report all of them.  An empty hypothesis set reports inadmissibility.
    """
    N, p, gamma, q, lam = _exact(N, p, gamma, q, lam)
    if N < 2:
        raise ParameterError("dimension must be at least 2")
    if p <= 1 or gamma <= p - 1:
        return [INADMISSIBLE]
    return _classify(N, p, gamma, q, lam, _endpoint(N, p, gamma))


def _strings(block) -> dict:
    return {key: str(value) for key, value in asdict(block).items()}


@dataclass(frozen=True)
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
    q_gamma: Fraction
    # classical-range block (requires a test power beta)
    thm1: Thm1Exponents | None
    # endpoint-range block, or the r of its proof gap
    thm2: Thm2Exponents | None
    proof_gap_r: Fraction | None

    @property
    def thm2_refusal(self) -> str | None:
        """Why the table has no superlevel block, naming the proof-gap r when
        it has one; None when it has the block."""
        if self.thm2 is not None:
            return None
        if self.proof_gap_r is not None:
            return f"proof-gap regime: r = {self.proof_gap_r}"
        return f"regime {self.regime} has no superlevel block"

    def to_dict(self) -> dict:
        out = {
            "N": self.N,
            "p": str(self.p),
            "gamma": str(self.gamma),
            "q": str(self.q),
            "lambda": str(self.lam),
            "q_end": str(self.q_end),
            "tags": list(self.tags),
            "regime": self.regime,
            "sobolev_dim": self.sobolev_dim,
            "q_gamma": str(self.q_gamma),
        }
        if self.thm1 is not None:
            out["thm1"] = _strings(self.thm1)
        if self.thm2 is not None:
            out["thm2"] = _strings(self.thm2) | {"r_gamma": str(self.thm2.r_gamma)}
        if self.proof_gap_r is not None:
            out["proof_gap_r"] = str(self.proof_gap_r)
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
    N, p, gamma, q, lam = _exact(N, p, gamma, q, lam)
    _check_growth(N, p, gamma)
    ns = effective_sobolev_dimension(N, sobolev_dim)
    q_end = _endpoint(ns, p, gamma)
    tags = _classify(ns, p, gamma, q, lam, q_end)
    thm1 = None
    if beta is not None:
        beta = to_fraction(beta)
        eta, alpha, q_eta = _theorem1(ns, p, beta)
        thm1 = Thm1Exponents(beta, eta, alpha, _conjugate(alpha), q_eta)
    regime, thm2, gap_r = tags[0], None, None
    # Theorem 2's hypotheses, on an admissible regime
    if p >= 2 and regime != INADMISSIBLE and q >= q_end:
        thm2 = _theorem2(ns, p, gamma, q, q_end)
        if isinstance(thm2, ProofGap):
            thm2, gap_r = None, thm2.r
            regime = next((t for t in tags if not t.startswith("Thm2")), PROOF_GAP)
    return ExponentTable(
        N=N, p=p, gamma=gamma, q=q, lam=lam, q_end=q_end, tags=tags, regime=regime,
        sobolev_dim=ns, q_gamma=q * gamma, thm1=thm1, thm2=thm2, proof_gap_r=gap_r,
    )
