"""Exponent calculus: frozen hand-derived values and exact identities.

The expected rationals were derived independently by hand from the two
exponent recipes before the module was written; they are asserted as exact
fractions, not floats.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradlab.errors import ParameterError, RegimeError
from gradlab.model.exponents import (
    INADMISSIBLE,
    PROOF_GAP,
    THM1,
    THM2_ENDPOINT_I,
    THM2_ENDPOINT_II,
    THM2_INTERIOR,
    ProofGap,
    build_exponent_table,
    classify_regime,
    effective_sobolev_dimension,
    endpoint_exponent,
    theorem1_alpha_prime,
    theorem1_exponents,
    theorem2_exponents,
    to_fraction,
)

F = Fraction


def test_to_fraction_accepts_exact_inputs():
    assert to_fraction("5/2") == F(5, 2)
    assert to_fraction(3) == F(3)
    assert to_fraction(F(7, 3)) == F(7, 3)
    assert to_fraction(2.5) == F(5, 2)
    with pytest.raises(ParameterError):
        to_fraction(True)


@pytest.mark.parametrize("value", ["abc", "1/0", float("nan"), float("inf")])
def test_to_fraction_refuses_what_is_not_a_finite_rational(value):
    with pytest.raises(ParameterError, match="not a finite rational number"):
        to_fraction(value)


def test_to_fraction_reads_a_numpy_float_as_its_decimal():
    assert to_fraction(np.float64(2.5)) == F(5, 2)
    assert to_fraction(np.float64(0.1)) == F(1, 10)


def test_endpoint_exponent_frozen_values():
    assert endpoint_exponent(3, 2, 2) == F(3, 2)
    assert endpoint_exponent(3, 2, 6) == F(5, 2)
    assert endpoint_exponent(4, 3, 5) == F(12, 5)


def test_endpoint_exponent_rejects_subnatural_growth():
    with pytest.raises(RegimeError):
        endpoint_exponent(3, 2, 1)  # gamma = p - 1


def test_theorem1_frozen_values():
    eta, alpha, q_eta = theorem1_exponents(3, 2, 4)
    assert eta == F(15)
    assert alpha == F(15, 11)
    assert q_eta == F(30, 11)
    assert theorem1_alpha_prime(3, 2, 4) == F(15, 4)


def test_theorem2_frozen_values():
    ex = theorem2_exponents(3, 2, 6, 3)
    assert ex.r == F(8, 3)
    assert ex.beta == F(5)
    assert ex.eta == F(11)


def test_theorem2_identities_exact():
    ex = theorem2_exponents(3, 2, 6, 3)
    p, gamma, q, n = F(2), F(6), F(3), 3
    assert ex.r / (ex.r - 2) * (ex.beta - p + 1) == ex.r * gamma
    assert ex.r * gamma == ex.beta + ex.eta
    assert (ex.beta + p - 1) * n / (n - 2) == q * gamma


def test_theorem2_proof_gap():
    result = theorem2_exponents(3, 2, 2, F(5, 2))
    assert isinstance(result, ProofGap)
    assert result.r == F(11, 6)


def test_theorem2_rejects_below_endpoint():
    # q_end(3, 2, 6) = 5/2
    with pytest.raises(RegimeError):
        theorem2_exponents(3, 2, 6, 2)


def test_classify_regime_orderings():
    assert classify_regime(3, 2, 6, 3, 1) == [THM2_INTERIOR, THM1]
    assert classify_regime(3, 2, 6, F(5, 2), 0) == [THM2_ENDPOINT_I]
    assert classify_regime(3, 2, 6, F(5, 2), 1) == [THM2_ENDPOINT_II]
    assert classify_regime(3, 2, 6, 2, 1) == [INADMISSIBLE]
    assert classify_regime(3, 3, 5, 4, 1)[0] in (THM2_INTERIOR, THM1)


def test_effective_sobolev_dimension():
    assert effective_sobolev_dimension(3, None) == 3
    assert effective_sobolev_dimension(5, None) == 5
    assert effective_sobolev_dimension(2, None) == 4
    assert effective_sobolev_dimension(2, 3) == 3
    with pytest.raises(ParameterError):
        effective_sobolev_dimension(2, 2)


def test_build_exponent_table_interior():
    table = build_exponent_table(3, 2, 6, 3, lam=1, beta=5)
    assert table.regime == THM2_INTERIOR
    assert table.thm2 is not None
    assert table.thm2.beta == F(5)
    assert table.q_gamma == F(18)
    assert table.thm2.r_gamma == F(16)
    data = table.to_dict()
    assert data["thm2"]["r"] == "8/3"


def test_build_exponent_table_gap_falls_back_to_thm1():
    # (3, 2, 2, 3): the superlevel recipe gaps at r = 2 but q >= N holds
    table = build_exponent_table(3, 2, 2, 3)
    assert table.regime == THM1
    assert table.thm2 is None
    assert table.proof_gap_r == F(2)


def test_build_exponent_table_pure_gap():
    table = build_exponent_table(3, 2, 2, F(5, 2))
    assert table.regime == PROOF_GAP
    assert table.proof_gap_r == F(11, 6)


def test_build_exponent_table_2d_surrogate():
    table = build_exponent_table(2, 2, 6, 3, beta=5, sobolev_dim=3)
    assert table.N == 2
    assert table.sobolev_dim == 3
    assert table.thm2 is not None and table.thm2.beta == F(5)


# every key, in order, and every value of three tables: README's config, its
# planar surrogate and the pure proof gap
_GOLDEN_TABLES = [
    (
        (3, 2, 6, 3),
        {"beta": 5},
        {
            "N": 3,
            "p": "2",
            "gamma": "6",
            "q": "3",
            "lambda": "1",
            "q_end": "5/2",
            "tags": ["Thm2Interior", "Thm1"],
            "regime": "Thm2Interior",
            "sobolev_dim": 3,
            "q_gamma": "18",
            "thm1": {
                "beta": "5",
                "eta": "18",
                "alpha": "18/13",
                "alpha_prime": "18/5",
                "q_eta": "36/13",
            },
            "thm2": {"r": "8/3", "beta": "5", "eta": "11", "r_gamma": "16"},
        },
    ),
    (
        (2, 3, 3, 3),
        {"beta": 5, "sobolev_dim": 3},
        {
            "N": 2,
            "p": "3",
            "gamma": "3",
            "q": "3",
            "lambda": "1",
            "q_end": "1",
            "tags": ["Thm2Interior", "Thm1"],
            "regime": "Thm1",
            "sobolev_dim": 3,
            "q_gamma": "9",
            "thm1": {
                "beta": "5",
                "eta": "39/2",
                "alpha": "13/10",
                "alpha_prime": "13/3",
                "q_eta": "13/5",
            },
            "proof_gap_r": "5/3",
        },
    ),
    (
        (3, 2, 2, F(5, 2)),
        {},
        {
            "N": 3,
            "p": "2",
            "gamma": "2",
            "q": "5/2",
            "lambda": "1",
            "q_end": "3/2",
            "tags": ["Thm2Interior"],
            "regime": "ProofGap",
            "sobolev_dim": 3,
            "q_gamma": "5",
            "proof_gap_r": "11/6",
        },
    ),
]


@pytest.mark.parametrize(
    "args, kwargs, expected", _GOLDEN_TABLES, ids=["readme", "planar-surrogate", "proof-gap"]
)
def test_build_exponent_table_golden_dicts(args, kwargs, expected):
    data = build_exponent_table(*args, **kwargs).to_dict()
    assert data == expected
    # the text form of ``gradlab exponents`` prints the keys in this order
    assert list(data) == list(expected)
    for block in ("thm1", "thm2"):
        if block in expected:
            assert list(data[block]) == list(expected[block])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_ns = st.integers(min_value=3, max_value=6)
_ps = st.fractions(min_value=F(11, 10), max_value=F(4), max_denominator=12)
_gaps = st.fractions(min_value=F(1, 10), max_value=F(4), max_denominator=12)
_qextra = st.fractions(min_value=F(1, 12), max_value=F(3), max_denominator=12)


@given(n=_ns, p=_ps, gap=_gaps)
def test_endpoint_below_dimension(n, p, gap):
    gamma = p - 1 + gap
    q_end = endpoint_exponent(n, p, gamma)
    assert 0 < q_end < n


@given(n=_ns, p=_ps, gap=_gaps, extra=_qextra)
def test_theorem2_identities_hold_generically(n, p, gap, extra):
    gamma = p - 1 + gap
    if p < 2:
        return
    q = endpoint_exponent(n, p, gamma) + extra
    result = theorem2_exponents(n, p, gamma, q)
    if isinstance(result, ProofGap):
        assert result.r <= 2
        return
    assert result.r > 2
    assert result.r * gamma == result.beta + result.eta
    assert result.r / (result.r - 2) * (result.beta - p + 1) == result.r * gamma
    assert (result.beta + p - 1) * F(n, n - 2) == q * gamma


def _closed_form_alpha_prime(N, p, beta):
    """The conjugate index written out: ``(2 beta + p) N / ((2 beta + 2 - p)(N - 2))``."""
    if N < 3:
        raise ParameterError("need dimension at least 3")
    denom = (2 * beta + 2 - p) * (N - 2)
    if denom <= 0:
        raise ParameterError("test power beta too small: nonpositive denominator")
    return (2 * beta + p) * N / denom


@given(
    n=st.integers(min_value=2, max_value=6),
    p=_ps,
    beta=st.fractions(min_value=-4, max_value=6, max_denominator=12),
)
def test_alpha_prime_is_the_closed_form_conjugate(n, p, beta):
    """``alpha / (alpha - 1)`` is the closed form, and for p > 1 both refuse
    the same inputs: ``alpha - 1 = (N-2)(2 beta + 2 - p) / denom``."""
    try:
        expected = _closed_form_alpha_prime(n, p, beta)
    except ParameterError:
        with pytest.raises(ParameterError):
            theorem1_alpha_prime(n, p, beta)
        return
    assert theorem1_alpha_prime(n, p, beta) == expected
    _, alpha, _ = theorem1_exponents(n, p, beta)
    assert 1 / alpha + 1 / expected == 1


@given(n=_ns, p=_ps, b1=_gaps, b2=_gaps)
def test_theorem1_eta_monotone_in_beta(n, p, b1, b2):
    beta_lo = 2 + min(b1, b2)
    beta_hi = 2 + max(b1, b2) + F(1, 7)
    eta_lo, _, q_lo = theorem1_exponents(n, p, beta_lo)
    eta_hi, _, q_hi = theorem1_exponents(n, p, beta_hi)
    assert eta_hi > eta_lo
    assert q_hi > q_lo


@given(n=_ns, p=_ps, gap=_gaps, lam=st.sampled_from([F(0), F(1), F(3, 2)]))
def test_classification_precedence(n, p, gap, lam):
    gamma = p - 1 + gap
    q_end = endpoint_exponent(n, p, gamma)
    tags = classify_regime(n, p, gamma, q_end + 1, lam)
    assert tags
    if tags[0] == INADMISSIBLE:
        assert len(tags) == 1
    order = {
        THM2_ENDPOINT_I: 0,
        THM2_ENDPOINT_II: 0,
        THM2_INTERIOR: 1,
        THM1: 2,
        INADMISSIBLE: 3,
    }
    ranks = [order[t] for t in tags]
    assert ranks == sorted(ranks)
