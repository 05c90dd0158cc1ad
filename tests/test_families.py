"""Coefficient and Hamiltonian families and their structural checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradlab.errors import ParameterError, StructureViolationError
from gradlab.harness import parse_config
from gradlab.model import CosineProduct, ProblemSpec
from gradlab.model.families import (
    PowerDiffusion,
    PowerHamiltonian,
    check_structure_conditions,
)


def test_power_diffusion_values():
    a2 = PowerDiffusion(2.0)
    assert (a2.a(7.3), a2.a_prime(7.3)) == (1.0, 0.0)
    a3 = PowerDiffusion(3.0)
    assert a3.a(4.0) == pytest.approx(2.0, abs=1e-15)
    assert a3.a_prime(4.0) == pytest.approx(0.25, abs=1e-15)


def test_power_diffusion_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        PowerDiffusion(1.0)


def test_structure_constants_cubic_diffusion():
    # for a(t) = t^(1/2): 2 t a'/a = 1 and (a + 2 t a')/a = 2, exactly
    constants = check_structure_conditions(PowerDiffusion(3.0))
    assert (constants.ratio, constants.ellipticity_margin) == (1.0, 2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
def test_structure_constants_match_the_formulas(p):
    """The closed-form ``ratio = p - 2`` and ``margin = p - 1`` are what
    ``2 t a'/a`` and ``1 + 2 t a'/a`` give at every t over eight decades:
    to 1e-13 relative, and exactly at p = 2."""
    fam = PowerDiffusion(p)
    constants = check_structure_conditions(fam)
    assert (constants.ratio, constants.ellipticity_margin) == (p - 2.0, p - 1.0)
    t = np.geomspace(1e-4, 1e4, 257)
    ratio = 2.0 * t * fam.a_prime(t) / fam.a(t)
    rel = 0.0 if p == 2.0 else 1e-13
    assert np.all(np.abs(ratio - constants.ratio) <= rel * abs(constants.ratio))
    margin = 1.0 + ratio
    assert np.all(
        np.abs(margin - constants.ellipticity_margin)
        <= rel * constants.ellipticity_margin
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: PowerDiffusion(math.nan),
        lambda: PowerDiffusion(math.inf),
        lambda: PowerHamiltonian(gamma=math.nan),
        lambda: PowerHamiltonian(gamma=math.inf),
        lambda: PowerHamiltonian(2.0, eps=math.nan),
        lambda: PowerHamiltonian(2.0, eps=math.inf),
    ],
    ids=["p-nan", "p-inf", "gamma-nan", "gamma-inf", "eps-nan", "eps-inf"],
)
def test_families_refuse_non_finite_parameters(build):
    """``p <= 1``, ``gamma <= 1`` and ``eps < 0`` are all False for nan, so
    each bound is stated as the finite interval it requires."""
    with pytest.raises(ParameterError, match="finite"):
        build()


@pytest.mark.parametrize("field", ["p", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_config_with_a_non_finite_exponent_builds_no_problem(field, value):
    config = parse_config(
        "[problem]\np = 2\ngamma = 6\nlambda = 1\neps = 1e-2\nq = 3\n"
        "source = cosine\namplitude = 1\nmodes = 1 1\n"
        "[grid]\nextents = 1 1\ncells = 8 8\n"
    )
    with pytest.raises(ParameterError, match="finite"):
        dataclasses.replace(config, **{field: value}).build_problem()


def test_hamiltonian_values_and_constants():
    ham = PowerHamiltonian(2.0, eps=0.0)
    xi = np.array([3.0, 4.0])
    w = ham.eps + xi @ xi
    assert ham.h_of_w(w) == pytest.approx(25.0)
    assert np.allclose(2.0 * ham.h_prime_of_w(w) * xi, (6.0, 8.0))
    assert ham.lower_growth_constant == 2.0
    # gradient growth constant gamma * 2^(gamma/2)
    assert PowerHamiltonian(3.0).gradient_growth_constant == pytest.approx(
        3.0 * 2.0**1.5
    )
    assert PowerHamiltonian(6.0).gradient_growth_constant == pytest.approx(48.0)


def test_hamiltonian_h_of_w_vectorized():
    ham = PowerHamiltonian(3.0, eps=1e-2)
    w = np.array([1.0, 4.0, 9.0])
    assert np.allclose(ham.h_of_w(w), w**1.5)
    assert np.allclose(ham.h_prime_of_w(w), 1.5 * w**0.5)


def test_hamiltonian_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        PowerHamiltonian(1.0)
    with pytest.raises(ParameterError):
        PowerHamiltonian(2.0, eps=-1.0)
    # a large regularization breaks the normalized gradient growth bound
    # (gamma must exceed 2 for eps to enter the gradient at all)
    with pytest.raises(StructureViolationError):
        PowerHamiltonian(3.0, eps=9.0)


def test_problem_refuses_a_hamiltonian_eps_one_ulp_off(box2d):
    """The solver and the ledgers read one ``w = |Du|^2 + eps``, so the
    Hamiltonian's eps must be the problem's exactly, not only to 1e-14."""
    eps = 1e-2
    problem = ProblemSpec.power_model(
        box2d, p=2.0, gamma=3.0, lam=1.0, eps=eps, source=CosineProduct(1.0, (1, 1))
    )
    nudged = eps * (1 + 2.0**-52)
    assert nudged != eps
    with pytest.raises(ParameterError, match="hamiltonian eps"):
        dataclasses.replace(problem, hamiltonian=PowerHamiltonian(3.0, nudged))
    assert dataclasses.replace(problem, hamiltonian=PowerHamiltonian(3.0, eps)) == problem


@pytest.mark.parametrize(
    "gamma, eps, holds",
    [(6.0, 1.8, True), (6.0, 1.9, False), (3.0, 6.9, True), (3.0, 7.1, False),
     (2.0, 1e6, True), (1.5, 1e6, True)],
)
def test_gradient_growth_condition_is_exact(monkeypatch, gamma, eps, holds):
    """``|H_xi| <= C |xi|^(gamma-1)`` on ``|xi| >= 1`` holds exactly when
    ``gamma <= 2`` or ``(1 + eps)^(gamma/2 - 1) <= 2^(gamma/2)``: eps up to
    2^1.5 - 1 for gamma = 6, up to 7 for gamma = 3, and any eps for
    gamma <= 2.  Construction refuses the Hamiltonian exactly when the bound
    fails, and samples nothing to decide it."""
    s = np.geomspace(1.0, 1e3, 4096)
    grad = gamma * (eps + s**2) ** (gamma / 2.0 - 1.0) * s
    assert np.all(grad <= gamma * 2.0 ** (gamma / 2.0) * s ** (gamma - 1.0)) == holds

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled the closed-form growth bound")

    monkeypatch.setattr(np, "geomspace", no_sampling)
    if holds:
        assert PowerHamiltonian(gamma, eps).eps == eps
    else:
        with pytest.raises(StructureViolationError, match=r"\(1 \+ eps\)\^\(gamma/2 - 1\)"):
            PowerHamiltonian(gamma, eps)


@given(
    p=st.floats(min_value=1.1, max_value=5.0, allow_nan=False),
    t=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_power_ratio_is_p_minus_2(p, t):
    fam = PowerDiffusion(p)
    assert 2.0 * t * fam.a_prime(t) / fam.a(t) == pytest.approx(p - 2.0, abs=1e-10)


@given(
    gamma=st.floats(min_value=1.1, max_value=6.0, allow_nan=False),
    s=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
)
def test_hamiltonian_growth_bounds_pointwise(gamma, s):
    ham = PowerHamiltonian(gamma, eps=0.5)
    w = ham.eps + s**2
    value = ham.h_of_w(w)
    grad = 2.0 * ham.h_prime_of_w(w) * s
    assert value >= ham.lower_growth_constant / 2.0 * s**gamma - 1e-9
    assert grad <= ham.gradient_growth_constant * s ** (gamma - 1.0) * (1 + 1e-12)
