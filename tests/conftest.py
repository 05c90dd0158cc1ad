"""Shared fixtures: the regression problems and their solved fields.

The expensive solves are session-scoped; tests treat the returned fields as
read-only.  Three regression problems cover the three regimes the checks
care about: a linear-diffusion cosine problem (fast, smooth), a degenerate
p=3 cosine problem, and a singular-source problem in the superlevel regime
with its 3d counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest

import gradlab.solver
from gradlab.grid import Box, ScalarField, build_grid
from gradlab.model import CosineProduct, ProblemSpec, RadialSingular, Tabulated
from gradlab.solver import evaluate, solve


@pytest.fixture(scope="session")
def manufacture_source():
    """``manufacture(problem, u_star)``: the source that makes ``u_star`` an
    exact discrete solution.

    The table is the residual of ``u_star`` with zero source, so feeding it
    back gives a residual that vanishes to rounding.
    """

    def manufacture(problem, u_star):
        zero = ScalarField(u_star.grid, np.zeros(u_star.grid.shape))
        return Tabulated(evaluate(problem, u_star, zero).residual)

    return manufacture


@pytest.fixture(scope="session")
def box2d():
    return Box((1.0, 1.0))


@pytest.fixture(scope="session")
def p2_problem(box2d):
    return ProblemSpec.power_model(
        box2d, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
        source=CosineProduct(amplitude=8.0, modes=(1, 1)),
    )


@pytest.fixture(scope="session")
def p2_solution_64(p2_problem, box2d):
    grid = build_grid(box2d, (64, 64))
    u, report = solve(p2_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def p3_problem(box2d):
    return ProblemSpec.power_model(
        box2d, p=3.0, gamma=3.0, lam=1.0, eps=1e-2,
        source=CosineProduct(amplitude=20.0, modes=(1, 1)),
    )


@pytest.fixture(scope="session")
def p3_solution_48(p3_problem, box2d):
    grid = build_grid(box2d, (48, 48))
    u, report = solve(p3_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def p3_solution_96(p3_problem, box2d):
    grid = build_grid(box2d, (96, 96))
    u, report = solve(p3_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def sing_problem(box2d):
    """Superlevel-regime surrogate: true exponents (3, 2, 6, 3) run in 2d.

    The planar run keeps the full singular structure of the data while the
    Sobolev bookkeeping stays at dimension 3, which is legitimate because
    the planar energy space embeds into every finite-exponent Lebesgue
    space.
    """
    return ProblemSpec.power_model(
        box2d, p=2.0, gamma=6.0, lam=1.0, eps=1e-2,
        source=RadialSingular(center=(0.5, 0.5), power=0.55, amplitude=30.0),
    )


@pytest.fixture(scope="session")
def sing_solution_48(sing_problem, box2d):
    grid = build_grid(box2d, (48, 48))
    u, report = solve(sing_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def sing_solution_96(sing_problem, box2d):
    grid = build_grid(box2d, (96, 96))
    u, report = solve(sing_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def sing3d_problem():
    return ProblemSpec.power_model(
        Box((1.0, 1.0, 1.0)), p=2.0, gamma=6.0, lam=1.0, eps=1e-2,
        source=RadialSingular(center=(0.5, 0.5, 0.5), power=0.8, amplitude=15.0),
    )


@pytest.fixture(scope="session")
def sing3d_solution(sing3d_problem):
    grid = build_grid(Box((1.0, 1.0, 1.0)), (16, 16, 16))
    u, report = solve(sing3d_problem, grid)
    assert report.converged
    return u


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def linear_solves(monkeypatch):
    """Every call of ``gradlab.solver.spsolve`` while the test runs, as
    ``(linear residual |b - J delta|, target)`` pairs."""
    calls = []
    inner = gradlab.solver.spsolve

    def recorded(J, M, b, target):
        delta, iterations = inner(J, M, b, target)
        calls.append((float(np.linalg.norm(b - J @ delta)), target))
        return delta, iterations

    monkeypatch.setattr(gradlab.solver, "spsolve", recorded)
    return calls
