"""Newton solver: exactness checks, Jacobian consistency, nested iteration."""

import dataclasses
import functools
import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import gradlab.solver
from gradlab.errors import (
    ContractError,
    NonconvergenceError,
    ParameterError,
    UnsupportedRegimeError,
)
from gradlab.grid import (
    Box,
    ScalarField,
    build_grid,
    discrete_l2,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
    lp_norm,
)
from gradlab.harness import parse_config, sweep
from gradlab.model import (
    CosineProduct,
    ProblemSpec,
    RadialSingular,
    Tabulated,
    sample_source,
)
from gradlab.solver import (
    _FORCING,
    _FORCING_MIN,
    BandedMatrix,
    SolverOptions,
    _dct_matrix,
    _dct_preconditioner,
    _jacobian_matrix,
    _neumann_eigenvalues,
    _newton_direction,
    _residual_values,
    _stencil_offsets,
    _wall_folds,
    evaluate,
    jacobian,
    solve,
    spsolve,
)


def _problem(box, p=2.0, gamma=2.0, lam=1.0, eps=1e-2, source=None):
    source = source or CosineProduct(amplitude=8.0, modes=(1, 1))
    return ProblemSpec.power_model(
        box, p=p, gamma=gamma, lam=lam, eps=eps, source=source
    )


def test_constant_residual_vanishes_exactly(box2d):
    """For u = C the gradient terms are pure regularization, so the residual
    with f = lam*C + eps^{gamma/2} is identically zero."""
    lam, eps, gamma, c = 2.0, 1e-2, 3.0, 5.0
    f = Tabulated(np.full((16, 16), lam * c + eps ** (gamma / 2.0)))
    prob = _problem(box2d, gamma=gamma, lam=lam, eps=eps, source=f)
    grid = build_grid(box2d, (16, 16))
    u = ScalarField(grid, np.full(grid.shape, c))
    assert np.all(evaluate(prob, u).residual == 0.0)


def test_trivial_solve_recovers_constant(box2d):
    lam, eps, gamma = 1.0, 1e-2, 2.0
    f = Tabulated(np.full((16, 16), lam * 5.0 + eps))
    prob = _problem(box2d, gamma=gamma, lam=lam, eps=eps, source=f)
    u, report = solve(prob, build_grid(box2d, (16, 16)))
    assert report.converged
    assert np.allclose(u.values, 5.0, atol=1e-12)


def test_manufactured_source_round_trip(box2d, manufacture_source):
    grid = build_grid(box2d, (32, 32))
    x, y = grid.centers()
    u_star = ScalarField(grid, 0.3 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    base = _problem(box2d, p=3.0, gamma=3.0, lam=1.5)
    prob = ProblemSpec.power_model(
        box2d,
        p=base.p,
        gamma=base.gamma,
        lam=base.lam,
        eps=base.eps,
        source=manufacture_source(base, u_star),
    )
    u, report = solve(prob, grid)
    assert report.converged
    assert np.max(np.abs(u.values - u_star.values)) <= 1e-10


@pytest.mark.parametrize(
    "p,gamma,cells",
    [
        pytest.param(2.0, 2.0, (12, 12), id="2.0-2.0"),
        pytest.param(3.0, 4.0, (12, 12), id="3.0-4.0"),
        pytest.param(2.0, 2.0, (8, 8, 8), id="3d-2.0-2.0"),
        pytest.param(3.0, 4.0, (8, 8, 8), id="3d-3.0-4.0"),
    ],
)
def test_jacobian_matches_directional_difference(rng, p, gamma, cells):
    box = Box((1.0,) * len(cells))
    grid = build_grid(box, cells)
    prob = _problem(
        box, p=p, gamma=gamma,
        source=CosineProduct(amplitude=8.0, modes=(1,) * len(cells)),
    )
    u_vals = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    v_vals = rng.standard_normal(grid.shape)
    u = ScalarField(grid, u_vals)
    jvp = jacobian(prob, u) @ v_vals.ravel()
    t = 1e-6
    rp = evaluate(prob, ScalarField(grid, u_vals + t * v_vals)).residual
    rm = evaluate(prob, ScalarField(grid, u_vals - t * v_vals)).residual
    fd = (rp - rm).ravel() / (2 * t)
    scale = max(np.max(np.abs(jvp)), 1.0)
    assert np.max(np.abs(jvp - fd)) <= 1e-6 * scale


@functools.cache
def _stencil_matrix(grid, apply):
    """The matrices of the linear stencil ``apply``, one per array it returns:
    column k is ``apply`` of the k-th unit cell vector, in C order."""
    columns = []
    for k in range(math.prod(grid.shape)):
        unit = np.zeros(grid.shape)
        unit.flat[k] = 1.0
        columns.append([np.ravel(part) for part in apply(grid, unit)])
    return tuple(sp.csr_matrix(np.column_stack(part)) for part in zip(*columns))


def _face_averages(grid, u):
    return [face_average(u, d) for d in range(grid.ndim)]


def _neumann_laplacian(grid, u):
    faces = face_normal_differences(grid, u)
    return [-divergence_flux(grid, [np.ones(f.shape) for f in faces], faces)]


def _scipy_dia(J):
    """scipy's ``dia_matrix`` of ``J``: row ``i``'s entry in column ``i + s``
    moves from ``J.rows[k, i]`` to ``data[k, i + s]``, and the entries whose
    column falls off the matrix, all zero, are left out."""
    n = J.shape[0]
    data = np.zeros_like(J.rows)
    for k, s in enumerate(J.offsets):
        lo, hi = max(0, -s), min(n, n - s)
        data[k, lo + s : hi + s] = J.rows[k, lo:hi]
    return sp.dia_matrix((data, J.offsets), shape=J.shape)


def _reference_jacobian(grid, coeff, ham, lam, u_values):
    """The Jacobian by sparse-matrix products, term by term, with each
    operator's matrix taken from its stencil."""
    ops = {
        "C": _stencil_matrix(grid, gradient),
        "G": _stencil_matrix(grid, face_normal_differences),
        "A": _stencil_matrix(grid, _face_averages),
    }
    uflat = u_values.ravel()
    n = uflat.size
    du = [C @ uflat for C in ops["C"]]
    w = ham.eps + sum(d * d for d in du)
    w_jac = sum(sp.diags(2.0 * du[d]) @ ops["C"][d] for d in range(grid.ndim))
    J = lam * sp.identity(n, format="csr")
    for d in range(grid.ndim):
        gu = ops["G"][d] @ uflat
        wf = ops["A"][d] @ w
        af = np.asarray(coeff.a(wf), dtype=float)
        apf = np.asarray(coeff.a_prime(wf), dtype=float)
        flux_jac = sp.diags(af) @ ops["G"][d] + sp.diags(apf * gu) @ (
            ops["A"][d] @ w_jac
        )
        # divergence is minus the transpose of the face difference
        J = J + ops["G"][d].T @ flux_jac
    J = J + sp.diags(ham.h_prime_of_w(w)) @ w_jac
    return J.tocsr()


@dataclasses.dataclass(frozen=True)
class PerturbedPower:
    """Power coefficient modulated by a bounded log-periodic oscillation,
    ``a(t) = t^((p-2)/2) (1 + delta sin(log t))``: a coefficient whose
    ``2 t a'/a`` varies with t, so the Jacobian's a' terms differ face by
    face in a way no clean power gives."""

    p: float
    oscillation: float

    def a(self, t):
        t = np.asarray(t, dtype=float)
        return t ** ((self.p - 2.0) / 2.0) * (1.0 + self.oscillation * np.sin(np.log(t)))

    def a_prime(self, t):
        t = np.asarray(t, dtype=float)
        osc = 1.0 + self.oscillation * np.sin(np.log(t))
        return t ** ((self.p - 4.0) / 2.0) * (
            0.5 * (self.p - 2.0) * osc + self.oscillation * np.cos(np.log(t))
        )


def test_perturbed_power_values():
    fam = PerturbedPower(2.0, 0.1)
    assert fam.a(1.0) == pytest.approx(1.0, abs=1e-15)
    assert fam.a_prime(1.0) == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize(
    "extents, cells", [((1.0, 2.5), (12, 9)), ((1.0, 0.7, 1.3), (8, 10, 9))]
)
@pytest.mark.parametrize(
    "p, coefficient",
    [(2.0, None), (3.0, None), (2.5, PerturbedPower(2.5, 0.2))],
    ids=["p2", "p3", "perturbed"],
)
@pytest.mark.parametrize("partly_constant", [False, True])
def test_jacobian_matches_sparse_product_formula(
    rng, extents, cells, p, coefficient, partly_constant
):
    """The stencil assembly equals the term-by-term product formula; p = 2
    keeps its compact stencil of 2 N + 1 diagonals.  On a partly constant
    iterate a' G_d u vanishes on some faces only, which the product formula
    drops entries for and the wide stencil stores as zeros."""
    box = Box(extents)
    grid = build_grid(box, cells)
    prob = ProblemSpec.power_model(
        box, p=p, gamma=3.0, lam=1.3, eps=1e-2,
        source=CosineProduct(amplitude=8.0, modes=(1,) * len(cells)),
    )
    if coefficient is not None:
        prob = dataclasses.replace(prob, coefficient=coefficient)
    u_vals = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    if partly_constant:
        u_vals[: cells[0] // 2] = 0.7
    J = jacobian(prob, ScalarField(grid, u_vals))
    ref = _reference_jacobian(
        grid, prob.coefficient, prob.hamiltonian, prob.lam, u_vals
    )
    dia = _scipy_dia(J)
    assert abs(dia - ref).max() <= 1e-14 * abs(ref).max()
    assert J.nnz == dia.nnz
    if p == 2.0:
        assert len(J.offsets) == 2 * grid.ndim + 1


@pytest.mark.parametrize(
    "extents, cells", [((1.0, 2.5), (12, 9)), ((1.0, 0.7, 1.3), (8, 10, 9))]
)
@pytest.mark.parametrize("p", [2.0, 3.0], ids=["narrow", "wide"])
def test_banded_product_is_scipys_bit_for_bit(rng, extents, cells, p):
    """The Jacobian's own product sums the diagonals in scipy's DIA order,
    so it equals scipy's product bit for bit, also for an x that lives on
    the edge cells alone, where the diagonals reach into the zero padding.
    The public jacobian() is that operator, and its nnz is scipy's, the
    wall zeros counted."""
    box = Box(extents)
    grid = build_grid(box, cells)
    prob = _problem(
        box, p=p, gamma=3.0, source=CosineProduct(amplitude=8.0, modes=(1,) * len(cells))
    )
    u_vals = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    J, _ = _jacobian_matrix(prob, grid, evaluate(prob, ScalarField(grid, u_vals)))
    ref = _scipy_dia(J)
    edge = np.zeros(grid.shape, dtype=bool)
    for d in range(grid.ndim):
        edge[(slice(None),) * d + ([0, -1],)] = True
    x_all = rng.standard_normal(u_vals.size)
    x_edge = np.where(edge, rng.standard_normal(grid.shape), 0.0).ravel()
    for x in (x_all, x_edge):
        assert (J @ x).tobytes() == (ref @ x).tobytes()
    public = jacobian(prob, ScalarField(grid, u_vals))
    assert isinstance(public, BandedMatrix)
    assert list(public.offsets) == list(J.offsets)
    assert np.array_equal(public.rows, J.rows)
    assert public.nnz == ref.nnz == sum(u_vals.size - abs(s) for s in J.offsets)


@pytest.mark.parametrize("cells", [(8, 8), (8, 10, 9)])
@pytest.mark.parametrize("wide", [False, True])
def test_wall_folds_apply_the_mirror_ghost_rule(rng, cells, wide):
    """Each fold moves a layer whose step crosses a wall onto the offset of
    the edge cell it lands on.  Folded random coefficients keep each cell's
    row sum and leave zero on every step past a wall."""
    ndim = len(cells)
    offsets = _stencil_offsets(ndim, wide)
    index = np.indices(cells)
    for src, dst, layer in _wall_folds(ndim, wide):
        d = len(layer) - 1  # the axis of the layer
        o, target = offsets[src], offsets[dst]
        i = index[d][layer]  # the layer's index along d, in each of its cells
        assert np.all((i + o[d] < 0) | (i + o[d] >= cells[d]))
        assert np.all(i + target[d] == np.clip(i + o[d], 0, cells[d] - 1))
        assert target[:d] + target[d + 1 :] == o[:d] + o[d + 1 :]
    coefs = rng.standard_normal((len(offsets),) + cells)
    folded = coefs.copy()
    for src, dst, layer in _wall_folds(ndim, wide):
        folded[dst][layer] += folded[src][layer]
        folded[src][layer] = 0.0
    assert np.allclose(folded.sum(axis=0), coefs.sum(axis=0), rtol=0, atol=1e-12)
    for k, o in enumerate(offsets):
        past = np.zeros(cells, dtype=bool)
        for d in range(ndim):
            past |= (index[d] + o[d] < 0) | (index[d] + o[d] >= cells[d])
        assert np.all(folded[k][past] == 0.0)


def test_stencil_width_follows_a_prime(box2d, monkeypatch):
    """The stencil width follows a' alone: every Jacobian of a nested cold
    p = 3 solve has the 13 wide diagonals, from its constant first iterate
    on, and hands the preconditioner a(w) per cell; every one of a p = 2
    solve has the 5 compact ones and hands it one number, the unscaled
    apply."""
    for p, expected in ((3.0, (13, 2)), (2.0, (5, 0))):
        seen = []  # (diagonals, ndim of the preconditioner's coefficient)

        def recording(*args):
            J, a = _jacobian_matrix(*args)
            seen.append((len(J.offsets), np.ndim(a)))
            return J, a

        monkeypatch.setattr(gradlab.solver, "_jacobian_matrix", recording)
        _, report = solve(_problem(box2d, p=p, gamma=3.0), build_grid(box2d, (64, 64)))
        assert report.converged
        assert {s.cells for s in report.stages} == {(32, 32), (64, 64)}
        assert seen and set(seen) == {expected}


def test_newton_stage_evaluates_each_point_once(box2d, monkeypatch):
    """A stage evaluates the residual at its starting point and then once per
    line-search trial: an accepted trial's residual is carried over to the
    next step, never recomputed."""
    calls = []

    def counting(problem, grid, f_values, u_values):
        calls.append((grid.cells, u_values.copy()))
        return _residual_values(problem, grid, f_values, u_values)

    monkeypatch.setattr(gradlab.solver, "_residual_values", counting)
    prob = _problem(
        box2d, p=3.0, gamma=4.0, source=CosineProduct(amplitude=30.0, modes=(2, 1))
    )
    _, report = solve(prob, build_grid(box2d, (16, 16)))
    assert report.converged
    assert any(s.damping_events for s in report.stages)
    for i, (cells, u) in enumerate(calls):
        assert not any(c == cells and np.array_equal(v, u) for c, v in calls[:i])
    # a stage is identified by its grid
    keys = [s.cells for s in report.stages]
    assert len(set(keys)) == len(keys)
    for stage in report.stages:
        evals = sum(c == stage.cells for c, _ in calls)
        trials = evals - 1
        # a damped step backtracks at least once; an undamped one never does
        assert trials >= stage.iterations + stage.damping_events
        if stage.damping_events == 0:
            assert trials == stage.iterations


def test_newton_takes_one_gradient_per_evaluation(box2d, monkeypatch):
    """The Jacobian reads the evaluation of the iterate it linearizes at,
    so in a nested cold p = 3 solve the solver's ``gradient`` runs exactly
    once per ``_residual_values``, not once more per Newton step."""
    calls = Counter()
    for name in ("gradient", "_residual_values"):
        inner = getattr(gradlab.solver, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(gradlab.solver, name, counted)
    _, report = solve(_problem(box2d, p=3.0, gamma=3.0), build_grid(box2d, (64, 64)))
    assert report.converged and len(report.stages) == 2
    assert report.total_iterations > 0
    assert calls["gradient"] == calls["_residual_values"]


def _step_system(case):
    """Jacobian and residual at a perturbed iterate: a 2D p = 3 cosine case
    and the 3D radial case."""
    if case == "2d-p3":
        box = Box((1.0, 1.0))
        grid = build_grid(box, (32, 32))
        prob = _problem(box, p=3.0, gamma=3.0)
    else:
        box = Box((1.0, 1.0, 1.0))
        grid = build_grid(box, (12, 12, 12))
        prob = ProblemSpec.power_model(
            box, p=2.0, gamma=6.0, lam=1.0, eps=1e-2,
            source=RadialSingular(center=(0.5, 0.5, 0.5), power=0.8, amplitude=15.0),
        )
    f_values = sample_source(prob.source, grid).values
    x = grid.centers()
    u = f_values.mean() / prob.lam + 0.3 * np.prod([np.cos(np.pi * c) for c in x], axis=0)
    ev = _residual_values(prob, grid, f_values, u)
    J, a = _jacobian_matrix(prob, grid, ev)
    return grid, prob.lam, J, a, ev.residual


def _step(grid, lam, J, a, r, tol):
    rn = discrete_l2(grid, r)
    delta, iterations = _newton_direction(grid, J, r, rn, lam, a, tol)
    return (r + (J @ delta.ravel()).reshape(grid.shape)), iterations


@pytest.mark.parametrize("case", ["2d-p3", "3d-radial"])
@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-7])
def test_newton_direction_meets_forcing_term(linear_solves, case, scale):
    """GMRES is right-preconditioned, so the forcing condition holds on the
    true linear residual, with eta = max(_FORCING_MIN, _FORCING min(1, |R|),
    0.5 tol / |R|)."""
    grid, lam, J, a, r = _step_system(case)
    r = r * (scale / discrete_l2(grid, r))
    tol = 1e-8
    rn = discrete_l2(grid, r)
    eta = max(_FORCING_MIN, _FORCING * min(1.0, rn), 0.5 * tol / rn)
    linear, _ = _step(grid, lam, J, a, r, tol)
    assert np.linalg.norm(linear) <= eta * np.linalg.norm(r)
    assert len(linear_solves) == 1
    assert all(res <= target for res, target in linear_solves)


@pytest.mark.parametrize("case", ["2d-p3", "3d-radial"])
def test_forcing_floor_stops_at_half_the_newton_tolerance(linear_solves, case):
    """Near ``|R| = 3 tol`` the floor asks only for a linear residual below
    half the tolerance, which takes fewer Krylov iterations than the
    unfloored forcing term."""
    grid, lam, J, a, r = _step_system(case)
    tol = 1e-8
    r = r * (3.0 * tol / discrete_l2(grid, r))
    floored, floored_its = _step(grid, lam, J, a, r, tol)
    _, full_its = _step(grid, lam, J, a, r, 0.0)
    assert floored_its < full_its
    assert discrete_l2(grid, floored) <= 0.5 * tol
    assert len(linear_solves) == 2
    assert all(res <= target for res, target in linear_solves)


def _gmres_system(case):
    grid, lam, J, a, r = _step_system(case)
    return J, _dct_preconditioner(grid, lam, a), -r.ravel()


@pytest.mark.parametrize("case", ["2d-p3", "3d-radial"])
@pytest.mark.parametrize("rel", [1e-2, 1e-8])
def test_gmres_meets_target_on_the_true_residual(case, rel):
    J, M, b = _gmres_system(case)
    target = rel * np.linalg.norm(b)
    delta, iterations = spsolve(J, M, b, target)
    assert iterations > 0
    assert np.linalg.norm(b - J @ delta) <= target


def test_gmres_stops_on_a_happy_breakdown(rng):
    """With J and M the identity the first Krylov vector spans the solution,
    so a zero target still stops after one iteration."""
    b = rng.standard_normal(50)
    delta, iterations = spsolve(sp.identity(50, format="csr"), lambda v: v, b, 0.0)
    assert iterations == 1
    assert np.allclose(delta, b, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("case, rel", [("2d-p3", 1e-2), ("3d-radial", 1e-4)])
def test_gmres_restarts_and_still_meets_target(monkeypatch, case, rel):
    """GMRES(3) restarts from the true residual and still meets the target.
    The 2D case needs 18 iterations, six cycles, where GMRES(30) needs 8, so
    the budget is 8 cycles; more than 3 iterations means more than one."""
    monkeypatch.setattr(gradlab.solver, "_GMRES_RESTART", 3)
    monkeypatch.setattr(gradlab.solver, "_GMRES_CYCLES", 8)
    J, M, b = _gmres_system(case)
    target = rel * np.linalg.norm(b)
    delta, iterations = spsolve(J, M, b, target)
    assert iterations > 3
    assert np.linalg.norm(b - J @ delta) <= target


def test_gmres_reports_an_unmet_target(monkeypatch):
    """A target out of reach spends the whole budget, and the last iterate
    still reduces the linear residual: a descent direction for |R|^2 / 2."""
    monkeypatch.setattr(gradlab.solver, "_GMRES_CYCLES", 1)
    J, M, b = _gmres_system("2d-p3")
    delta, iterations = spsolve(J, M, b, 1e-30 * np.linalg.norm(b))
    assert iterations == gradlab.solver._GMRES_RESTART
    assert np.linalg.norm(b - J @ delta) < np.linalg.norm(b)


def test_stage_history_monotone(p2_problem, box2d):
    u, report = solve(p2_problem, build_grid(box2d, (32, 32)))
    assert report.converged
    for stage in report.stages:
        hist = np.asarray(stage.residual_history)
        assert np.all(np.diff(hist) <= 1e-14)
    assert report.total_iterations == sum(s.iterations for s in report.stages)


@pytest.mark.parametrize(
    "key, value",
    [("tol", 0.0), ("tol", -1e-10), ("tol", float("nan")), ("tol", float("inf")),
     ("max_iter", -1)],
)
def test_solver_options_reject_bad_tol_and_max_iter(key, value):
    """A tolerance that no residual meets, or that every residual meets, and
    a negative iteration budget are input errors, not solver stalls."""
    with pytest.raises(ParameterError, match=key):
        SolverOptions(**{key: value})


def test_lambda_zero_rejected(box2d):
    prob = _problem(box2d, lam=0.0)
    with pytest.raises(UnsupportedRegimeError):
        solve(prob, build_grid(box2d, (16, 16)))


def test_nonconvergence_carries_best_iterate(box2d):
    """A single-grid cold solve of a strongly nonlinear problem with a
    starved iteration budget must stall, the message names the grid and
    says that max_iter stopped it, and the error exposes the last iterate."""
    prob = _problem(
        box2d, p=3.0, gamma=4.0, eps=1e-6,
        source=CosineProduct(amplitude=60.0, modes=(2, 1)),
    )
    with pytest.raises(
        NonconvergenceError, match=r"stalled on 32×32 with residual .*: max_iter = 2 reached$"
    ) as info:
        solve(
            prob,
            build_grid(box2d, (32, 32)),
            options=SolverOptions(max_iter=2, continuation=False),
        )
    err = info.value
    assert err.report.stages[-1].iterations == 2
    assert err.best_iterate is not None
    assert err.best_iterate.values.shape == (32, 32)
    assert err.report is not None and not err.report.converged


def test_solve_starts_from_a_field_on_another_grid(p3_problem, p3_solution_48, box2d):
    """A coarse solution, prolonged, starts a one-stage solve on a finer grid
    of the same domain, under default options; a field on another domain is
    refused."""
    grid = build_grid(box2d, (64, 64))
    u, report = solve(p3_problem, grid, initial=p3_solution_48)
    assert report.converged and len(report.stages) == 1
    assert report.total_iterations <= 5
    assert u.grid == grid
    elsewhere = ScalarField(build_grid(Box((1.0, 2.0)), (48, 48)), p3_solution_48.values)
    with pytest.raises(ContractError):
        solve(p3_problem, grid, initial=elsewhere)


def test_a_cold_start_takes_one_target_stage_per_level(p3_problem, box2d):
    """A cold solve takes one stage at the target on each grid of its nested
    iteration, coarsest first; a warm solve, or a cold one without
    continuation, takes one stage on its own grid."""
    grid = build_grid(box2d, (64, 64))
    u, cold = solve(p3_problem, grid)
    assert [s.cells for s in cold.stages] == [(32, 32), (64, 64)]
    for options, initial in [
        (SolverOptions(continuation=False), None),
        (SolverOptions(), u),
        (SolverOptions(continuation=False), u),
    ]:
        _, report = solve(p3_problem, grid, options, initial=initial)
        assert [s.cells for s in report.stages] == [(64, 64)]


@pytest.mark.parametrize(
    "cells, levels",
    [
        ((96, 96), [48, 96]),
        ((64, 64), [32, 64]),
        ((48, 48), [48]),
        ((32, 32, 32), [16, 32]),
        ((16, 16, 16), [16]),
    ],
)
def test_a_cold_start_halves_only_onto_grids_of_1024_cells(cells, levels):
    """A cold start halves its grid only while the coarser grid keeps at
    least 1024 cells: 96^2 starts on 48^2, 64^2 on 32^2 and 32^3 on 16^3,
    and 48^2 and 16^3, whose halves hold 576 and 512 cells, solve alone.
    A tolerance every residual meets ends each stage where it starts, so
    the stages are the levels."""
    ndim = len(cells)
    box = Box((1.0,) * ndim)
    prob = ProblemSpec.power_model(
        box, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
        source=RadialSingular(center=(0.5,) * ndim, power=0.8, amplitude=15.0),
    )
    _, report = solve(prob, build_grid(box, cells), SolverOptions(tol=1e300))
    assert [s.cells for s in report.stages] == [(n,) * ndim for n in levels]
    assert report.total_iterations == 0


@pytest.mark.parametrize(
    "problem, cells, max_steps",
    [
        pytest.param(
            _problem(Box((1.0, 1.0)), p=3.0, gamma=3.0,
                     source=CosineProduct(amplitude=20.0, modes=(1, 1))),
            (33, 33), 7, id="p3-33",
        ),
        pytest.param(
            _problem(Box((1.0, 1.0, 1.0)), gamma=6.0,
                     source=RadialSingular(center=(0.51,) * 3, power=0.8, amplitude=15.0)),
            (15, 15, 15), 7, id="radial-15cubed",
        ),
    ],
)
def test_a_grid_that_cannot_be_halved_solves_cold_on_itself(problem, cells, max_steps):
    """A grid with an odd axis is its own coarsest grid: the cold solve takes
    one stage on it, from the constant, as a solve without continuation
    does, bit for bit."""
    grid = build_grid(problem.domain, cells)
    options = SolverOptions(tol=1e-8)
    u, report = solve(problem, grid, options)
    assert report.converged
    assert [s.cells for s in report.stages] == [cells]
    assert report.total_iterations <= max_steps
    single, _ = solve(problem, grid, SolverOptions(tol=1e-8, continuation=False))
    assert np.array_equal(u.values, single.values)


def test_cold_solve_from_a_tabulated_source_is_nested(box2d):
    """A table cannot be sampled on another grid; the coarse grids take its
    block means, as they do for every source, so the nested solve from a
    table of a source is the solve from that source, bit for bit."""
    prob = _problem(box2d, p=3.0, gamma=3.0)
    grid = build_grid(box2d, (64, 64))
    table = _problem(
        box2d, p=3.0, gamma=3.0, source=Tabulated(sample_source(prob.source, grid).values)
    )
    u, report = solve(table, grid)
    assert report.converged
    assert [s.cells for s in report.stages] == [(32, 32), (64, 64)]
    ref, _ = solve(prob, grid)
    assert np.array_equal(u.values, ref.values)


def test_stall_on_a_coarse_grid_names_that_grid(box2d):
    """A nested solve that stalls on a coarse grid says which grid, and its
    best iterate lives there."""
    prob = _problem(
        box2d, p=3.0, gamma=4.0, eps=1e-6,
        source=CosineProduct(amplitude=60.0, modes=(2, 1)),
    )
    with pytest.raises(NonconvergenceError, match="stalled on 32×32 with residual") as info:
        solve(prob, build_grid(box2d, (64, 64)), options=SolverOptions(max_iter=1))
    err = info.value
    assert err.best_iterate.grid.cells == (32, 32)
    assert err.report.stages[-1].cells == (32, 32)
    assert not err.report.converged


def test_nan_residual_stops_the_nested_solve_on_its_own_level(box2d, monkeypatch):
    """A residual that is not finite fails every comparison with ``tol``, so
    the nested solve stops on the coarsest grid that met it and runs no
    finer stage."""
    monkeypatch.setattr(
        gradlab.solver,
        "_residual_values",
        lambda problem, grid, f_values, u_values: _residual_values(
            problem, grid, f_values, u_values
        )._replace(residual=np.full(grid.shape, np.nan)),
    )
    with pytest.raises(NonconvergenceError, match="stalled on 32×32 with residual nan") as info:
        solve(_problem(box2d), build_grid(box2d, (64, 64)), options=SolverOptions(max_iter=0))
    err = info.value
    assert [s.cells for s in err.report.stages] == [(32, 32)]
    assert not err.report.converged
    assert err.best_iterate.grid.cells == (32, 32)


def test_stall_in_the_line_search_says_so(box2d, monkeypatch):
    """A line search that halves the step below ``_MIN_STEP`` stops its stage
    before max_iter, and says that the line search collapsed."""
    monkeypatch.setattr(gradlab.solver, "_MIN_STEP", 1.0)
    prob = _problem(
        box2d, p=3.0, gamma=4.0, source=CosineProduct(amplitude=30.0, modes=(2, 1))
    )
    with pytest.raises(
        NonconvergenceError,
        match="stalled on 32×32 with residual .*: line search collapsed, no step down "
        "to length 1 passed the Armijo test",
    ) as info:
        solve(prob, build_grid(box2d, (64, 64)))
    assert info.value.report.stages[-1].iterations < SolverOptions().max_iter
    # the report's evaluation is whole, face arrays included
    evaluation = info.value.report.evaluation
    assert evaluation.u is info.value.best_iterate.values
    assert evaluation.faces is not None and evaluation.face_a is not None


def test_epsilon_sweep_norms_stable():
    """The conftest p2_problem on a 32^2 grid, solved along an eps sweep."""
    text = """
[problem]
p = 2
gamma = 2
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 8
modes = 1 1

[grid]
extents = 1 1
cells = 32 32

[analysis]
epsilon_sweep = 1e-1 1e-2 1e-3
"""
    results = sweep(parse_config(text), "eps")
    norms = np.array([r.payload["norms"]["du_qgamma"] for r in results])
    spread = (norms.max() - norms.min()) / norms.min()
    assert spread <= 0.05
    assert all(r.payload["solve"]["converged"] for r in results)


@pytest.mark.parametrize(
    "extents, cells",
    [((1.0, 2.5), (8, 13)), ((1.0, 0.7, 1.3), (8, 10, 9))],
)
def test_dct_preconditioner_inverts_neumann_operator(rng, extents, cells):
    """The DCT-II diagonalizes the mirror-ghost Laplacian on any box, so the
    preconditioner is the exact inverse of lam I + abar sum_d G_d^T G_d for
    a constant coefficient abar, and of S (lam I + abar sum_d G_d^T G_d) S
    with S = diag(sqrt(a / abar)) and abar = mean(a) for a cell field a.
    A constant coefficient runs no scaling at all."""
    grid = build_grid(Box(extents), cells)
    lam = 0.3
    (laplacian,) = _stencil_matrix(grid, _neumann_laplacian)
    a = rng.uniform(0.2, 3.0, grid.shape)
    S = sp.diags(np.sqrt(a / a.mean()).ravel())
    for coeff, op in [
        (1.7, lam * sp.identity(a.size) + 1.7 * laplacian),
        (a, S @ (lam * sp.identity(a.size) + a.mean() * laplacian) @ S),
    ]:
        inverse = _dct_preconditioner(grid, lam, coeff)
        x = rng.standard_normal(a.size)
        assert np.max(np.abs(inverse(op @ x) - x)) <= 1e-12 * np.max(np.abs(x))
        b = op @ x
        assert np.max(np.abs(op @ inverse(b) - b)) <= 1e-12 * np.max(np.abs(b))
    # a constant coefficient, one number as a p = 2 Jacobian hands it on,
    # takes the unscaled products bit for bit
    r = rng.standard_normal(a.size)
    assert np.array_equal(
        _dct_preconditioner(grid, lam, 1.7)(r), _unscaled_dct_inverse(grid, lam, 1.7, r)
    )


def _unscaled_dct_inverse(grid, lam, abar, r):
    """The inverse of lam I + abar sum_d G_d^T G_d by the per-axis DCT-II
    products, in the order the unscaled preconditioner takes them."""
    *first, last = grid.cells
    denom = lam + abar * _neumann_eigenvalues(grid)
    x = r.reshape(-1, last) @ _dct_matrix(last).T
    for d, n in enumerate(first):
        x = _dct_matrix(n) @ x.reshape(math.prod(first[:d]), n, -1)
    x = x.reshape(denom.shape) / denom
    for d, n in enumerate(first):
        x = _dct_matrix(n).T @ x.reshape(math.prod(first[:d]), n, -1)
    return (x.reshape(-1, last) @ _dct_matrix(last)).ravel()


def test_p3_krylov_iterations_per_step_stay_bounded(p3_problem, box2d):
    """The DCT preconditioner scaled by sqrt(a(w) / abar) sees the cell to
    cell variation of a p = 3 coefficient, so the Krylov iterations per
    Newton step of each grid's one stage at the target stay bounded under
    refinement: at most 10 from 24^2 to 192^2, where the grid mean alone
    took 12.0 at 96^2 and 13.75 at 192^2.  One cold 192^2 solve walks
    that ladder from 48^2, and a cold 24^2 solve, too small to be halved,
    takes its one stage from the constant."""
    targets = []
    for n in (24, 192):
        _, report = solve(p3_problem, build_grid(box2d, (n, n)), SolverOptions(tol=1e-8))
        assert report.converged
        targets += report.stages
    assert [s.cells for s in targets] == [(n, n) for n in (24, 48, 96, 192)]
    for stage in targets:
        assert stage.krylov_iterations <= 10 * stage.iterations


def _radial_10():
    box = Box((1.0, 1.0, 1.0))
    prob = ProblemSpec.power_model(
        box, p=2.0, gamma=6.0, lam=1.0, eps=1e-2,
        source=RadialSingular(center=(0.5, 0.5, 0.5), power=0.8, amplitude=15.0),
    )
    return prob, build_grid(box, (10, 10, 10))


def test_starved_gmres_still_converges(monkeypatch, linear_solves):
    """With one Krylov iteration per Newton step most steps miss their
    forcing term; the line search alone still carries the solve to the
    solution the full GMRES budget reaches."""
    prob, grid = _radial_10()
    options = SolverOptions()
    u_full, full = solve(prob, grid, options)
    assert sum(s.krylov_iterations for s in full.stages) > 0
    assert len(linear_solves) == full.total_iterations
    assert all(res <= target for res, target in linear_solves)

    linear_solves.clear()
    monkeypatch.setattr(gradlab.solver, "_GMRES_RESTART", 1)
    monkeypatch.setattr(gradlab.solver, "_GMRES_CYCLES", 1)
    u_starved, starved = solve(prob, grid, options)
    assert starved.converged
    assert len(linear_solves) == starved.total_iterations
    assert any(res > target for res, target in linear_solves)
    diff = lp_norm(ScalarField(grid, u_full.values - u_starved.values), 2.0)
    assert diff <= options.tol / prob.lam


def test_linear_solve_without_progress_stalls(monkeypatch):
    """A step that does not move the iterate fails the line search, and the
    solve stops in its first stage, on the coarsest grid."""
    prob, _ = _radial_10()
    monkeypatch.setattr(
        gradlab.solver, "spsolve", lambda J, M, b, target: (np.zeros_like(b), 0)
    )
    with pytest.raises(
        NonconvergenceError, match="stalled on 16×16×16 with residual .*: line search collapsed"
    ) as err:
        solve(prob, build_grid(prob.domain, (32, 32, 32)))
    assert err.value.best_iterate.grid.cells == (16, 16, 16)
    assert [s.iterations for s in err.value.report.stages] == [0]


def test_eigenvalue_cache_is_thread_safe():
    """Every caller shares the bounded eigenvalue and DCT-matrix caches,
    threads included: with more grids and axis lengths than they hold,
    evictions in one thread never hand another a wrong array."""
    grids = [build_grid(Box((1.0, 1.0)), (8 + i, 8)) for i in range(12)]
    expected = [np.array(_neumann_eigenvalues(g)) for g in grids]
    matrices = [np.array(_dct_matrix(g.cells[0])) for g in grids]
    errors = []

    def worker(offset):
        for k in range(200):
            i = (offset + k) % len(grids)
            if not np.array_equal(_neumann_eigenvalues(grids[i]), expected[i]):
                errors.append(i)
            if not np.array_equal(_dct_matrix(grids[i].cells[0]), matrices[i]):
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _neumann_eigenvalues.cache_info().currsize <= 8
    assert _dct_matrix.cache_info().currsize <= 8
    assert not _dct_matrix(8).flags.writeable
