"""Newton solver: exactness checks, Jacobian consistency, continuation."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import gradlab.solver
from gradlab.errors import (
    NonconvergenceError,
    ParameterError,
    UnsupportedRegimeError,
)
from gradlab.grid import (
    Box,
    ScalarField,
    build_grid,
    centered_gradient_matrix,
    face_average_matrix,
    face_difference_matrix,
    gradient,
    lp_norm,
)
from gradlab.model import (
    CosineProduct,
    PerturbedPower,
    ProblemSpec,
    RadialSingular,
    Tabulated,
    sample_source,
)
from gradlab.solver import (
    _FORCING,
    _FORCING_MIN,
    LinearSolveStats,
    SolverOptions,
    _dct_preconditioner,
    _discrete_l2,
    _jacobian_matrix,
    _jacobian_pattern,
    _neumann_eigenvalues,
    _newton_direction,
    _residual_values,
    epsilon_sweep,
    jacobian,
    manufacture_source,
    residual,
    solve,
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
    r = residual(prob, u)
    assert np.all(r.values == 0.0)


def test_trivial_solve_recovers_constant(box2d):
    lam, eps, gamma = 1.0, 1e-2, 2.0
    f = Tabulated(np.full((16, 16), lam * 5.0 + eps))
    prob = _problem(box2d, gamma=gamma, lam=lam, eps=eps, source=f)
    u, report = solve(prob, build_grid(box2d, (16, 16)))
    assert report.converged
    assert np.allclose(u.values, 5.0, atol=1e-12)


def test_manufactured_source_round_trip(box2d):
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
    rp = residual(prob, ScalarField(grid, u_vals + t * v_vals)).values
    rm = residual(prob, ScalarField(grid, u_vals - t * v_vals)).values
    fd = (rp - rm).ravel() / (2 * t)
    scale = max(np.max(np.abs(jvp)), 1.0)
    assert np.max(np.abs(jvp - fd)) <= 1e-6 * scale


def _reference_jacobian(grid, coeff, ham, lam, u_values):
    """The Jacobian by sparse-matrix products, term by term."""
    ops = {
        "C": [centered_gradient_matrix(grid, d) for d in range(grid.ndim)],
        "G": [face_difference_matrix(grid, d) for d in range(grid.ndim)],
        "A": [face_average_matrix(grid, d) for d in range(grid.ndim)],
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
    keeps its compact stencil.  On a partly constant iterate a' G_d u
    vanishes on some faces only, which the product formula drops entries
    for and the wide pattern stores as zeros."""
    box = Box(extents)
    grid = build_grid(box, cells)
    prob = ProblemSpec.power_model(
        box, p=p, gamma=3.0, lam=1.3, eps=1e-2,
        source=CosineProduct(amplitude=8.0, modes=(1,) * len(cells)),
        coefficient=coefficient,
    )
    u_vals = 1.0 + 0.1 * rng.standard_normal(grid.shape)
    if partly_constant:
        u_vals[: cells[0] // 2] = 0.7
    J = jacobian(prob, ScalarField(grid, u_vals))
    ref = _reference_jacobian(
        grid, prob.coefficient, prob.hamiltonian, prob.lam, u_vals
    )
    assert abs(J - ref).max() <= 1e-14 * abs(ref).max()
    if p == 2.0:
        assert J.nnz == ref.nnz


def test_jacobian_edits_leave_the_next_jacobian_alone(box2d, rng):
    """The cached pattern is read-only and each Jacobian owns its arrays."""
    grid = build_grid(box2d, (12, 12))
    prob = _problem(box2d, p=3.0, gamma=3.0)
    u = ScalarField(grid, 1.0 + 0.1 * rng.standard_normal(grid.shape))
    J = jacobian(prob, u)
    expected = J.copy()
    J.indices[:] = J.indices[::-1]
    J.sort_indices()
    J.data[:] = 0.0
    J.indptr[1:] = J.indptr[-1]
    again = jacobian(prob, u)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(again, name), getattr(expected, name))
    for arr in _jacobian_pattern(grid, True):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, again.indices)
        assert not np.shares_memory(arr, again.indptr)


def test_jacobian_pattern_cache_is_thread_safe(rng):
    """Threaded sweeps build and evict patterns concurrently: more (grid,
    width) keys than the cache holds, read from more threads than cores."""
    cases = []
    for i in range(6):
        box = Box((1.0, 1.0 + 0.1 * i))
        grid = build_grid(box, (8 + i, 8))
        u = ScalarField(grid, 1.0 + 0.1 * rng.standard_normal(grid.shape))
        for p in (2.0, 3.0):
            cases.append((_problem(box, p=p, gamma=3.0), u))
    expected = [jacobian(prob, u) for prob, u in cases]
    errors = []

    def worker(offset):
        for k in range(40):
            i = (offset + 5 * k) % len(cases)
            J = jacobian(*cases[i])
            if (J != expected[i]).nnz or J.nnz != expected[i].nnz:
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
    assert _jacobian_pattern.cache_info().currsize <= 8


def test_p3_solve_builds_only_the_wide_pattern(box2d):
    """The stencil width follows a' alone, so the constant first iterate of a
    p != 2 solve does not build a narrow pattern that no later step uses."""
    _jacobian_pattern.cache_clear()
    _, report = solve(_problem(box2d, p=3.0, gamma=3.0), build_grid(box2d, (16, 16)))
    assert report.converged
    assert _jacobian_pattern.cache_info().misses == 1


def test_newton_stage_evaluates_each_point_once(box2d, monkeypatch):
    """A stage evaluates the residual at its starting point and then once per
    line-search trial: an accepted trial's residual is carried over to the
    next step, never recomputed."""
    calls = []

    def counting(grid, coeff, ham, lam, f_values, u_values):
        calls.append((ham, u_values.copy()))
        return _residual_values(grid, coeff, ham, lam, f_values, u_values)

    monkeypatch.setattr(gradlab.solver, "_residual_values", counting)
    prob = _problem(
        box2d, p=3.0, gamma=4.0, source=CosineProduct(amplitude=30.0, modes=(2, 1))
    )
    _, report = solve(prob, build_grid(box2d, (16, 16)))
    assert report.converged
    assert any(s.damping_events for s in report.stages)
    for i, (ham, u) in enumerate(calls):
        assert not any(h == ham and np.array_equal(v, u) for h, v in calls[:i])
    for stage in report.stages:
        evals = sum(h.eps == stage.eps and h.gamma == stage.gamma for h, _ in calls)
        trials = evals - 1
        # a damped step backtracks at least once; an undamped one never does
        assert trials >= stage.iterations + stage.damping_events
        if stage.damping_events == 0:
            assert trials == stage.iterations


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
    args = (grid, prob.coefficient, prob.hamiltonian, prob.lam)
    J, abar = _jacobian_matrix(*args, u)
    r = _residual_values(*args, f_values, u)
    return grid, prob.lam, J, abar, r


def _step(grid, lam, J, abar, r, tol):
    stats = LinearSolveStats()
    rn = _discrete_l2(grid, r)
    delta = _newton_direction(grid, J, r, rn, lam, abar, tol, stats)
    assert stats.direct_fallbacks == 0
    return (r + (J @ delta.ravel()).reshape(grid.shape)), stats.krylov_iterations


@pytest.mark.parametrize("case", ["2d-p3", "3d-radial"])
@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-7])
def test_newton_direction_meets_forcing_term(case, scale):
    """GMRES is right-preconditioned, so the forcing condition holds on the
    true linear residual, with eta = max(_FORCING_MIN, _FORCING min(1, |R|),
    0.5 tol / |R|)."""
    grid, lam, J, abar, r = _step_system(case)
    r = r * (scale / _discrete_l2(grid, r))
    tol = 1e-8
    rn = _discrete_l2(grid, r)
    eta = max(_FORCING_MIN, _FORCING * min(1.0, rn), 0.5 * tol / rn)
    linear, _ = _step(grid, lam, J, abar, r, tol)
    assert np.linalg.norm(linear) <= eta * np.linalg.norm(r)


@pytest.mark.parametrize("case", ["2d-p3", "3d-radial"])
def test_forcing_floor_stops_at_half_the_newton_tolerance(case):
    """Near ``|R| = 3 tol`` the floor asks only for a linear residual below
    half the tolerance, which takes fewer Krylov iterations than the
    unfloored forcing term."""
    grid, lam, J, abar, r = _step_system(case)
    tol = 1e-8
    r = r * (3.0 * tol / _discrete_l2(grid, r))
    floored, floored_its = _step(grid, lam, J, abar, r, tol)
    _, full_its = _step(grid, lam, J, abar, r, 0.0)
    assert floored_its < full_its
    assert _discrete_l2(grid, floored) <= 0.5 * tol


def test_stage_history_monotone(p2_problem, box2d):
    u, report = solve(p2_problem, build_grid(box2d, (32, 32)))
    assert report.converged
    for stage in report.stages:
        hist = np.asarray(stage.residual_history)
        assert np.all(np.diff(hist) <= 1e-14)
    assert report.total_iterations == sum(s.iterations for s in report.stages)


@pytest.mark.parametrize(
    "key, value", [("eps_ratio", 1.0), ("eps_ratio", 0.0), ("damping_factor", 1.0)]
)
def test_solver_options_reject_ratios_outside_unit_interval(key, value):
    """A ratio of 1 or more would never end the eps schedule or the line
    search; no solve is run with one."""
    with pytest.raises(ParameterError, match=key):
        SolverOptions(**{key: value})


def test_lambda_zero_rejected(box2d):
    prob = _problem(box2d, lam=0.0)
    with pytest.raises(UnsupportedRegimeError):
        solve(prob, build_grid(box2d, (16, 16)))


def test_nonconvergence_carries_best_iterate(box2d):
    """Skipping continuation on a strongly nonlinear problem with a starved
    iteration budget must stall, and the error exposes the last iterate."""
    prob = _problem(
        box2d, p=3.0, gamma=4.0, eps=1e-6,
        source=CosineProduct(amplitude=60.0, modes=(2, 1)),
    )
    with pytest.raises(NonconvergenceError) as info:
        solve(
            prob,
            build_grid(box2d, (32, 32)),
            options=SolverOptions(max_iter=2),
            continuation=False,
        )
    err = info.value
    assert err.best_iterate is not None
    assert err.best_iterate.values.shape == (32, 32)
    assert err.report is not None and not err.report.converged


def test_epsilon_sweep_norms_stable(p2_problem, box2d):
    rows = epsilon_sweep(
        p2_problem, build_grid(box2d, (32, 32)), [1e-1, 1e-2, 1e-3], q=3.0
    )
    norms = np.array([row.grad_norm_qgamma for row in rows])
    spread = (norms.max() - norms.min()) / norms.min()
    assert spread <= 0.05
    assert all(row.report.converged for row in rows)


@pytest.mark.parametrize(
    "extents, cells",
    [((1.0, 2.5), (8, 13)), ((1.0, 0.7, 1.3), (8, 10, 9))],
)
def test_dct_preconditioner_inverts_neumann_operator(rng, extents, cells):
    """The DCT-II diagonalizes the mirror-ghost Laplacian on any box, so the
    preconditioner is the exact inverse of lam I + abar sum_d G_d^T G_d."""
    grid = build_grid(Box(extents), cells)
    lam, abar = 0.3, 1.7
    laplacian = sum(
        G.T @ G for G in (face_difference_matrix(grid, d) for d in range(grid.ndim))
    )
    op = lam * sp.identity(grid.size) + abar * laplacian
    inverse = _dct_preconditioner(grid, lam, abar)
    x = rng.standard_normal(grid.size)
    assert np.max(np.abs(inverse @ (op @ x) - x)) <= 1e-12 * np.max(np.abs(x))
    b = op @ x
    assert np.max(np.abs(op @ (inverse @ b) - b)) <= 1e-12 * np.max(np.abs(b))


def test_direct_fallback_matches_krylov_solve(monkeypatch):
    """With GMRES never converging every Newton step goes through the direct
    solve, which reaches the same solution in nearly the same steps."""
    box = Box((1.0, 1.0, 1.0))
    prob = ProblemSpec.power_model(
        box, p=2.0, gamma=6.0, lam=1.0, eps=1e-2,
        source=RadialSingular(center=(0.5, 0.5, 0.5), power=0.8, amplitude=15.0),
    )
    grid = build_grid(box, (10, 10, 10))
    options = SolverOptions()
    u_krylov, krylov = solve(prob, grid, options)
    assert sum(s.krylov_iterations for s in krylov.stages) > 0
    assert all(s.direct_fallbacks == 0 for s in krylov.stages)

    def stalled_gmres(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(gradlab.solver, "gmres", stalled_gmres)
    u_direct, direct = solve(prob, grid, options)
    assert direct.converged
    assert [s.direct_fallbacks for s in direct.stages] == [
        s.iterations for s in direct.stages
    ]
    diff = lp_norm(ScalarField(grid, u_krylov.values - u_direct.values), 2.0)
    assert diff <= options.tol / prob.lam
    assert len(direct.stages) == len(krylov.stages)
    for a, b in zip(krylov.stages, direct.stages):
        assert abs(a.iterations - b.iterations) <= 1


def test_eigenvalue_cache_is_thread_safe():
    """Threaded sweeps share the bounded grid caches; more grids than the
    cache holds force evictions while other threads read."""
    grids = [build_grid(Box((1.0, 1.0)), (8 + i, 8)) for i in range(12)]
    expected = [np.array(_neumann_eigenvalues(g)) for g in grids]
    errors = []

    def worker(offset):
        for k in range(200):
            i = (offset + k) % len(grids)
            if not np.array_equal(_neumann_eigenvalues(grids[i]), expected[i]):
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
