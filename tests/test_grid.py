"""Grid calculus: discrete operators and their exactness properties."""

import numpy as np
import pytest

from gradlab.errors import ContractError, ParameterError, ResolutionError
from gradlab.grid import (
    Box,
    Grid,
    ScalarField,
    VectorField,
    build_grid,
    centered_gradient_matrix,
    dirichlet_form,
    divergence_flux,
    face_average,
    face_average_matrix,
    face_difference_matrix,
    face_normal_differences,
    gradient,
    integrate,
    load_field,
    lp_norm,
    normal_derivative_scan,
    save_field,
    second_derivatives,
)


def test_box_and_grid_validation(tmp_path):
    with pytest.raises(ParameterError):
        Box((1.0,))  # only 2d and 3d boxes
    with pytest.raises(ParameterError):
        Box((1.0, -1.0))
    with pytest.raises(ResolutionError):
        build_grid(Box((1.0, 1.0)), (4, 16))
    grid = build_grid(Box((2.0, 1.0)), (16, 8))
    assert grid.spacing == pytest.approx((0.125, 0.125))
    assert grid.cell_volume == pytest.approx(0.125**2)
    assert grid.refined().shape == (32, 16)


def test_field_shape_contracts():
    grid = build_grid(Box((1.0, 1.0)), (8, 8))
    with pytest.raises(ContractError):
        ScalarField(grid, np.zeros((8, 9)))
    with pytest.raises(ContractError):
        VectorField(grid, np.zeros((3, 8, 8)))


def test_gradient_exact_on_interior_quadratic():
    grid = build_grid(Box((1.0, 1.0)), (17, 17))
    x, y = grid.centers()
    u = ScalarField(grid, 0.5 * x**2 - x * y + y**2)
    du = gradient(u)
    inner = (slice(1, -1), slice(1, -1))
    assert np.allclose(du.components[0][inner], (x - y)[inner], atol=1e-13)
    assert np.allclose(du.components[1][inner], (-x + 2 * y)[inner], atol=1e-13)


def test_gradient_second_order_on_compatible_field():
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(Box((1.0, 1.0)), (n, n))
        x, y = grid.centers()
        u = ScalarField(grid, np.cos(np.pi * x) * np.cos(np.pi * y))
        du = gradient(u)
        exact = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        errs.append(np.max(np.abs(du.components[0] - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)


def test_second_derivatives_exact_on_quadratic():
    grid = build_grid(Box((1.0, 1.0)), (17, 17))
    x, y = grid.centers()
    u = ScalarField(grid, x**2 + 3.0 * x * y - 2.0 * y**2)
    hess2, lap, inf_lap = second_derivatives(u)
    inner = (slice(1, -1), slice(1, -1))
    # D2u = [[2, 3], [3, -4]]: |D2u|^2 = 4 + 9 + 9 + 16 = 38, trace = -2
    assert np.allclose(hess2.values[inner], 38.0, atol=1e-10)
    assert np.allclose(lap.values[inner], -2.0, atol=1e-11)
    ux, uy = (2 * x + 3 * y), (3 * x - 4 * y)
    expected_inf = 2 * ux**2 + 6 * ux * uy - 4 * uy**2
    assert np.allclose(inf_lap.values[inner], expected_inf[inner], atol=1e-9)


def test_divergence_theorem_and_adjointness(rng):
    """Flux-form divergence sums to zero and pairs exactly against the
    Dirichlet form, for arbitrary fields and positive face coefficients."""
    grid = build_grid(Box((1.3, 0.7)), (24, 16))
    vol = grid.cell_volume
    for _ in range(20):
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        v = ScalarField(grid, rng.standard_normal(grid.shape))
        coeffs = [
            0.1 + rng.random(face_average(u.values, grid, d).shape)
            for d in range(grid.ndim)
        ]
        faces = face_normal_differences(u)
        div = divergence_flux(grid, coeffs, faces)
        total = abs(float(div.values.sum() * vol))
        assert total <= 1e-12 * max(1.0, np.abs(div.values).sum() * vol)
        pairing = float((v.values * div.values).sum() * vol)
        energy = dirichlet_form(grid, coeffs, u, v)
        scale = max(abs(pairing), abs(energy), 1.0)
        assert abs(pairing + energy) <= 1e-12 * scale


def test_pointwise_hessian_inequalities(rng):
    """|trace| <= sqrt(N) |D2u| and |infinity-laplacian| <= |D2u| |Du|^2,
    which hold algebraically for the discrete stencils as well."""
    grid = build_grid(Box((1.0, 1.0)), (16, 16))
    for _ in range(10):
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        hess2, lap, inf_lap = second_derivatives(u)
        du2 = np.sum(gradient(u).components ** 2, axis=0)
        hess = np.sqrt(np.maximum(hess2.values, 0.0))
        assert np.all(np.abs(lap.values) <= np.sqrt(2.0) * hess + 1e-12)
        assert np.all(np.abs(inf_lap.values) <= hess * du2 * (1 + 1e-12) + 1e-12)


def test_integrate_and_lp_norms():
    grid = build_grid(Box((1.0, 1.0)), (64, 64))
    x, _ = grid.centers()
    const = ScalarField(grid, np.full(grid.shape, 3.0))
    assert integrate(const) == pytest.approx(3.0, rel=1e-14)
    assert lp_norm(const, 5.0) == pytest.approx(3.0, rel=1e-14)
    assert lp_norm(const, np.inf) == pytest.approx(3.0)
    wave = ScalarField(grid, np.cos(np.pi * x))
    assert lp_norm(wave, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-3)
    vec = VectorField(grid, np.stack([np.full(grid.shape, 3.0), np.full(grid.shape, 4.0)]))
    assert lp_norm(vec, 2.0) == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ParameterError):
        lp_norm(const, 0.5)


def test_normal_scan_linear_ramp():
    grid = build_grid(Box((1.0, 1.0)), (16, 16))
    x, _ = grid.centers()
    scan = normal_derivative_scan(ScalarField(grid, x))
    assert scan.values[(0, 0)] == pytest.approx(-1.0, abs=1e-13)
    assert scan.values[(0, 1)] == pytest.approx(1.0, abs=1e-13)
    assert scan.max_value == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "extents, cells", [((1.0, 2.0), (12, 20)), ((1.0, 0.7, 1.3), (8, 10, 9))]
)
def test_operator_matrices_match_stencils(rng, extents, cells):
    """The sparse builders, which the tests use as the Jacobian's reference,
    agree with the stencils on an anisotropic 2D and 3D box."""
    grid = build_grid(Box(extents), cells)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    for d in range(grid.ndim):
        g_mat = centered_gradient_matrix(grid, d) @ u.values.ravel()
        assert np.allclose(g_mat, gradient(u).components[d].ravel(), atol=1e-14)
        f_mat = face_difference_matrix(grid, d) @ u.values.ravel()
        assert np.allclose(
            f_mat, face_normal_differences(u)[d].ravel(), atol=1e-14
        )
        a_mat = face_average_matrix(grid, d) @ u.values.ravel()
        assert np.allclose(
            a_mat, face_average(u.values, grid, d).ravel(), atol=1e-14
        )


def test_field_serialization_round_trip(tmp_path, rng):
    grid = build_grid(Box((1.5, 0.5, 1.0)), (8, 10, 12))
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "u.field"
    save_field(path, u)
    back = load_field(path)
    assert back.grid.shape == grid.shape
    assert back.grid.domain.extents == pytest.approx(grid.domain.extents)
    assert np.array_equal(back.values, u.values)
    (tmp_path / "junk.field").write_bytes(b"nope")
    with pytest.raises(ContractError):
        load_field(tmp_path / "junk.field")
