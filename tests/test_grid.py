"""Grid calculus: discrete operators and their exactness properties."""

import re
import struct

import numpy as np
import pytest

from gradlab.errors import ContractError, ParameterError, ResolutionError
from gradlab.grid import (
    Box,
    Grid,
    ScalarField,
    build_grid,
    dirichlet_form,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
    load_field,
    lp_norm,
    prolong,
    restrict,
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


def test_field_shape_contracts():
    grid = build_grid(Box((1.0, 1.0)), (8, 8))
    with pytest.raises(ContractError):
        ScalarField(grid, np.zeros((8, 9)))


_GRID_2D = build_grid(Box((1.0, 0.5)), (12, 8))

# every way to hand a cell array to the grid: each checks its shape
# (divergence_flux takes face arrays, checked in the face-array test)
_CELL_ARRAY_TAKERS = {
    "ScalarField": ScalarField,
    "gradient": gradient,
    "face_normal_differences": face_normal_differences,
    "second_derivatives": second_derivatives,
    "dirichlet_form u": lambda g, a: dirichlet_form(g, _unit_faces(g), a, np.zeros(g.shape)),
    "dirichlet_form v": lambda g, a: dirichlet_form(g, _unit_faces(g), np.zeros(g.shape), a),
}


def _unit_faces(grid):
    return [np.ones(f.shape) for f in face_normal_differences(grid, np.zeros(grid.shape))]


@pytest.mark.parametrize("taker", sorted(_CELL_ARRAY_TAKERS))
@pytest.mark.parametrize("shape", [(12, 1), (1, 8), (8, 12), (12, 9), (12, 8, 1), (96,)])
def test_cell_arrays_of_another_shape_are_refused(taker, shape):
    """An array whose shape is not the grid's is refused, never broadcast:
    an ``(n, 1)`` array would otherwise pass through every stencil."""
    take = _CELL_ARRAY_TAKERS[taker]
    take(_GRID_2D, np.ones(_GRID_2D.shape))
    with pytest.raises(ContractError):
        take(_GRID_2D, np.ones(shape))


def test_gradient_exact_on_interior_quadratic():
    grid = build_grid(Box((1.0, 1.0)), (17, 17))
    x, y = grid.centers()
    du = gradient(grid, 0.5 * x**2 - x * y + y**2)
    assert du.shape == (2, 17, 17)
    inner = (slice(1, -1), slice(1, -1))
    assert np.allclose(du[0][inner], (x - y)[inner], atol=1e-13)
    assert np.allclose(du[1][inner], (-x + 2 * y)[inner], atol=1e-13)


def test_gradient_second_order_on_compatible_field():
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(Box((1.0, 1.0)), (n, n))
        x, y = grid.centers()
        du = gradient(grid, np.cos(np.pi * x) * np.cos(np.pi * y))
        exact = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        errs.append(np.max(np.abs(du[0] - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)


def test_second_derivatives_exact_on_quadratic():
    grid = build_grid(Box((1.0, 1.0)), (17, 17))
    x, y = grid.centers()
    hess2 = second_derivatives(grid, x**2 + 3.0 * x * y - 2.0 * y**2)
    inner = (slice(1, -1), slice(1, -1))
    # D2u = [[2, 3], [3, -4]]: |D2u|^2 = 4 + 9 + 9 + 16 = 38
    assert np.allclose(hess2[inner], 38.0, atol=1e-10)


def test_divergence_theorem_and_adjointness(rng):
    """Flux-form divergence sums to zero and pairs exactly against the
    Dirichlet form, for arbitrary fields and positive face coefficients."""
    for grid in (
        build_grid(Box((1.3, 0.7)), (24, 16)),
        build_grid(Box((1.0, 0.7, 1.3)), (8, 10, 12)),
    ):
        vol = grid.cell_volume
        for _ in range(20):
            u = rng.standard_normal(grid.shape)
            v = rng.standard_normal(grid.shape)
            coeffs = [0.1 + rng.random(face_average(u, d).shape) for d in range(grid.ndim)]
            faces = face_normal_differences(grid, u)
            div = divergence_flux(grid, coeffs, faces)
            total = abs(float(div.sum() * vol))
            assert total <= 1e-12 * max(1.0, np.abs(div).sum() * vol)
            pairing = float((v * div).sum() * vol)
            energy = dirichlet_form(grid, coeffs, u, v)
            scale = max(abs(pairing), abs(energy), 1.0)
            assert abs(pairing + energy) <= 1e-12 * scale


@pytest.mark.parametrize("cells", [(12, 9), (8, 10, 9)])
def test_face_arrays_hold_interior_faces_only(rng, cells):
    """Face data along axis d has n_d - 1 entries along d; the boundary
    faces have none, so an array with the two boundary faces is refused."""
    grid = build_grid(Box((1.0,) * len(cells)), cells)
    u = rng.standard_normal(grid.shape)
    faces = face_normal_differences(grid, u)
    for d in range(grid.ndim):
        shape = list(cells)
        shape[d] -= 1
        assert faces[d].shape == tuple(shape)
        assert face_average(u, d).shape == tuple(shape)
    ones = [np.ones(f.shape) for f in faces]
    divergence_flux(grid, ones, faces)
    for d in range(grid.ndim):
        shape = list(cells)
        shape[d] += 1
        padded = list(faces)
        padded[d] = np.zeros(shape)
        with pytest.raises(ContractError, match=f"along axis {d}"):
            divergence_flux(grid, ones, padded)
        with pytest.raises(ContractError, match=f"along axis {d}"):
            divergence_flux(grid, padded, faces)
        # one that would broadcast is refused too
        thin = list(faces)
        thin[d] = faces[d][..., :1]
        with pytest.raises(ContractError, match=f"along axis {d}"):
            divergence_flux(grid, ones, thin)


def test_integrate_and_lp_norms():
    grid = build_grid(Box((1.0, 1.0)), (64, 64))
    x, _ = grid.centers()
    const = ScalarField(grid, np.full(grid.shape, 3.0))
    assert const.values.sum() * grid.cell_volume == pytest.approx(3.0, rel=1e-14)
    assert lp_norm(const, 5.0) == pytest.approx(3.0, rel=1e-14)
    assert lp_norm(const, np.inf) == pytest.approx(3.0)
    wave = ScalarField(grid, np.cos(np.pi * x))
    assert lp_norm(wave, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-3)
    # the norm of a vector field is that of its magnitude
    du = np.stack([np.full(grid.shape, 3.0), np.full(grid.shape, 4.0)])
    magnitude = ScalarField(grid, np.sqrt(np.sum(du**2, axis=0)))
    assert lp_norm(magnitude, 2.0) == pytest.approx(5.0, rel=1e-14)
    with pytest.raises(ParameterError):
        lp_norm(const, 0.5)


def test_normal_scan_linear_ramp():
    grid = build_grid(Box((1.0, 1.0)), (16, 16))
    x, _ = grid.centers()
    h = grid.spacing[0]
    # outward one-sided differences across the walls x = 0 and x = 1
    assert np.allclose((x[0] - x[1]) / h, -1.0, rtol=0, atol=1e-13)
    assert np.allclose((x[-1] - x[-2]) / h, 1.0, rtol=0, atol=1e-13)


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


@pytest.mark.parametrize(
    "damage",
    [
        lambda blob: blob[:-8],  # truncated data block
        lambda blob: blob[:20],  # truncated header
        lambda blob: blob + bytes(8),  # trailing bytes
        # a header that claims 2**62 cells, checked before anything is read
        lambda blob: blob[:12] + struct.pack("<3Q", 2**31, 2**31, 1) + blob[36:],
        lambda blob: blob[:8] + struct.pack("<I", 1) + blob[12:],  # one axis
    ],
    ids=["truncated-data", "truncated-header", "trailing-bytes", "huge-header", "one-axis"],
)
def test_load_field_rejects_malformed_snapshots(tmp_path, rng, damage):
    """A snapshot whose length does not match its header, or whose header
    names other than 2 or 3 axes, is refused with a ContractError that names
    the file."""
    grid = build_grid(Box((1.5, 0.5, 1.0)), (8, 10, 12))
    path = tmp_path / "u.field"
    save_field(path, ScalarField(grid, rng.standard_normal(grid.shape)))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ContractError, match=re.escape(str(path))):
        load_field(path)


@pytest.mark.parametrize(
    "extents, cells_from, cells_to",
    [
        ((1.0, 2.0), (32, 32), (48, 48)),
        ((1.0, 2.0), (48, 48), (32, 32)),
        ((1.0, 2.0), (16, 40), (64, 40)),
        ((1.0, 0.7, 1.3), (8, 8, 8), (12, 12, 12)),
    ],
)
def test_prolong_reproduces_constants_and_linear_fields(extents, cells_from, cells_to):
    """Interpolation is exact on constants everywhere, and on a field that is
    linear in each coordinate at every target centre inside the hull of the
    source centres."""
    box = Box(extents)
    src, dst = build_grid(box, cells_from), build_grid(box, cells_to)
    const = prolong(ScalarField(src, np.full(src.shape, 0.1)), dst)
    assert const.grid == dst
    assert np.all(const.values == 0.1)

    def linear(grid):
        return sum((d + 1.5) * x for d, x in enumerate(grid.centers())) - 0.25

    got = prolong(ScalarField(src, linear(src)), dst).values
    inside = np.ones(dst.shape, dtype=bool)
    for d, x in enumerate(dst.centers()):
        c = src.axis_centers(d)
        inside &= (x >= c[0]) & (x <= c[-1])
    assert inside.any()
    assert np.allclose(got[inside], linear(dst)[inside], rtol=0, atol=1e-13)
    # outside the hull each axis holds its edge value, so the field stays
    # within the source's range
    assert got.min() >= linear(src).min() and got.max() <= linear(src).max()


def test_prolong_same_grid_copies_and_other_domain_raises(rng):
    grid = build_grid(Box((1.0, 1.0)), (16, 16))
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    same = prolong(u, grid)
    assert np.array_equal(same.values, u.values)
    assert not np.shares_memory(same.values, u.values)
    with pytest.raises(ContractError):
        prolong(u, build_grid(Box((1.0, 2.0)), (16, 16)))
    with pytest.raises(ContractError):
        prolong(u, build_grid(Box((1.0, 1.0, 1.0)), (16, 16, 16)))


@pytest.mark.parametrize(
    "cells, coarsest",
    [
        ((16, 16), (8, 8)),
        ((96, 96), (12, 12)),
        ((16, 16, 16), (8, 8, 8)),
        ((64, 32), (16, 8)),
        ((12, 12), (12, 12)),
        ((15, 16), (15, 16)),
        ((9, 9, 9), (9, 9, 9)),
    ],
)
def test_coarsening_halves_every_axis_while_it_can(cells, coarsest):
    """Every axis is halved together, and only while each axis is even and
    keeps at least 8 cells."""
    grid = build_grid(Box((1.0,) * len(cells)), cells)
    while (coarse := grid.coarsened()) is not None:
        assert all(2 * m == n for m, n in zip(coarse.cells, grid.cells))
        grid = coarse
    assert grid.cells == coarsest


@pytest.mark.parametrize(
    "extents, fine, coarse",
    [((1.0, 2.5), (32, 16), (16, 8)), ((1.0, 0.7, 1.3), (16, 20, 8), (8, 10, 8))],
)
def test_restrict_keeps_constants_and_the_discrete_integral(rng, extents, fine, coarse):
    box = Box(extents)
    src, dst = build_grid(box, fine), build_grid(box, coarse)
    const = restrict(ScalarField(src, np.full(src.shape, 0.1)), dst)
    assert const.grid == dst
    assert np.allclose(const.values, 0.1, rtol=1e-15, atol=0)
    f = ScalarField(src, rng.standard_normal(src.shape) + 2.0)
    mean = restrict(f, dst)
    assert mean.values.sum() * dst.cell_volume == pytest.approx(
        f.values.sum() * src.cell_volume, rel=1e-13
    )
    # the first coarse cell is the mean of the fine cells it covers
    block = f.values[tuple(slice(0, n // m) for n, m in zip(fine, coarse))]
    assert mean.values.flat[0] == pytest.approx(block.mean(), rel=1e-14)


def test_restrict_refuses_a_grid_that_is_not_a_coarsening(rng):
    grid = build_grid(Box((1.0, 1.0)), (16, 16))
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    for other in [
        build_grid(Box((1.0, 1.0)), (12, 8)),
        build_grid(Box((1.0, 1.0)), (32, 32)),
        build_grid(Box((1.0, 2.0)), (8, 8)),
    ]:
        with pytest.raises(ContractError):
            restrict(u, other)
