"""Source terms: sampling, integrability bookkeeping, reproducibility."""

import numpy as np
import pytest

from gradlab.errors import ContractError, ParameterError
from gradlab.grid import Box, build_grid
from gradlab.model.sources import (
    CosineProduct,
    RadialSingular,
    Scaled,
    SeededSmoothRandom,
    Tabulated,
    lq_membership,
    sample_source,
)


@pytest.fixture()
def grid16():
    return build_grid(Box((1.0, 1.0)), (16, 16))


def test_cosine_product_sampling(grid16):
    field = sample_source(CosineProduct(amplitude=2.0, modes=(1, 2)), grid16)
    x, y = grid16.centers()
    expected = 2.0 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y)
    assert np.allclose(field.values, expected, atol=1e-14)


def test_cosine_product_is_flux_compatible(grid16):
    # one-sided normal differences at the boundary shrink linearly in h
    for n in (16, 32):
        grid = build_grid(Box((1.0, 1.0)), (n, n))
        field = sample_source(CosineProduct(amplitude=1.0, modes=(1, 1)), grid)
        # one-sided normal differences across the low and the high wall
        largest = max(
            float(np.max(np.abs(np.diff(np.take(field.values, pair, axis=d), axis=d))))
            / h
            for d, h in enumerate(grid.spacing)
            for pair in ((0, 1), (-2, -1))
        )
        assert largest <= 12.0 * grid.max_spacing


def test_cosine_product_rejects_negative_modes():
    with pytest.raises(ParameterError):
        CosineProduct(amplitude=1.0, modes=(1, -1))


def test_radial_singular_membership_constructor():
    """|x|^(-power) is in L^q exactly when power*q < N, and in every L^q
    once a core is cut."""
    assert lq_membership(RadialSingular(center=(0.5, 0.5), power=0.9), 3.0, 2) is False
    ok = RadialSingular(center=(0.5, 0.5, 0.5), power=0.9)
    assert lq_membership(ok, 3.0, 3) is True
    assert lq_membership(ok, 3.4, 3) is False  # past q_sup = 3 / 0.9
    cored = RadialSingular(center=(0.5, 0.5), power=0.9, core_radius=0.1)
    assert lq_membership(cored, 1e6, 2) is True


def test_radial_membership_against_refining_quadrature():
    """The membership rule must match what the integrals actually do.

    For f = |x - c|^(-power) in 3d, the L^q mass over refining midpoint
    grids converges when power*q < 3 and keeps growing when power*q > 3.
    """
    src = RadialSingular(center=(0.5, 0.5, 0.5), power=0.8)
    box = Box((1.0, 1.0, 1.0))
    masses = {}
    for q in (3.0, 4.0):
        vals = []
        for n in (16, 32, 64):
            grid = build_grid(box, (n, n, n))
            f = sample_source(src, grid)
            vals.append(float(np.sum(np.abs(f.values) ** q) * grid.cell_volume))
        masses[q] = vals
    # power*q = 2.4 < 3: increments shrink like h^(3 - 2.4), ratio 2^-0.6
    inc_member = np.diff(masses[3.0])
    assert inc_member[1] < 0.75 * inc_member[0]
    assert lq_membership(src, 3.0, 3) is True
    # power*q = 3.2 > 3: increments grow like h^-(3.2 - 3), ratio 2^0.2
    inc_non = np.diff(masses[4.0])
    assert inc_non[1] > 1.05 * inc_non[0]
    assert lq_membership(src, 4.0, 3) is False


def test_radial_sample_rejects_center_hit():
    src = RadialSingular(center=(0.5, 0.5), power=0.5)
    grid_odd = build_grid(Box((1.0, 1.0)), (17, 17))  # a center sits at 0.5
    with pytest.raises(ParameterError):
        sample_source(src, grid_odd)
    grid_even = build_grid(Box((1.0, 1.0)), (16, 16))
    field = sample_source(src, grid_even)
    assert np.all(np.isfinite(field.values))


def test_scaled_source_is_linear(grid16):
    base = CosineProduct(amplitude=1.5, modes=(2, 1))
    direct = sample_source(base, grid16)
    scaled = sample_source(Scaled(base, 2.5), grid16)
    assert np.allclose(scaled.values, 2.5 * direct.values, atol=1e-14)
    assert lq_membership(Scaled(RadialSingular((0.5, 0.5), 0.9), 3.0), 3.0, 2) is False


def test_seeded_random_reproducible(grid16):
    a = sample_source(SeededSmoothRandom(seed=7, cutoff=3), grid16)
    b = sample_source(SeededSmoothRandom(seed=7, cutoff=3), grid16)
    c = sample_source(SeededSmoothRandom(seed=8, cutoff=3), grid16)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ParameterError):
        SeededSmoothRandom(seed=1, cutoff=0)


def test_tabulated_shape_contract(grid16):
    good = Tabulated(np.ones(grid16.shape))
    assert sample_source(good, grid16).values.sum() == pytest.approx(
        np.prod(grid16.shape), rel=1e-15
    )
    bad = Tabulated(np.ones((4, 4)))
    with pytest.raises(ContractError):
        sample_source(bad, grid16)
