"""The discrete problem's symmetries on a box.

The Neumann problem on a box commutes with reflecting an axis and with
permuting axes, and a source constant along an axis gives a solution
constant along it.  The wall folds, the wide stencil's cross terms and the
3D paths are where a sign or axis slip would hide, so each symmetry is
checked on a cold solve.  Every source is a :class:`Tabulated` array, so
both sides read the same data bits.  Summation order and BLAS need not keep
bit equality, so each bound sits a few hundred times above the relative
disagreement measured with numpy 2.4 and OpenBLAS 0.3.31 on x86-64: 1.7e-16
for the reflected solution and 6.1e-14 for its ledger sides, 1.4e-12 for
the transposed solution, and 1.2e-13 (p = 2) and 5.3e-13 (p = 3) for the
extruded one.
"""

import numpy as np
import pytest

from gradlab.bernstein import prepare_bundle, thm1_ledger, weak_identity_check
from gradlab.grid import Box, build_grid
from gradlab.model import (
    CosineProduct,
    ProblemSpec,
    RadialSingular,
    Tabulated,
    build_exponent_table,
    sample_source,
)
from gradlab.solver import SolverOptions, solve

OPTIONS = SolverOptions(tol=1e-10)


def _solve(extents, cells, p, gamma, values):
    """Cold solve of ``lam = 1``, ``eps = 1e-2`` with ``values`` as source."""
    box = Box(extents)
    problem = ProblemSpec.power_model(
        box, p=p, gamma=gamma, lam=1.0, eps=1e-2, source=Tabulated(values)
    )
    u, report = solve(problem, build_grid(box, cells), OPTIONS)
    assert report.converged
    return problem, u, report


def _krylov(report):
    return sum(stage.krylov_iterations for stage in report.stages)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_reflecting_x_reflects_the_solution_and_keeps_the_ledger():
    """README's radial source (p = 2, gamma = 6) with its singularity off
    the centre, at 64^2, against the same array flipped along x."""
    grid = build_grid(Box((1.0, 1.0)), (64, 64))
    f = sample_source(RadialSingular((0.3, 0.6), 0.55, 30.0), grid).values
    table = build_exponent_table(2, 2, 6, 3, beta=5, sobolev_dim=3)
    sides = []
    for values in (f, np.flip(f, axis=0)):
        problem, u, report = _solve((1.0, 1.0), (64, 64), 2.0, 6.0, values)
        bundle = prepare_bundle(problem, u, report)
        sides.append((u.values, report.total_iterations, thm1_ledger(bundle, table),
                      weak_identity_check(bundle, beta=5.0)))
    (u, its, thm1, weak), (u_flip, its_flip, thm1_flip, weak_flip) = sides
    assert its == its_flip
    assert _rel(np.flip(u_flip, axis=0), u) <= 5e-14
    for row, row_flip in zip(thm1.rows + [weak], thm1_flip.rows + [weak_flip]):
        assert row.lemma == row_flip.lemma
        for side, side_flip in ((row.lhs, row_flip.lhs), (row.rhs, row_flip.rhs)):
            assert abs(side_flip - side) <= 2e-11 * abs(side)


def test_transposing_the_box_transposes_the_solution():
    """p = 3 cosine on a 1 x 2.5 box at 32 x 80, against the transposed
    array on a 2.5 x 1 box at 80 x 32: same solution, same Newton and
    Krylov counts."""
    grid = build_grid(Box((1.0, 2.5)), (32, 80))
    f = sample_source(CosineProduct(20.0, (1, 1)), grid).values
    _, u, report = _solve((1.0, 2.5), (32, 80), 3.0, 3.0, f)
    _, u_t, report_t = _solve((2.5, 1.0), (80, 32), 3.0, 3.0, f.T.copy())
    assert report_t.total_iterations == report.total_iterations
    assert _krylov(report_t) == _krylov(report)
    assert _rel(u_t.values.T, u.values) <= 5e-10


@pytest.mark.parametrize(
    "p, gamma, source, bound",
    [(2.0, 6.0, RadialSingular((0.3, 0.6), 0.55, 30.0), 5e-11),
     (3.0, 3.0, CosineProduct(20.0, (1, 1)), 2e-10)],
    ids=["p2", "p3"],
)
def test_a_source_constant_in_z_gives_a_solution_constant_in_z(p, gamma, source, bound):
    """A 2D source at 32^2 copied onto 32^2 x 8 cells of a 1 x 1 x 0.5 box:
    each z-slice of the 3D solution is the 2D solution, in as many Newton
    steps."""
    f2 = sample_source(source, build_grid(Box((1.0, 1.0)), (32, 32))).values
    _, u2, report2 = _solve((1.0, 1.0), (32, 32), p, gamma, f2)
    f3 = np.repeat(f2[:, :, None], 8, axis=2)
    _, u3, report3 = _solve((1.0, 1.0, 0.5), (32, 32, 8), p, gamma, f3)
    assert report3.total_iterations == report2.total_iterations
    for z in range(8):
        assert _rel(u3.values[:, :, z], u2.values) <= bound
