"""Acceptance criteria for the package, one test per criterion.

Each test prints a single verdict line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so a red criterion is
both greppable and a test failure.
"""

from fractions import Fraction

import numpy as np
import pytest

from gradlab.bernstein import (
    levelset_scan,
    maximal_regularity_norm,
    prepare_bundle,
    thm1_ledger,
    thm2_ledger,
    weak_identity_check,
)
from gradlab.errors import RegimeError
from gradlab.grid import (
    Box,
    ScalarField,
    build_grid,
    dirichlet_form,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
)
from gradlab.harness import convergence_study, parse_config, scaling_fit, sweep
from gradlab.model import PowerDiffusion
from gradlab.model.exponents import ProofGap, build_exponent_table, theorem2_exponents
from gradlab.model.families import check_structure_conditions
from gradlab.solver import solve

F = Fraction


def _check(name, fn):
    try:
        fn()
    except BaseException as exc:
        print(f"[acceptance] {name}: FAIL ({exc})")
        raise
    print(f"[acceptance] {name}: PASS")


def test_c01_exponents_exact_rationals():
    def body():
        exps = theorem2_exponents(3, 2, 6, 3)
        assert exps.r == F(8, 3)
        assert exps.beta == F(5)
        assert exps.eta == F(11)
        assert exps.r * F(6) == F(16) == exps.beta + exps.eta
        assert F(3) * F(6) == F(18)

    _check("01 exponent arithmetic is exact", body)


def test_c02_structure_constants_cubic():
    def body():
        constants = check_structure_conditions(PowerDiffusion(3.0))
        assert abs(constants.ratio - 1.0) <= 1e-12
        assert abs(constants.ellipticity_margin - 2.0) <= 1e-12

    _check("02 structure constants for the cubic model", body)


def test_c03_manufactured_solution_order(box2d):
    def body():
        def u_exact(coords):
            x, y = coords
            return np.cos(np.pi * x) * np.cos(np.pi * y)

        def f_exact(coords, eps=1e-2):
            x, y = coords
            base = (1 + 2 * np.pi**2) * np.cos(np.pi * x) * np.cos(np.pi * y)
            ham = eps + np.pi**2 / 2 - (np.pi**2 / 2) * np.cos(
                2 * np.pi * x
            ) * np.cos(2 * np.pi * y)
            return base + ham

        study = convergence_study(
            box2d, p=2.0, gamma=2.0, lam=1.0, eps=1e-2,
            f_exact=f_exact, u_exact=u_exact, base_cells=32, levels=3,
        )
        assert all(lv.converged for lv in study.levels)
        assert min(study.orders_linf) >= 1.8

    _check("03 manufactured-solution convergence at order 2", body)


def test_c04_discrete_calculus_identities(rng):
    def body():
        grid = build_grid(Box((1.0, 1.0)), (24, 24))
        vol = grid.cell_volume
        for _ in range(20):
            u = rng.standard_normal(grid.shape)
            v = rng.standard_normal(grid.shape)
            coeffs = [0.1 + rng.random(face_average(u, d).shape) for d in range(grid.ndim)]
            div = divergence_flux(grid, coeffs, face_normal_differences(grid, u))
            assert abs(float(div.sum() * vol)) <= 1e-12
            pairing = float((v * div).sum() * vol)
            energy = dirichlet_form(grid, coeffs, u, v)
            assert abs(pairing + energy) <= 1e-12 * max(abs(pairing), 1.0)

    _check("04 discrete divergence theorem and adjointness", body)


def test_c05_weak_identity_gap_converges(p2_problem, box2d):
    def body():
        gaps = []
        for n in (32, 64, 128):
            u, _ = solve(p2_problem, build_grid(box2d, (n, n)))
            row = weak_identity_check(prepare_bundle(p2_problem, u), beta=4.0)
            assert row.passed
            gaps.append(row.constants["relative_gap"])
        orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(orders >= 0.9)

    _check("05 weak-identity gap shrinks at least linearly", body)


def test_c06_ledgers_pass_and_persist_under_refinement(
    p2_problem, p2_solution_64, p3_problem, p3_solution_48, p3_solution_96,
    sing_problem, sing_solution_48, sing_solution_96,
):
    def body():
        p2_table = build_exponent_table(2, 2, 2, 3, beta=4)
        p3_table = build_exponent_table(2, 3, 3, 3, beta=6)
        sing_table = build_exponent_table(2, 2, 6, 3, sobolev_dim=3)
        assert thm1_ledger(prepare_bundle(p2_problem, p2_solution_64), p2_table).all_pass
        assert thm1_ledger(prepare_bundle(p3_problem, p3_solution_48), p3_table).all_pass
        assert thm1_ledger(prepare_bundle(p3_problem, p3_solution_96), p3_table).all_pass
        assert sing_table.thm2.beta == 5
        for u in (sing_solution_48, sing_solution_96):
            ledger = thm2_ledger(prepare_bundle(sing_problem, u), sing_table, k=1.0)
            assert ledger.all_pass

    _check("06 estimate ledgers hold on smooth and singular runs", body)


# the conftest p3_problem on a 48^2 grid, swept over eps
P3_EPS_SWEEP = """
[problem]
p = 3
gamma = 3
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 20
modes = 1 1

[grid]
extents = 1 1
cells = 48 48

[analysis]
epsilon_sweep = 1e-1 1e-2 1e-3
"""


def test_c07_eps_independence():
    def body():
        results = sweep(parse_config(P3_EPS_SWEEP), "eps")
        norms = np.array([r.payload["norms"]["du_qgamma"] for r in results])
        spread = (norms.max() - norms.min()) / norms.min()
        assert spread <= 0.05, f"spread {spread:.4f}"

    _check("07 controlled norms stable as eps -> 0", body)


# the same problem at amplitude 1, over rising source scales
P3_SCALES = """
[problem]
p = 3
gamma = 3
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 1
modes = 1 1

[grid]
extents = 1 1
cells = 48 48

[analysis]
beta = 6
scales = 4 8 16 32 64
"""


def test_c08_sublinear_scaling():
    def body():
        fit = scaling_fit(parse_config(P3_SCALES))
        assert not fit.failures
        assert fit.slope <= 0.65, f"slope {fit.slope:.4f}"

    _check("08 gradient norm grows sublinearly in the data", body)


def test_c09_levelset_dichotomy(sing_problem, sing_solution_96):
    def body():
        ks = [1.0, 1.15, 1.3, 1.45, 1.6, 1.75, 1.9, 2.2, 2.5]
        table = build_exponent_table(2, 2, 6, 3, sobolev_dim=3)
        assert table.thm2.r == F(8, 3)
        scan = levelset_scan(prepare_bundle(sing_problem, sing_solution_96), table, ks)
        z = np.asarray(scan.Z)
        assert np.all(np.diff(z) <= 1e-15)
        assert z[-1] == 0.0
        assert all(scan.chebyshev_ok)
        half = len(ks) // 2
        omega = np.asarray(scan.omega)
        assert np.all(np.diff(omega[half:]) <= 1e-15)
        assert scan.small_branch_ok

    _check("09 superlevel masses collapse along the small branch", body)


def test_c10_maximal_regularity_norm(sing_solution_48, sing_solution_96):
    def maxreg(u):
        magnitude = np.sqrt(np.sum(gradient(u.grid, u.values) ** 2, axis=0))
        return maximal_regularity_norm(ScalarField(u.grid, magnitude), q=3.0, gamma=6.0)

    def body():
        coarse, fine = maxreg(sing_solution_48), maxreg(sing_solution_96)
        assert coarse.relative_agreement <= 1e-12
        assert fine.relative_agreement <= 1e-12
        change = abs(fine.via_power_field - coarse.via_power_field) / coarse.via_power_field
        assert change <= 0.10, f"change {change:.4f}"

    _check("10 maximal-regularity norm stable under refinement", body)


def test_c11_proof_gap_is_first_class(p2_problem, p2_solution_64):
    def body():
        gap = theorem2_exponents(3, 2, 2, F(5, 2))
        assert isinstance(gap, ProofGap)
        assert gap.r == F(11, 6)
        # the same exponents on the planar p = 2, gamma = 2 run at Sobolev dimension 3
        table = build_exponent_table(2, 2, 2, F(5, 2), sobolev_dim=3)
        assert table.thm2 is None and table.proof_gap_r == gap.r
        with pytest.raises(RegimeError, match="proof-gap"):
            thm2_ledger(prepare_bundle(p2_problem, p2_solution_64), table, k=1.0)

    _check("11 proof-gap regime reported, never bluffed", body)
