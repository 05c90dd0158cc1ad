"""Differential-inequality ledgers: weak identity, both estimate chains,
level-set dichotomy, and the maximal-regularity norm; and the harness's
source-scale fit, whose slope the estimates predict."""

import dataclasses
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradlab.bernstein import (
    _dichotomy_roots,
    _full_gradient_pairing,
    _superlevel_table,
    levelset_scan,
    maximal_regularity_norm,
    prepare_bundle,
    thm1_ledger,
    thm2_ledger,
    weak_identity_check,
)
from gradlab.errors import (
    NonconvergenceError,
    ParameterError,
    RegimeError,
    UnconvergedInputError,
)
from gradlab.grid import (
    ScalarField,
    build_grid,
    dirichlet_form,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
)
from gradlab.harness import parse_config, scaling_fit
from gradlab.model import CosineProduct, ProblemSpec, Tabulated
from gradlab.model.exponents import build_exponent_table
from gradlab.solver import solve

# the fixtures' exponent tables; at Sobolev dimension 3, q = 3 at
# (p, gamma) = (2, 6) gives r = 8/3 and beta = 5
P2_TABLE = build_exponent_table(2, 2, 2, 3, beta=4)
P3_TABLE = build_exponent_table(2, 3, 3, 3, beta=6)
SING_TABLE = build_exponent_table(2, 2, 6, 3, beta=5, sobolev_dim=3)
SING3D_TABLE = build_exponent_table(3, 2, 6, 3, beta=5)
# Theorem 2 at Sobolev dimension 3 with p = 2, gamma = 2, q = 5/2: r = 11/6
PROOF_GAP_TABLE = build_exponent_table(2, 2, 2, "5/2", sobolev_dim=3)


def test_weak_identity_trivial_on_constant(box2d):
    """A constant solution has zero gradient flux, the test function
    vanishes identically, and the identity closes exactly."""
    lam, eps, gamma = 1.0, 1e-2, 2.0
    f = Tabulated(np.full((32, 32), lam * 5.0 + eps))
    prob = ProblemSpec.power_model(
        box2d, p=2.0, gamma=gamma, lam=lam, eps=eps, source=f
    )
    grid = build_grid(box2d, (32, 32))
    u = ScalarField(grid, np.full(grid.shape, 5.0))
    bundle = prepare_bundle(prob, u)
    row = weak_identity_check(bundle, beta=4.0)
    assert row.passed
    assert row.lhs == 0.0 and row.rhs == 0.0
    assert row.constants["relative_gap"] == 0.0
    assert thm1_ledger(bundle, P2_TABLE).all_pass


def test_weak_identity_gap_converges(p2_problem, box2d):
    gaps = []
    for n in (32, 64, 128):
        u, _ = solve(p2_problem, build_grid(box2d, (n, n)))
        row = weak_identity_check(prepare_bundle(p2_problem, u), beta=4.0)
        assert row.passed
        gaps.append(row.constants["relative_gap"])
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 0.9)


def test_face_pairing_of_the_ledgers_phi_is_the_solvers_flux():
    """Summation by parts over the solver's own flux: with the final
    evaluation's face coefficients, ``dirichlet_form(a_f, u, phi)`` for the
    ledgers' ``phi = -2 div(Du w^beta)`` is ``int (f - lam u - H(w)) phi +
    int R phi``.  So on README's field solved at 48^2 to ``tol = 1e-8`` the
    two sides differ by at most ``|R|_2 |phi|_2`` (Cauchy-Schwarz), and by
    ``int R phi`` itself up to rounding.  The rounding allowance is 64 ulps
    of ``int (|f| + |lam u| + |H(w)| + |div(a Du)|) |phi|``, the size of
    the terms both sides and ``R`` sum."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = parse_config(re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0])
    config = dataclasses.replace(config, solver=dataclasses.replace(config.solver, tol=1e-8))
    problem, grid = config.build_problem(), config.build_grid()
    u, report = solve(problem, grid, config.solver)
    bundle = prepare_bundle(problem, u, report)
    ev = bundle.ev
    phi, _ = _full_gradient_pairing(bundle, float(config.beta))
    lhs = dirichlet_form(grid, ev.face_a, u.values, phi)
    rhs = bundle.integral((bundle.f - problem.lam * u.values - ev.h_w) * phi)
    flux = divergence_flux(grid, ev.face_a, ev.faces)
    terms = (bundle.f, problem.lam * u.values, ev.h_w, flux)
    rounding = 64 * np.finfo(float).eps * bundle.integral(sum(map(np.abs, terms)) * np.abs(phi))
    phi_norm = np.sqrt(bundle.integral(phi**2))
    assert 0 < report.residual_norm <= 1e-8
    assert abs(lhs - rhs) <= report.residual_norm * phi_norm + rounding
    assert abs(lhs - rhs - bundle.integral(ev.residual * phi)) <= rounding


def test_full_gradient_ledger_smooth_p2(p2_problem, p2_solution_64):
    ledger = thm1_ledger(prepare_bundle(p2_problem, p2_solution_64), P2_TABLE)
    assert ledger.family == "full-gradient"
    assert ledger.all_pass, [r.lemma for r in ledger.rows if not r.passed]
    assert {r.lemma for r in ledger.rows} == {
        "diff1", "diff2", "diff3", "rhs", "Hphi", "corollary",
    }
    for row in ledger.rows:
        assert np.isfinite(row.slack)


def test_full_gradient_ledger_degenerate_p3(p3_problem, p3_solution_48):
    ledger = thm1_ledger(prepare_bundle(p3_problem, p3_solution_48), P3_TABLE)
    assert ledger.all_pass, [
        (r.lemma, r.slack, r.tol) for r in ledger.rows if not r.passed
    ]


def test_thm1_requires_moderate_weight(p2_problem, p2_solution_64):
    with pytest.raises(ParameterError):
        thm1_ledger(
            prepare_bundle(p2_problem, p2_solution_64),
            build_exponent_table(2, 2, 2, 3, beta="3/2"),
        )


def test_bundle_rejects_non_solution(p2_problem, box2d):
    grid = build_grid(box2d, (32, 32))
    x, y = grid.centers()
    fake = ScalarField(grid, np.cos(np.pi * x) * np.cos(np.pi * y))
    with pytest.raises(UnconvergedInputError):
        prepare_bundle(p2_problem, fake)


def test_superlevel_ledger_singular(sing_problem, sing_solution_48):
    ledger = thm2_ledger(prepare_bundle(sing_problem, sing_solution_48), SING_TABLE, k=1.0)
    assert ledger.family == "superlevel"
    assert {r.lemma for r in ledger.rows} == {"t2s1", "t2s2", "t2s4", "mainineq"}
    assert ledger.all_pass, [
        (r.lemma, r.slack, r.tol) for r in ledger.rows if not r.passed
    ]


def test_superlevel_ledger_stable_under_refinement(sing_problem, sing_solution_96):
    ledger = thm2_ledger(prepare_bundle(sing_problem, sing_solution_96), SING_TABLE, k=1.0)
    assert ledger.all_pass


def test_superlevel_ledger_true_3d(sing3d_problem, sing3d_solution):
    ledger = thm2_ledger(prepare_bundle(sing3d_problem, sing3d_solution), SING3D_TABLE, k=1.0)
    assert ledger.all_pass, [
        (r.lemma, r.slack, r.tol) for r in ledger.rows if not r.passed
    ]


def test_superlevel_empty_mask_passes(sing_problem, sing_solution_48):
    """Levels above the gradient range give zero on both sides everywhere."""
    ledger = thm2_ledger(prepare_bundle(sing_problem, sing_solution_48), SING_TABLE, k=5.0)
    assert ledger.all_pass


def test_superlevel_parameter_gates(
    sing_problem, sing_solution_48, p2_problem, p2_solution_64, sing3d_problem, sing3d_solution
):
    bundle = prepare_bundle(sing_problem, sing_solution_48)
    with pytest.raises(ParameterError):
        thm2_ledger(bundle, SING_TABLE, k=0.5)
    assert PROOF_GAP_TABLE.thm2 is None and PROOF_GAP_TABLE.proof_gap_r == Fraction(11, 6)
    with pytest.raises(RegimeError, match=r"proof-gap regime: r = 11/6"):
        thm2_ledger(prepare_bundle(p2_problem, p2_solution_64), PROOF_GAP_TABLE, k=1.0)
    # a table of another dimension, p or gamma than the bundle's is refused
    for table in (SING3D_TABLE, P2_TABLE):
        with pytest.raises(ParameterError, match="exponent table"):
            thm2_ledger(bundle, table, k=1.0)
    with pytest.raises(ParameterError, match="exponent table"):
        thm1_ledger(prepare_bundle(sing3d_problem, sing3d_solution), SING_TABLE)


def test_superlevel_rejects_singular_diffusion(box2d):
    """The chain needs a nondegenerate ellipticity floor; p < 2 is refused
    before any row is evaluated."""
    prob = ProblemSpec.power_model(
        box2d, p=1.5, gamma=2.0, lam=1.0, eps=1e-2,
        source=CosineProduct(amplitude=8.0, modes=(1, 1)),
    )
    u, report = solve(prob, build_grid(box2d, (16, 16)))
    assert report.converged
    table = build_exponent_table(2, "3/2", 2, 3)
    assert table.thm2 is None and table.proof_gap_r is None
    bundle = prepare_bundle(prob, u)
    with pytest.raises(RegimeError, match="has no superlevel block"):
        thm2_ledger(bundle, table, k=1.0)
    with pytest.raises(RegimeError, match="has no superlevel block"):
        levelset_scan(bundle, table, [1.0, 1.5, 2.0, 2.5])


def test_levelset_scan_chebyshev_levels(sing_problem, sing_solution_48):
    ks = [1.0, 1.5, 2.0, 2.5]
    scan = levelset_scan(prepare_bundle(sing_problem, sing_solution_48), SING_TABLE, ks)
    for i in range(3):  # k = 1.0, 1.5, 2.0
        assert scan.chebyshev_ok[i]
        assert scan.measures[i] <= scan.chebyshev_bound + 1e-14


def test_levelset_scan_validations(sing_problem, sing_solution_48, p2_problem, p2_solution_64):
    bundle = prepare_bundle(sing_problem, sing_solution_48)
    with pytest.raises(ParameterError):
        levelset_scan(bundle, SING_TABLE, [1, 2, 3])
    with pytest.raises(ParameterError):
        levelset_scan(bundle, SING_TABLE, [1.0, 2.0, 1.5, 3.0])
    with pytest.raises(ParameterError):
        levelset_scan(bundle, SING_TABLE, [0.5, 1.0, 1.5, 2.0])
    with pytest.raises(RegimeError, match="proof-gap"):
        levelset_scan(
            prepare_bundle(p2_problem, p2_solution_64), PROOF_GAP_TABLE, [1.0, 1.5, 2.0, 2.5]
        )


def test_levelset_scan_dichotomy(sing_problem, sing_solution_96):
    ks = [1.0, 1.15, 1.3, 1.45, 1.6, 1.75, 1.9, 2.2, 2.5]
    scan = levelset_scan(prepare_bundle(sing_problem, sing_solution_96), SING_TABLE, ks)
    z = np.asarray(scan.Z)
    assert np.all(np.diff(z) <= 1e-15)
    assert z[-1] == 0.0
    assert all(scan.chebyshev_ok)
    assert scan.small_branch_ok


def _magnitude(u):
    return ScalarField(u.grid, np.sqrt(np.sum(gradient(u.grid, u.values) ** 2, axis=0)))


def test_maximal_regularity_norm_routes_agree(sing_solution_48, sing_solution_96):
    for u in (sing_solution_48, sing_solution_96):
        norm = maximal_regularity_norm(_magnitude(u), q=3.0, gamma=6.0)
        assert norm.relative_agreement <= 1e-12
        assert norm.via_power_field > 0
    with pytest.raises(ParameterError):
        maximal_regularity_norm(_magnitude(sing_solution_48), q=0.5, gamma=6.0)


# the p3_problem fixture's problem as config text, for the source-scale fit
P3_SCALES = """
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
cells = {cells} {cells}

[analysis]
beta = 6
scales = {scales}
"""


def _p3_scales(scales, cells=16, extra=""):
    return parse_config(P3_SCALES.format(cells=cells, scales=scales) + extra)


def test_scaling_fit_validations():
    with pytest.raises(ParameterError):
        scaling_fit(_p3_scales("1 2 4 8"))
    with pytest.raises(ParameterError):
        scaling_fit(_p3_scales("1 2 4 4 8"))


@pytest.mark.parametrize("scales", ["-2 -1 0 1 2", "1 2 nan 8 16"])
def test_scaling_fit_refuses_a_nonpositive_scale_before_it_solves(monkeypatch, scales):
    """The fit takes logs of each scale's norms, so a scale that is not
    positive (nan included) is refused before the first solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every scale was checked")

    monkeypatch.setattr("gradlab.harness.runner.solve", no_solve)
    with pytest.raises(ParameterError):
        scaling_fit(_p3_scales(scales))


@pytest.mark.parametrize(
    "error, expected",
    [(NonconvergenceError("stalled"), ParameterError), (TypeError("bug"), TypeError)],
)
def test_scaling_fit_records_only_package_errors(monkeypatch, error, expected):
    """A failed solve is a recorded data point (here all fail, so too few
    remain to fit); a bug in the solve propagates."""

    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr("gradlab.harness.runner.solve", failing_solve)
    with pytest.raises(expected):
        scaling_fit(_p3_scales("1 2 4 8 16"))


def test_scaling_fit_chains_from_the_last_converged_scale(monkeypatch):
    """Only the first scale is cold; a failed scale is recorded and the next
    one starts from the last scale that converged."""
    solved = {}  # id of each returned field -> its scale
    calls = []  # (scale, scale of the initial field, stages solved)

    def fake_solve(problem, grid, options=None, initial=None, source=None):
        scale = problem.source.factor
        start = solved[id(initial)] if initial is not None else None
        if scale == 4.0:
            calls.append((scale, start, None))
            raise NonconvergenceError("stalled")
        u, report = solve(problem, grid, options, initial=initial, source=source)
        solved[id(u)] = scale
        calls.append((scale, start, len(report.stages)))
        return u, report

    monkeypatch.setattr("gradlab.harness.runner.solve", fake_solve)
    # 64^2 nests onto 32^2; at 1e-8 no scale meets its rounding floor
    fit = scaling_fit(_p3_scales("1 2 4 8 16", cells=64, extra="\n[solver]\ntol = 1e-8\n"))
    assert calls[0][:2] == (1.0, None) and calls[0][2] > 1
    assert calls[1:] == [(2.0, 1.0, 1), (4.0, 2.0, None), (8.0, 2.0, 1), (16.0, 8.0, 1)]
    assert fit.scales == [1.0, 2.0, 8.0, 16.0]
    assert [f["scale"] for f in fit.failures] == [4.0]


def test_ledger_tolerances_follow_the_relation(sing_problem, sing_solution_48):
    """Every row's tolerance is sqrt(h)|lhs| for an inequality and
    h max(|lhs|, |rhs|) for an identity or a fitted row."""
    bundle = prepare_bundle(sing_problem, sing_solution_48)
    h = bundle.grid.max_spacing
    rows = [weak_identity_check(bundle, beta=5.0)]
    rows += thm1_ledger(bundle, SING_TABLE).rows
    rows += thm2_ledger(bundle, SING_TABLE, k=1.0).rows
    assert {r.relation for r in rows} == {"ge", "le", "identity", "fitted"}
    for r in rows:
        if r.relation in ("ge", "le"):
            expected = np.sqrt(h) * abs(r.lhs)
        else:
            expected = h * max(abs(r.lhs), abs(r.rhs))
        assert r.h == h
        assert r.tol == expected, r.lemma
        assert r.to_dict()["tol"] == expected


# lhs and rhs of every thm1 (beta 5) and thm2 (k 1, beta 5) row, Sobolev
# dimension 3, on the manufactured 32^2 field of the test below
_GOLDEN_ROWS = {
    (2.0, 6.0): {
        "diff1": (41744583.359769, 42733009.45413723),
        "diff2": (7961404.530066462, -99847223666.75037),
        "diff3": (34771604.92407077, 34771604.92407077),
        "rhs": (161129476.8882457, 34662477452509.207),
        "Hphi": (-118205560.91299874, 1222967625788126.5),
        "corollary": (33210886810.68105, 1257763126579508.2),
        "t2s1": (2306.183747480668, 2237.859324356928),
        "t2s2": (544.8488431735631, -9168957.50523607),
        "t2s4": (2363.73472189739, 5.1987499926652945e59),
        "mainineq": (1.1313007149408213e-52, 64854249.25346256),
    },
    (3.0, 3.0): {
        "diff1": (225168833.27955025, 137773155.80660495),
        "diff2": (26502356.06691938, -3430227.1572682876),
        "diff3": (111270799.73968557, 111270799.73968557),
        "rhs": (232744263.5036099, 13853703663.126616),
        "Hphi": (-1520491.5551678427, 5220271628.468768),
        "corollary": (116137567.55920213, 19082272286.57217),
        "t2s1": (11602.513433132064, 6784.304725072603),
        "t2s2": (1702.9528179007496, -2030.3043074349148),
        "t2s4": (11895.589183439206, 2.482781241830869e18),
        "mainineq": (7.369259193586051e-14, 198252.39173181544),
    },
}
_GOLDEN_CONSTANT_KEYS = {
    "diff1": {"beta", "zeta1", "zeta2"},
    "diff2": {"c1", "c_reg", "contraction", "zeta1"},
    "diff3": {"sobolev_dim", "sobolev_quotient", "zeta3"},
    "rhs": {"c2", "delta1"},
    "Hphi": {"c3", "c4", "c_grad"},
    "corollary": {"c3", "c4", "c5", "c6", "kappa", "zeta3"},
    "t2s1": {"beta", "env_lower", "k"},
    "t2s2": {"c10", "c11", "stretch"},
    "t2s4": {"c14", "c_data", "c_grad", "delta", "eta"},
    "mainineq": {
        "c10", "c11", "c14", "c15", "c_data", "delta", "k", "r",
        "sobolev_dim", "sobolev_quotient", "zeta",
    },
}


@pytest.mark.parametrize("p,gamma", sorted(_GOLDEN_ROWS), ids=["p2-g6", "p3-g3"])
def test_ledger_rows_on_a_manufactured_field(box2d, manufacture_source, p, gamma):
    """Every row's two sides, pinned on an exact discrete solution.

    The rows pass by wide slack, so a verdict would not show a term wired to
    the wrong integral; the pinned sides do.  No Newton run enters: the source
    is manufactured so that ``u`` solves the discrete problem to rounding.
    """
    grid = build_grid(box2d, (32, 32))
    x, y = grid.centers()
    u = ScalarField(grid, 0.6 * np.cos(np.pi * x) * np.cos(2 * np.pi * y) + 0.3 * x**2)

    def problem(source):
        return ProblemSpec.power_model(
            box2d, p=p, gamma=gamma, lam=1.0, eps=1e-2, source=source
        )

    prob = problem(manufacture_source(problem(Tabulated(np.zeros(grid.shape))), u))
    bundle = prepare_bundle(prob, u)
    assert bundle.v.max() > 3.7
    # at Sobolev dimension 3, q = 3 gives beta = 5 at (2, 6) and q = 7 at (3, 3)
    table = build_exponent_table(2, p, gamma, {2.0: 3, 3.0: 7}[p], beta=5, sobolev_dim=3)
    assert table.thm2.beta == 5
    rows = thm1_ledger(bundle, table).rows
    rows += thm2_ledger(bundle, table, k=1.0).rows
    golden = _GOLDEN_ROWS[(p, gamma)]
    assert [r.lemma for r in rows] == list(golden)
    for r in rows:
        lhs, rhs = golden[r.lemma]
        assert r.lhs == pytest.approx(lhs, rel=1e-12), r.lemma
        assert r.rhs == pytest.approx(rhs, rel=1e-12), r.lemma
        assert set(r.constants) - {"zeta4"} == _GOLDEN_CONSTANT_KEYS[r.lemma], r.lemma


def _full_array_superlevel_table(bundle, k, beta, ns):
    """The superlevel integrals as the whole-grid formulas state them: every
    power of ``v_k`` is taken over all cells, zeros included, and masked."""
    p, gam, lam = bundle.problem.p, bundle.problem.gamma, bundle.problem.lam
    r = 2.0 + (beta - p + 1.0) / gam
    eta = 2.0 * gam - p + 1.0
    g = bundle.grid
    v, hess2, u, f = bundle.v, bundle.hess2, bundle.u.values, bundle.f
    mask = v > k
    vk = np.where(mask, v - k, 0.0)
    dv = gradient(g, v)
    dv2 = np.where(mask, np.sum(dv**2, axis=0), 0.0)

    def masked(values):
        return bundle.integral(np.where(mask, values, 0.0))

    coeffs = []
    for d in range(g.ndim):
        v_face = face_average(v, d)
        coeffs.append(np.maximum(v_face - k, 0.0) ** beta / v_face)
    phi = divergence_flux(g, coeffs, face_normal_differences(g, u))
    dphi = gradient(g, phi)
    dgk = gradient(g, vk ** ((p + beta - 1.0) / 2.0))
    sob_power = (p + beta - 1.0) * ns / (ns - 2.0)
    return {
        "pairing": bundle.integral(bundle.a_w * np.sum(bundle.ev.du * dphi, axis=0)),
        "L2": masked(bundle.a_w * hess2 * vk**beta / v),
        "T1": masked(v ** (p - 2.0) * vk ** (beta - 1.0) * dv2),
        "T2": masked(v**eta * vk**beta),
        "T3": masked(hess2 * v ** (p - 3.0) * vk**beta),
        "T4": bundle.integral(vk ** (p + beta - 3.0) * dv2),
        "P": masked(np.sum(bundle.ev.du**2, axis=0) * vk**beta / v),
        "Q": masked((lam * u - f) ** 2 * vk**beta * v ** (1.0 - p)),
        "U": masked(u**2 * vk**beta * v ** (1.0 - p)),
        "Gk": bundle.integral(vk ** (beta + eta)),
        "Fk": masked(f**2 * vk ** (beta + 1.0 - p)),
        "f_r": masked(np.abs(f) ** r),
        "Zk": bundle.integral(vk ** (r * gam)),
        "level_mass": bundle.integral(vk ** (p + beta - 1.0)),
        "h_phi": bundle.integral(bundle.ev.h_w * phi),
        "u_phi": bundle.integral(u * phi),
        "f_phi": bundle.integral(f * phi),
        "S3": bundle.integral(vk**sob_power) ** ((ns - 2.0) / ns),
        "grad_mass": bundle.integral(np.sum(dgk**2, axis=0)),
    }


def test_support_sums_equal_whole_grid_sums(sing_problem, sing_solution_48):
    """The superlevel integrals and the scan's masses, evaluated on the
    support ``v > k`` and scattered, equal the whole-grid sums bit for bit:
    on the full support, on an empty one, and at a level that equals one
    cell's ``v`` (that cell is outside the support).

    Outside the support every integrand is a power of ``v_k = 0`` with a
    positive exponent, because ``beta > p - 1`` and ``p >= 2`` (the smallest
    is ``beta - 1 > p - 2 >= 0``) and ``r gamma > 2 gamma > 0``; so the
    zeros scattered there are exactly ``0**e``, which need not be formed.
    """
    bundle = prepare_bundle(sing_problem, sing_solution_48)
    beta, ns = 5.0, 3
    assert (SING_TABLE.thm2.beta, SING_TABLE.sobolev_dim) == (beta, ns)
    v = np.sort(bundle.v.ravel())
    assert v[0] < 1.0 < v[-1]
    k_cell = float(v[v > 1.0][len(v[v > 1.0]) // 2])  # one cell's v, above 1
    levels = [0.5 * v[0], 1.0, k_cell, v[-1] + 1.0]  # full, partial, at a cell, empty
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables = [_superlevel_table(bundle, SING_TABLE, k) for k in levels]
        ledgers = [thm2_ledger(bundle, SING_TABLE, k) for k in levels[1:]]
        # the scan starts at k = 1, so lift v above it for a full support
        lifted = dataclasses.replace(bundle, v=bundle.v + 1.0)
        scans = [
            (b, levelset_scan(b, SING_TABLE, levels[1:] + [v[-1] + 2.0]))
            for b in (bundle, lifted)
        ]
    for k, table in zip(levels, tables):
        assert table == _full_array_superlevel_table(bundle, k, beta, ns), k
    assert all(x == 0.0 for x in tables[-1].values())
    for table, ledger in zip(tables[1:], ledgers):
        assert ledger.rows[0].lemma == "t2s1"
        assert ledger.rows[0].lhs == -table["pairing"]
    for b, scan in scans:
        vol = b.grid.cell_volume
        for i, k in enumerate(scan.ks):
            vk = np.maximum(b.v - k, 0.0)
            assert scan.Z[i] == float(np.sum(vk ** (8 / 3 * 6.0)) * vol)
            assert scan.measures[i] == float(np.count_nonzero(b.v > k) * vol)
    assert scans[1][1].measures[0] == 1.0  # the whole unit square
    assert scans[0][1].Z[-1] == 0.0 and scans[0][1].measures[-1] == 0.0


def _bisected_roots(omega, c, s):
    """The dichotomy roots with all 200 halvings run, as the scan defines them."""
    if c <= 0:
        return None
    z_star = (s / c) ** (1.0 / (1.0 - s))
    if z_star**s - c * z_star - omega <= 0:
        return None

    def g(z):
        return z**s - c * z - omega

    def bisect(lo, hi, rising):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (g(mid) if rising else -g(mid)) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    hi = z_star
    while g(hi) > 0:
        hi *= 2.0
        if hi > 1e30:
            return None
    return (bisect(0.0, z_star, True), bisect(z_star, hi, False))


@pytest.mark.parametrize("s", [1 / 3, 0.5, 0.8])
@pytest.mark.parametrize("c", [1e-3, 0.3, 5.0])
def test_dichotomy_roots_stop_where_halving_stops_changing(s, c):
    """Stopping once the midpoint rounds to an end returns the float that
    200 halvings return, down to a small root near 1e-20 z_star, which
    takes more halvings than the 52 bits of a mantissa."""
    z_star = (s / c) ** (1.0 / (1.0 - s))
    peak = z_star**s - c * z_star
    # the small root sits near omega^(1/s): choose omega to place it
    omegas = [(t * z_star) ** s for t in (1e-20, 1e-12, 1e-6, 1e-3, 0.1)]
    omegas += [0.0, 0.5 * peak, peak * (1.0 - 1e-12), peak, 2.0 * peak]
    for omega in omegas:
        roots = _dichotomy_roots(omega, c, s)
        assert roots == _bisected_roots(omega, c, s), omega
    low, _ = _dichotomy_roots((1e-20 * z_star) ** s, c, s)
    assert 0.0 < low < 1e-19 * z_star
    assert _dichotomy_roots(0.1, 0.0, s) is None
