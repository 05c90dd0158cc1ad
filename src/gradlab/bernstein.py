"""Integral ledgers for the gradient estimates.

Each ledger row states one inequality (or identity) from the chain of
integral estimates behind the gradient bounds, evaluated on a discrete
solution by midpoint quadrature with centered derivatives.  A family computes
its integrals once, into a table keyed by name; a row is then a relation
between two linear combinations ``sum c_i I_i`` of named integrals, each side
summed left to right.  Rows carry their own direction, the constants that
enter them, and a resolution-aware tolerance

    tol(h) = h^(1/2) * |LHS|        (inequalities)
    tol(h) = h * max(|LHS|, |RHS|)  (identities)

with slack normalized so that a row passes exactly when ``slack >= -tol``.
The inequalities hold in the continuum with genuine positive slack; the
tolerance only absorbs the quadrature and truncation error of evaluating
them on a finite grid, so a failing row is evidence, not noise.

Two families of rows exist.  The full-gradient family tests the solution
against powers of ``w = |Du|^2 + eps`` (rows ``diff1`` through ``corollary``
plus the weak identity); the superlevel family tests powers of the truncated
gradient modulus ``v_k = (sqrt(w) - k)^+`` (rows ``t2s1``, ``t2s2``,
``t2s4``, ``mainineq``).  Sobolev constants are never assumed: they are
fitted on the evaluated solution and reported, which makes the rows that use
them combined checks of everything else.

A :class:`SolutionBundle` holds what two or more ledgers share, each field,
power and test function computed once; a field only one ledger reads is
formed in that ledger.  Superlevel integrands are evaluated only on the
support ``v > k`` and scattered into zeroed cell fields, so every sum has
the bits of the whole-grid sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import ParameterError, RegimeError, UnconvergedInputError
from .grid import (
    ScalarField,
    discrete_l2,
    divergence_flux,
    face_average,
    gradient,
    lp_norm,
    second_derivatives,
)
from .model.exponents import ExponentTable, Thm2Exponents
from .model.families import StructureConstants, check_structure_conditions
from .model.problem import ProblemSpec
from .model.sources import sample_source
from .solver import Evaluation, SolveReport, evaluate

RESIDUAL_GATE = 1e-6  # fields with a larger discrete residual are rejected


# ---------------------------------------------------------------------------
# ledger plumbing
# ---------------------------------------------------------------------------


@dataclass
class LedgerRow:
    lemma: str
    relation: str  # "ge" | "le" | "identity" | "fitted"
    lhs: float
    rhs: float
    h: float  # grid spacing the row was evaluated at
    constants: dict = field(default_factory=dict)

    @property
    def tol(self) -> float:
        """``sqrt(h) |lhs|`` for inequalities, ``h max(|lhs|, |rhs|)`` otherwise."""
        if self.relation in ("ge", "le"):
            return float(np.sqrt(self.h) * abs(self.lhs))
        return float(self.h * max(abs(self.lhs), abs(self.rhs)))

    @property
    def slack(self) -> float:
        if self.relation == "ge":
            return self.lhs - self.rhs
        if self.relation == "le":
            return self.rhs - self.lhs
        return -abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.slack) and self.slack >= -self.tol)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "passed": self.passed,
            "constants": {k: float(v) for k, v in self.constants.items()},
        }


@dataclass
class BernsteinLedger:
    rows: list
    beta: float
    h: float
    family: str  # "full-gradient" | "superlevel"

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "beta": self.beta,
            "h": self.h,
            "all_pass": self.all_pass,
            "rows": [r.to_dict() for r in self.rows],
        }


def _rows(table: dict, entries: list, h: float) -> list:
    """``LedgerRow``s from ``(lemma, relation, lhs, rhs, constants)`` entries.

    Each side is a list of ``(coefficient, name)`` terms over ``table``,
    summed left to right.
    """

    def side(terms):
        return reduce(lambda acc, term: acc + term, (c * table[n] for c, n in terms))

    return [
        LedgerRow(lemma, relation, side(lhs), side(rhs), h, constants)
        for lemma, relation, lhs, rhs, constants in entries
    ]


# ---------------------------------------------------------------------------
# solution bundle
# ---------------------------------------------------------------------------


@dataclass
class SolutionBundle:
    """The fields two or more ledgers read, computed once from a verified
    solution; what more than one ledger builds from them is built on first
    use into ``memo``."""

    problem: ProblemSpec
    u: ScalarField
    f: np.ndarray
    ev: Evaluation  # the solver's evaluation of u: Du, |Du|^2, w, H(w), faces
    v: np.ndarray
    hess2: np.ndarray
    a_w: np.ndarray
    structure: StructureConstants  # the coefficient's, in closed form
    vol: float  # the cell volume
    memo: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self):
        return self.u.grid

    def integral(self, values: np.ndarray) -> float:
        return float(values.sum() * self.vol)

    def once(self, key, make):
        if key not in self.memo:
            self.memo[key] = make()
        return self.memo[key]


def prepare_bundle(
    problem: ProblemSpec, u: ScalarField, report: SolveReport | None = None
) -> SolutionBundle:
    """Precompute the pointwise fields and constants the ledger rows share.

    Rejects fields that do not actually solve the discrete problem: the rows
    read the equation through the data ``f - lam u``, so a large residual
    would silently change what is being checked.  The ``report`` of the
    solve that returned ``u`` hands over its final :class:`Evaluation`,
    source and residual norm; without one, :func:`evaluate` forms both here.
    """
    if report is None:
        f = sample_source(problem.source, u.grid)
        ev = evaluate(problem, u, f)
        res_norm = discrete_l2(u.grid, ev.residual)
    else:
        f, ev, res_norm = report.source, report.evaluation, report.residual_norm
    if res_norm > RESIDUAL_GATE:
        raise UnconvergedInputError(
            f"field has discrete residual {res_norm:.3e} "
            f"(gate {RESIDUAL_GATE:.1e}); solve before checking"
        )
    w = ev.w
    hess2 = second_derivatives(u.grid, u.values)
    return SolutionBundle(
        problem=problem,
        u=u,
        f=f.values,
        ev=ev,
        v=np.sqrt(w),
        hess2=hess2,
        a_w=np.asarray(problem.coefficient.a(w), dtype=float),
        structure=check_structure_conditions(problem.coefficient),
        vol=u.grid.cell_volume,
    )


def _on_support(shape: tuple, on: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A zeroed array of ``shape`` holding ``values`` at the flat indices ``on``."""
    full = np.zeros(shape)
    full.reshape(-1)[on] = values
    return full


def _power_of(base: np.ndarray):
    """``e -> base**e``, reused while ``e`` repeats: list integrals that share one together."""
    return lru_cache(maxsize=1)(lambda e: base**e)


def _full_gradient_pairing(bundle: SolutionBundle, beta: float) -> tuple:
    """``(phi, pairing)`` for ``phi = -2 div(Du w^beta)`` in flux form, once per
    bundle and ``beta``: the weak identity and the full-gradient rows share it."""

    def make():
        coeffs = [wf**beta for wf in bundle.ev.face_w]
        phi = -2.0 * divergence_flux(bundle.grid, coeffs, bundle.ev.faces)
        del coeffs  # freed before the pairing's temporaries
        return phi, _pairing(bundle, phi)

    return bundle.once(("phi", beta), make)


def _pairing(bundle: SolutionBundle, phi: np.ndarray) -> float:
    """Midpoint quadrature of ``a(w) Du . Dphi`` with centered gradients."""
    dphi = gradient(bundle.grid, phi)
    integrand = bundle.a_w * np.sum(bundle.ev.du * dphi, axis=0)
    return bundle.integral(integrand)


def _check_table(bundle: SolutionBundle, table: ExponentTable) -> None:
    """Refuse an exponent table built for another dimension, p or gamma."""
    ours = (bundle.grid.ndim, bundle.problem.p, bundle.problem.gamma)
    if (table.N, float(table.p), float(table.gamma)) != ours:
        raise ParameterError(f"exponent table is not of the bundle's (N, p, gamma) = {ours}")


def _superlevel_block(bundle: SolutionBundle, table: ExponentTable) -> Thm2Exponents:
    """Theorem 2's block of ``table``; a table without one is a RegimeError
    that names the proof-gap r when the table has one."""
    _check_table(bundle, table)
    if table.thm2 is None:
        raise RegimeError(f"no superlevel rows: {table.thm2_refusal}")
    return table.thm2


# ---------------------------------------------------------------------------
# weak identity
# ---------------------------------------------------------------------------


def weak_identity_check(bundle: SolutionBundle, beta: float) -> LedgerRow:
    """Variational identity tested with ``phi = -2 div(Du w^beta)``.

    Both sides are evaluated by midpoint quadrature with centered gradients.
    The discrete equation pairs with ``phi`` on the faces instead: summation
    by parts over the solver's flux makes ``sum_f a(w_f) (D_f u)(D_f phi)
    vol`` equal the rhs up to ``int R phi``, ``R`` the residual.  So the gap
    is the difference between the centered quadrature of the energy pairing
    and that face pairing, not the solver residual.  On a smooth source it
    closes at first order or better.  Near a singular source ``Dphi``
    carries third derivatives of u and it need not: on the README config at
    ``tol = 1e-8`` the gap is 1.68e4, 1.35e4, 7.86e3 and 3.20e3 from 48^2 to
    384^2 (observed orders 0.31, 0.78 and 1.30), while the face pairing's
    gap stays below 3e-5.
    """
    if beta < 0:
        raise ParameterError("test power beta must be nonnegative")
    phi, lhs = _full_gradient_pairing(bundle, beta)
    rhs = bundle.integral(
        (bundle.f - bundle.problem.lam * bundle.u.values - bundle.ev.h_w) * phi
    )
    h = bundle.grid.max_spacing
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return LedgerRow(
        lemma="weak_identity",
        relation="identity",
        lhs=lhs,
        rhs=rhs,
        h=h,
        constants={"beta": beta, "relative_gap": abs(lhs - rhs) / scale},
    )


# ---------------------------------------------------------------------------
# full-gradient rows
# ---------------------------------------------------------------------------


def thm1_ledger(bundle: SolutionBundle, table: ExponentTable) -> BernsteinLedger:
    """Evaluate the full-gradient estimate chain at the test power ``beta``
    of the run's exponent table, which also gives Theorem 1's ``eta`` and
    the Sobolev dimension.

    Row map (all integrals midpoint, all gradients centered):

    diff1      energy pairing dominates Hessian and gradient-of-w terms
    diff2      equation converts Hessian mass into w^gamma minus data
    diff3      gradient-of-w term against the Sobolev norm (fitted constant)
    rhs        data term split by Young against the Hessian term
    Hphi       Hamiltonian term split by Young against the Hessian term
    corollary  the combination of the above, Hessian terms absorbed
    """
    _check_table(bundle, table)
    thm1 = table.thm1
    if thm1 is None or thm1.beta < 2:
        raise ParameterError("full-gradient rows need a test power beta >= 2")
    beta, ns = float(thm1.beta), table.sobolev_dim
    problem = bundle.problem
    g = bundle.grid
    ndim = g.ndim
    p = problem.p
    h = g.max_spacing
    structure = bundle.structure
    c_reg = problem.hamiltonian.lower_growth_constant
    c_grad = problem.hamiltonian.gradient_growth_constant

    # a is the clean power, so both envelopes are 1 and drop out
    margin = structure.ellipticity_margin
    zeta1 = 2.0 * min(1.0, margin)
    zeta2 = min(1.0, margin)
    contraction = 1.0 / (np.sqrt(ndim) + abs(structure.ratio))
    c1 = zeta1 * contraction**2 / 2.0
    delta1 = zeta1 / 4.0
    c2 = (4.0 * beta + 2.0 * np.sqrt(ndim)) ** 2 / 4.0
    kappa = zeta1 / 2.0 - delta1  # zeta1 / 4 > 0, as p > 1
    c4 = kappa / 2.0
    c3 = c_grad**2 / c4
    c5 = c1 * c_reg**2 / 8.0
    c6 = 2.0 * c1 + c2 / delta1

    w, hess2 = bundle.ev.w, bundle.hess2
    dw2 = np.sum(gradient(g, w) ** 2, axis=0)  # |Dw|^2
    data = bundle.f - problem.lam * bundle.u.values
    phi, pairing = _full_gradient_pairing(bundle, beta)
    w_pow = _power_of(w)  # at p = 2, A, D and F all take w^beta
    integrals = {
        "pairing": pairing,
        "A": bundle.integral(bundle.a_w * hess2 * w_pow(beta)),
        "D": bundle.integral(hess2 * w_pow(beta + (p - 2.0) / 2.0)),
        "F": bundle.integral(data**2 * w_pow(beta + (2.0 - p) / 2.0)),
        "B": bundle.integral(dw2 * w_pow(beta - 1.0 + (p - 2.0) / 2.0)),
        "G": bundle.integral(w_pow(beta + problem.gamma + (2.0 - p) / 2.0)),
        "data_phi": bundle.integral(data * phi),
        "h_phi": bundle.integral(bundle.ev.h_w * phi),
        # squared L^(2 ns/(ns - 2)) norm of w^((beta + p/2)/2), from the
        # integral of w^eta at Theorem 1's eta
        "S1": bundle.integral(w_pow(float(thm1.eta))) ** ((ns - 2.0) / ns),
    }
    # the Sobolev row fits its constant, so it has zero slack by construction
    S1 = integrals["S1"]
    zeta3 = beta * zeta2 * integrals["B"] / S1 if S1 > 0 else 0.0
    embed = zeta3 * (beta + p / 2.0) ** 2 / (4.0 * beta * zeta2) if zeta2 > 0 else 0.0

    entries = [
        ("diff1", "ge", [(1.0, "pairing")], [(zeta1, "A"), (beta * zeta2, "B")],
         {"zeta1": zeta1, "zeta2": zeta2, "beta": beta}),
        ("diff2", "ge", [(zeta1, "A")],
         [(zeta1 / 2.0, "D"), (c5, "G"), (-2.0 * c1, "F")],
         {"zeta1": zeta1, "c1": c1, "contraction": contraction, "c_reg": c_reg}),
        ("diff3", "fitted", [(beta * zeta2, "B")], [(zeta3, "S1")],
         {"zeta3": zeta3, "sobolev_quotient": embed, "sobolev_dim": ns}),
        ("rhs", "le", [(1.0, "data_phi")], [(delta1, "D"), (c2 / delta1, "F")],
         {"delta1": delta1, "c2": c2}),
        ("Hphi", "le", [(-1.0, "h_phi")], [(c3, "G"), (c4, "D")],
         {"c3": c3, "c4": c4, "c_grad": c_grad}),
        ("corollary", "le", [(zeta3, "S1"), (c5, "G"), (kappa - c4, "D")],
         [(c3, "G"), (c6, "F")],
         {"zeta3": zeta3, "c5": c5, "c6": c6, "kappa": kappa, "c3": c3, "c4": c4}),
    ]
    rows = _rows(integrals, entries, h)
    return BernsteinLedger(rows=rows, beta=beta, h=h, family="full-gradient")


# ---------------------------------------------------------------------------
# superlevel rows
# ---------------------------------------------------------------------------


def _young_tail_constant(delta: float, eta: float, c_grad: float) -> float:
    """Tail constant of the two-step Young split of the Hamiltonian term."""
    eta_conj = eta / (eta - 1.0)
    return (c_grad**2 / (4.0 * delta)) ** eta * (delta * eta_conj) ** (-(eta - 1.0)) / eta


def _superlevel_test_function(bundle: SolutionBundle, beta: float, k: float) -> np.ndarray:
    """phi = div(Du v_k^beta / v) in flux form, each face coefficient evaluated
    on the support ``v > k`` only (``0**beta = 0`` off it)."""
    coeffs = []
    for d in range(bundle.grid.ndim):
        v_face = face_average(bundle.v, d)
        on = np.flatnonzero(v_face > k)
        v_on = v_face.reshape(-1).take(on)
        coeffs.append(_on_support(v_face.shape, on, (v_on - k) ** beta / v_on))
    return divergence_flux(bundle.grid, coeffs, bundle.ev.faces)


def _superlevel_table(bundle: SolutionBundle, table: ExponentTable, k: float) -> dict:
    """The superlevel rows' integrals at level ``k``, keyed by name, at the
    exponents of ``table``'s superlevel block and its Sobolev dimension.

    Each integrand is evaluated on the support ``v > k`` only and scattered
    into a zeroed cell field, whose full sum keeps the bits of a whole-grid
    sum.  Every power of ``v_k`` has a positive exponent (``beta > p - 1``,
    ``p >= 2``, ``r > 2``), so the zeros are ``0**e``, never formed.
    """
    p, lam = bundle.problem.p, bundle.problem.lam
    thm2, ns = table.thm2, table.sobolev_dim
    beta, eta, r = float(thm2.beta), float(thm2.eta), float(thm2.r)
    shape = bundle.v.shape
    on = np.flatnonzero(bundle.v > k)

    def at(values):
        return values.reshape(-1).take(on)

    def total(values):
        return bundle.integral(_on_support(shape, on, values))

    # the full-grid fields first, each freed before the next one
    phi = _superlevel_test_function(bundle, beta, k)
    integrals = {
        "pairing": _pairing(bundle, phi),
        "h_phi": bundle.integral(bundle.ev.h_w * phi),
        "u_phi": bundle.integral(bundle.u.values * phi),
        "f_phi": bundle.integral(bundle.f * phi),
    }
    del phi
    v = at(bundle.v)
    vk = v - k
    # gradient mass of v_k^((p + beta - 1)/2), for the fitted Sobolev quotient
    gk = _on_support(shape, on, vk ** ((p + beta - 1.0) / 2.0))
    integrals["grad_mass"] = bundle.integral(np.sum(gradient(bundle.grid, gk) ** 2, axis=0))
    del gk
    hess2, u, f = at(bundle.hess2), at(bundle.u.values), at(bundle.f)
    dv2 = at(np.sum(gradient(bundle.grid, bundle.v) ** 2, axis=0))  # |Dv|^2
    v_pow, vk_pow = _power_of(v), _power_of(vk)  # exponents coincide at p = 2
    vk_beta = vk**beta
    sob_power = (p + beta - 1.0) * ns / (ns - 2.0)
    # the Young tail and the interpolation meet at one power: beta + eta = r gamma
    rgamma_mass = total(vk_pow(float(thm2.r_gamma)))
    integrals |= {
        "L2": total(at(bundle.a_w) * hess2 * vk_beta / v),
        "P": total(at(bundle.ev.du2) * vk_beta / v),
        "T2": total(v_pow(eta) * vk_beta),
        "T3": total(hess2 * v_pow(p - 3.0) * vk_beta),
        "Q": total((lam * u - f) ** 2 * vk_beta * v_pow(1.0 - p)),
        "U": total(u**2 * vk_beta * v_pow(1.0 - p)),
        "T1": total(v_pow(p - 2.0) * vk_pow(beta - 1.0) * dv2),
        "T4": total(vk_pow(p + beta - 3.0) * dv2),
        "Fk": total(f**2 * vk_pow(beta + 1.0 - p)),
        "Gk": rgamma_mass,
        "Zk": rgamma_mass,
        "level_mass": total(vk_pow(p + beta - 1.0)),
        "f_r": total(np.abs(f) ** r),
        # squared L^(2 ns/(ns - 2)) norm of v_k^((p + beta - 1)/2)
        "S3": total(vk_pow(sob_power)) ** ((ns - 2.0) / ns),
    }
    return integrals


def thm2_ledger(bundle: SolutionBundle, table: ExponentTable, k: float) -> BernsteinLedger:
    """Evaluate the superlevel estimate chain at level ``k``.

    The exponents ``r``, ``beta``, the Young exponent ``eta`` and ``r gamma``
    are those of the superlevel block of the run's exponent table, at its
    Sobolev dimension.  A table without that block (``p < 2``, or the
    proof-gap regime ``r <= 2``, where the construction is empty) is refused.

    Row map:

    t2s1      energy pairing dominates masked Hessian and Dv_k terms
    t2s2      equation converts masked Hessian mass into v^(2 gamma) minus data
    t2s4      Hamiltonian, zero-order, and data terms split by Young
    mainineq  assembled superlevel bound with fitted Sobolev constant

    ``mainineq`` and ``t2s4`` are vacuous as their constants stand:
    ``c14`` is about 1.6e54 on the README config (1e58 on the 3D radial
    one).  So ``c15`` is about 6e-55 and ``mainineq``'s lhs about 1e-55
    against an rhs of about 6e4, and ``t2s4``'s rhs carries ``c14 Gk``, about
    1e51 times its lhs at every size from 48^2 to 384^2.  Both rows pass
    whatever the integrals are; their passes are no evidence.
    """
    thm2 = _superlevel_block(bundle, table)
    if k < 1.0:
        raise ParameterError("superlevel threshold k must be at least 1")
    p, lam = bundle.problem.p, bundle.problem.lam
    g = bundle.grid
    ndim = g.ndim
    h = g.max_spacing
    beta, eta = float(thm2.beta), float(thm2.eta)

    integrals = _superlevel_table(bundle, table, k)

    # a is the clean power, so both envelopes are 1 and drop out
    hamiltonian = bundle.problem.hamiltonian
    c_grad = hamiltonian.gradient_growth_constant
    stretch = np.sqrt(ndim) + abs(bundle.structure.ratio)
    c10 = hamiltonian.lower_growth_constant**2 / (8.0 * stretch**2)
    c11 = 2.0 / stretch**2
    delta = 0.5 * min(0.5, c10 / 2.0, (beta - 1.0) / 4.0)
    c14 = _young_tail_constant(delta, eta, c_grad)
    c_data = (ndim + (beta + 1.0) ** 2) / (4.0 * delta)
    # assembled bound: the Sobolev quotient of v_k^((p + beta - 1)/2) is fitted
    S3 = integrals["S3"]
    sob_quotient = integrals["grad_mass"] / S3 if S3 > 0 else 0.0
    survivor = (beta - 1.0) - 2.0 * delta
    zeta = survivor * 4.0 * sob_quotient / (p + beta - 1.0) ** 2
    norm = max(c11, c11 + c_data + c14, 1.0)
    c15 = min(zeta, 1.0) / norm

    entries = [
        ("t2s1", "ge", [(-1.0, "pairing")], [(1.0, "L2"), (beta - 1.0, "T1")],
         {"env_lower": 1.0, "beta": beta, "k": k}),
        ("t2s2", "ge", [(1.0, "L2")], [(c10, "T2"), (-c11, "Q")],
         {"c10": c10, "c11": c11, "stretch": stretch}),
        ("t2s4", "le", [(1.0, "h_phi"), (lam, "u_phi"), (-1.0, "f_phi")],
         [(-lam, "P"), (delta, "T1"), (delta, "T2"), (delta, "T3"), (delta, "T4"),
          (c14, "Gk"), (c_data, "Fk")],
         {"delta": delta, "c14": c14, "c_data": c_data, "eta": eta, "c_grad": c_grad}),
        ("mainineq", "le", [(c15, "S3"), (c15 * lam, "P")],
         [(1.0, "f_r"), (1.0, "Zk"), (lam**2, "U"), (1.0, "level_mass"), (1.0, "Gk")],
         {"c15": c15, "zeta": zeta, "delta": delta, "c10": c10, "c11": c11, "c14": c14,
          "c_data": c_data, "sobolev_quotient": sob_quotient,
          "sobolev_dim": table.sobolev_dim, "r": float(thm2.r), "k": k}),
    ]
    rows = _rows(integrals, entries, h)
    return BernsteinLedger(rows=rows, beta=beta, h=h, family="superlevel")


# ---------------------------------------------------------------------------
# level scan
# ---------------------------------------------------------------------------


@dataclass
class LevelScan:
    """Superlevel masses and the dichotomy fit across a ladder of levels."""

    ks: np.ndarray
    measures: np.ndarray
    Z: np.ndarray
    Y: np.ndarray  # Z^((ns-2)/ns)
    c_fit: float
    omega: np.ndarray  # clamped fit residuals per level
    omega_fit: np.ndarray  # nonincreasing envelope of the residuals
    roots: list  # per level: (Z_minus, Z_plus) or None
    sobolev_dim: int
    chebyshev_bound: float
    chebyshev_ok: np.ndarray
    small_branch_ok: bool

    def to_dict(self) -> dict:
        return {
            "ks": self.ks.tolist(),
            "measures": self.measures.tolist(),
            "Z": self.Z.tolist(),
            "Y": self.Y.tolist(),
            "c_fit": self.c_fit,
            "omega": self.omega.tolist(),
            "omega_fit": self.omega_fit.tolist(),
            "roots": [list(r) if r is not None else None for r in self.roots],
            "sobolev_dim": self.sobolev_dim,
            "chebyshev_bound": self.chebyshev_bound,
            "chebyshev_ok": [bool(b) for b in self.chebyshev_ok],
            "small_branch_ok": bool(self.small_branch_ok),
        }


def _dichotomy_roots(omega: float, c: float, s: float):
    """Roots of ``z**s = omega + c z`` bracketing the admissible window."""
    if c <= 0:
        return None
    z_star = (s / c) ** (1.0 / (1.0 - s))
    peak = z_star**s - c * z_star - omega
    if peak <= 0:
        return None

    def g(z):
        return z**s - c * z - omega

    def bisect(lo, hi, rising):
        """Midpoint after 200 halvings of ``[lo, hi]``, where ``g`` changes sign."""
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # later halvings keep it: the same float
                return mid
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


def levelset_scan(bundle: SolutionBundle, table: ExponentTable, k_list) -> LevelScan:
    """Scan superlevel masses ``Z(k)`` and fit the dichotomy line.

    ``Z(k)`` integrates ``v_k^(r gamma)``, with ``r gamma`` and ``ns`` from
    the run's exponent table, which must have a superlevel block.  The scan
    fits ``Y = omega + c Z`` with ``Y = Z^((ns-2)/ns)`` by least squares on
    the lower half of the levels, clamps the slope at zero, and reports the
    per-level residuals together with their nonincreasing envelope.  Where the fitted line
    admits two crossings, the scan reports both roots and checks that the
    measured masses sit on the small branch.  The per-level Chebyshev bound
    ``k |{v > k}| <= int sqrt(|Du|^2 + 1)`` is exact at quadrature level.
    """
    thm2 = _superlevel_block(bundle, table)
    ks = np.asarray([float(k) for k in k_list])
    if ks.size < 4:
        raise ParameterError("need at least 4 levels to fit the dichotomy")
    if np.any(np.diff(ks) <= 0):
        raise ParameterError("levels must be strictly increasing")
    if ks[0] < 1.0:
        raise ParameterError("levels start at k = 1")
    ns = table.sobolev_dim
    s = (ns - 2.0) / ns
    vol = bundle.vol
    cheb_total = float(np.sum(np.sqrt(bundle.ev.du2 + 1.0)) * vol)

    # v_k^(r gamma) on the support v > k only, as in _superlevel_table
    v = bundle.v.reshape(-1)
    power = float(thm2.r_gamma)
    Z = np.empty(ks.size)
    measures = np.empty(ks.size)
    for i, k in enumerate(ks):
        on = np.flatnonzero(v > k)
        Z[i] = float(np.sum(_on_support(bundle.v.shape, on, (v.take(on) - k) ** power)) * vol)
        measures[i] = float(on.size * vol)
    Y = Z**s
    cheb_ok = measures * ks <= cheb_total * (1.0 + 1e-12)

    # fit the slope where the masses are large (small k), clamp at zero
    half = max(2, ks.size // 2)
    zf, yf = Z[:half], Y[:half]
    denom = float(np.sum((zf - zf.mean()) ** 2))
    c_fit = float(np.sum((zf - zf.mean()) * (yf - yf.mean())) / denom) if denom > 0 else 0.0
    c_fit = max(c_fit, 0.0)
    omega = np.maximum(Y - c_fit * Z, 0.0)
    # nonincreasing envelope, scanned from the largest level down
    omega_fit = np.maximum.accumulate(omega[::-1])[::-1]

    roots = [_dichotomy_roots(float(om), c_fit, s) for om in omega_fit]
    # the fitted line forbids the open interval between its crossings; the
    # tail (largest levels) must in addition commit to the small branch
    small_branch_ok = True
    for i, (zi, rt) in enumerate(zip(Z, roots)):
        if rt is None:
            continue
        below = zi <= rt[0] * (1.0 + 1e-9) + 1e-30
        above = zi >= rt[1] * (1.0 - 1e-9)
        if not (below or above):
            small_branch_ok = False
        if i >= ks.size // 2 and not below:
            small_branch_ok = False
    return LevelScan(
        ks=ks,
        measures=measures,
        Z=Z,
        Y=Y,
        c_fit=c_fit,
        omega=omega,
        omega_fit=omega_fit,
        roots=roots,
        sobolev_dim=ns,
        chebyshev_bound=cheb_total,
        chebyshev_ok=cheb_ok,
        small_branch_ok=small_branch_ok,
    )


# ---------------------------------------------------------------------------
# maximal regularity
# ---------------------------------------------------------------------------


@dataclass
class MaxRegNorm:
    via_power_field: float
    via_gradient_norm: float

    @property
    def relative_agreement(self) -> float:
        scale = max(abs(self.via_power_field), abs(self.via_gradient_norm), 1e-300)
        return abs(self.via_power_field - self.via_gradient_norm) / scale


def maximal_regularity_norm(magnitude: ScalarField, q: float, gamma: float) -> MaxRegNorm:
    """``L^q`` norm of ``|Du|^gamma`` from the gradient magnitude ``|Du|``,
    computed along both routes.

    The same quantity is the q-norm of the power field and the (q gamma)-norm
    of the gradient magnitude raised to gamma; the two evaluations share
    every summand up to floating point, so they must agree to rounding.
    """
    if q < 1:
        raise ParameterError("maximal regularity norm needs q >= 1")
    via_power = lp_norm(ScalarField(magnitude.grid, magnitude.values**gamma), q)
    via_gradient = lp_norm(magnitude, q * gamma) ** gamma
    return MaxRegNorm(via_power_field=via_power, via_gradient_norm=via_gradient)
