"""Damped Newton solver for the regularized quasilinear Neumann problem.

The discrete residual is

    R(u) = lam * u - div( a(w_face) Du_face ) + (w_cell)^(gamma/2) - f,

with ``w = |Du|^2 + eps`` evaluated from the centered cell gradient and
averaged arithmetically onto faces.  Boundary faces carry zero flux, so the
divergence is exactly conservative.

The Jacobian is the exact derivative of that residual, taken stencil by
stencil from the same ``gradient``, ``face_average`` and face arrays, so
Jacobian-vector products agree with directional finite differences of the
residual.  With mirror ghosts every term couples a cell ``i`` only to cells
``clip(i + o)`` for a fixed set of offsets ``o``: ``{0, +-e_d}`` for the
``lam``, ``a`` and ``h'`` terms, and also ``{+-2 e_d, +-e_d +- e_e}`` for
the ``a'`` term, which is left out whenever ``a'`` vanishes on every face,
as it does for p = 2.  Each Newton step fills one coefficient array per
offset and scatters them into a CSR pattern cached per grid and width,
through one fixed index from (offset, cell) to CSR position.

Each Newton step is solved inexactly by GMRES.  The preconditioner is the
constant-coefficient operator ``lam I - abar Laplacian``, where ``abar`` is
the grid mean of ``a(w)``: with mirror ghosts the cell-centred Neumann
Laplacian is diagonal in the DCT-II basis, so applying its inverse costs two
fast transforms.  GMRES is right-preconditioned: it runs on ``J M`` and the
step is ``M y``, so the residual it stops on is the true linear residual
``|r + J delta|`` on which the forcing condition is defined.  It stops at the
forcing term ``0.1 min(1, |R|)``, loose far from the solution and tightening
with the residual, which keeps Newton's quadratic rate without over-solving
early steps.  The term is floored at ``0.5 tol / |R|``: a step whose linear
residual is below half the Newton tolerance already does all that tolerance
asks, so the last step of a stage is not solved to far below it (Eisenstat
and Walker 1996; Kelley 1995, sec. 6.3).  A step whose GMRES run misses the
forcing term within its budget falls back to a sparse direct solve.  Newton
itself still accepts a step, and a stage converges, only on the true
residual.

Supernatural gradient growth shrinks Newton basins badly, so the solve walks
a continuation path: first the regularization eps is lowered geometrically
from order one, then gamma is raised linearly to its target.  Every stage
restarts Newton from the previous stage's solution.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, spsolve

from .errors import (
    ContractError,
    NonconvergenceError,
    ParameterError,
    UnsupportedRegimeError,
)
from .grid import (
    Grid,
    ScalarField,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
)
from .model.families import PowerHamiltonian
from .model.problem import ProblemSpec
from .model.sources import Tabulated, sample_source


@dataclass
class SolverOptions:
    tol: float = 1e-10  # residual tolerance in the discrete L2 norm
    max_iter: int = 50  # Newton iterations per continuation stage
    damping_factor: float = 0.5
    armijo: float = 1e-4
    eps_ratio: float = 0.1  # geometric eps continuation ratio
    gamma_stages: int = 4  # linear gamma continuation stages
    min_step: float = 2.0**-30

    def __post_init__(self):
        # a ratio of 1 or more never ends the eps schedule or the line search
        for name in ("damping_factor", "eps_ratio"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError(f"{name} must lie in (0, 1), got {value}")


# inner linear solve: GMRES restart length and restart cycles before the
# direct fallback, and the forcing term _FORCING * min(1, |R|) floored at
# _FORCING_MIN and at 0.5 tol / |R|; a forcing term of order |R| keeps
# Newton q-quadratic (Kelley 1995, sec. 6.1)
_GMRES_RESTART = 30
_GMRES_CYCLES = 4
_FORCING = 0.1
_FORCING_MIN = 1e-12


@dataclass
class LinearSolveStats:
    """Linear-solver work of one continuation stage."""

    krylov_iterations: int = 0
    direct_fallbacks: int = 0


@dataclass
class StageReport:
    eps: float
    gamma: float
    iterations: int
    residual_norm: float
    damping_events: int
    residual_history: list = field(default_factory=list)
    krylov_iterations: int = 0
    direct_fallbacks: int = 0


@dataclass
class SolveReport:
    stages: list
    converged: bool
    residual_norm: float
    wall_time: float = 0.0

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.stages)


def _discrete_l2(grid: Grid, values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(values**2) * grid.cell_volume))


def _residual_values(grid, coeff, ham, lam, f_values, u_values):
    u = ScalarField(grid, u_values)
    du = gradient(u).components
    w = ham.eps + np.sum(du**2, axis=0)
    faces = face_normal_differences(u)
    coeffs = [coeff.a(face_average(w, grid, d)) for d in range(grid.ndim)]
    div = divergence_flux(grid, coeffs, faces).values
    return lam * u_values - div + ham.h_of_w(w) - f_values


@functools.lru_cache(maxsize=8)
def _neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of ``sum_d G_d^T G_d`` in the DCT-II basis, shape ``cells``."""
    mu = np.zeros(grid.shape)
    for d, (n, h) in enumerate(zip(grid.cells, grid.spacing)):
        shape = [1] * grid.ndim
        shape[d] = n
        mu_d = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h**2
        mu = mu + mu_d.reshape(shape)
    mu.flags.writeable = False  # shared by every caller of the cache
    return mu


def _dct_preconditioner(grid: Grid, lam: float, abar: float) -> LinearOperator:
    """Exact inverse of ``lam I + abar sum_d G_d^T G_d`` by two DCTs."""
    # imported here so that a process that never takes a Newton step does not
    # pay for loading scipy.fft
    from scipy.fft import dctn, idctn

    denom = lam + abar * _neumann_eigenvalues(grid)

    def apply(r):
        rhat = dctn(r.reshape(grid.shape), type=2, norm="ortho")
        return idctn(rhat / denom, type=2, norm="ortho").ravel()

    return LinearOperator((grid.size, grid.size), matvec=apply, dtype=float)


def _newton_direction(grid, J, r, rn, lam, abar, tol, stats) -> np.ndarray:
    """Inexact Newton step ``J delta = -r``; direct solve if GMRES stalls.

    ``|r + J delta| <= eta |r|`` on the true linear residual.  Since a step is
    taken only while ``rn > tol``, the ``0.5 tol / rn`` floor keeps ``eta``
    below one half.
    """
    eta = max(_FORCING_MIN, _FORCING * min(1.0, rn), 0.5 * tol / rn)
    M = _dct_preconditioner(grid, lam, abar)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    # right preconditioning: GMRES minimizes |r + J M y|, the true residual
    y, info = gmres(
        LinearOperator(J.shape, matvec=lambda v: J @ M.matvec(v), dtype=float),
        -r.ravel(),
        rtol=eta,
        atol=0.0,
        restart=_GMRES_RESTART,
        maxiter=_GMRES_CYCLES,
        callback=count,
        callback_type="pr_norm",
    )
    stats.krylov_iterations += iterations
    if info != 0:
        stats.direct_fallbacks += 1
        delta = spsolve(J.tocsc(), -r.ravel())
    else:
        delta = M.matvec(y)
    return delta.reshape(grid.shape)


@functools.lru_cache(maxsize=None)
def _stencil_offsets(ndim: int, wide: bool) -> tuple:
    """Offsets of the Jacobian's stencil, as tuples of cell steps per axis.

    The narrow stencil is ``{0, +-e_d}``, zero offset first.  The wide one
    adds every sum of two unit steps, ``+-2 e_d`` and ``+-e_d +- e_e``: the
    ``a'`` term reaches a face's other cell and, from there, the centred
    gradient's neighbours.
    """
    steps = [s * e for e in np.eye(ndim, dtype=int) for s in (1, -1)]
    offsets = [0 * steps[0]] + steps
    if wide:
        offsets += [a + b for a in steps for b in steps]
    return tuple(dict.fromkeys(tuple(int(k) for k in o) for o in offsets))


@functools.lru_cache(maxsize=8)
def _jacobian_pattern(grid: Grid, wide: bool):
    """The Jacobian's CSR ``indptr`` and ``indices``, and where each stencil
    entry lands in them.

    Entry ``(o, i)``, offset ``o`` at cell ``i`` in C order, couples ``i``
    with cell ``clip(i + o)``: the mirror-ghost rule, under which a step off
    the grid lands on the edge cell.  Its CSR position is
    ``index[o * grid.size + i]``; entries that land on one cell add up.
    """
    n = grid.size
    cells = np.indices(grid.shape).reshape(grid.ndim, -1)
    top = np.array(grid.cells)[:, None] - 1
    rows = np.arange(n, dtype=np.int64) * n
    keys = np.concatenate(
        [
            rows
            + np.ravel_multi_index(
                tuple(np.clip(cells + np.array(o)[:, None], 0, top)), grid.shape
            )
            for o in _stencil_offsets(grid.ndim, wide)
        ]
    )
    del cells
    pattern, index = np.unique(keys, return_inverse=True)
    del keys
    indptr = np.append(np.searchsorted(pattern, rows), pattern.size).astype(np.int32)
    indices = (pattern % n).astype(np.int32)
    # index stays intp: np.bincount would otherwise cast it into a fresh
    # array on every Jacobian, which costs more than the scatter itself
    index = index.astype(np.intp, copy=False)
    # shared by every caller of the cache, across threads
    for a in (indptr, indices, index):
        a.flags.writeable = False
    return indptr, indices, index


def _jacobian_matrix(grid, coeff, ham, lam, u_values):
    """Jacobian of the residual at ``u_values`` and the grid mean of ``a(w)``.

    The entries are the derivatives of ``_residual_values``'s stencils,
    gathered in one coefficient array per stencil offset.  The mean is the
    preconditioner's coefficient, taken from the same ``w``.
    """
    u = ScalarField(grid, u_values)
    du = gradient(u).components
    w = ham.eps + np.sum(du**2, axis=0)
    face_w = [face_average(w, grid, d) for d in range(grid.ndim)]
    face_ap = [np.asarray(coeff.a_prime(wf), dtype=float) for wf in face_w]
    # the width depends on a' alone, not on u, so a p != 2 solve from a
    # constant iterate takes the wide stencil from its first step, and p = 2
    # keeps the compact one
    wide = any(bool(np.any(ap)) for ap in face_ap)
    offsets = _stencil_offsets(grid.ndim, wide)
    slot = {o: k for k, o in enumerate(offsets)}
    coefs = np.zeros((len(offsets),) + grid.shape)
    centre = coefs[0]
    centre += lam

    def at(offset):
        return coefs[slot[tuple(offset)]]

    unit = np.eye(grid.ndim, dtype=int)
    # w at cell c moves by +-q_e[c] per unit change of u at clip(c +- e_e)
    q = [du[e] / h for e, h in enumerate(grid.spacing)]
    # dR_i/dw_i: h'(w_i), plus the a' terms of cell i's faces added below
    own = ham.h_prime_of_w(w)
    faces = face_normal_differences(u) if wide else None
    for d, h in enumerate(grid.spacing):
        # each interior face along d and the cells on its left and right;
        # boundary faces carry no flux
        inner, left, right = (
            tuple(s if k == d else slice(None) for k in range(grid.ndim))
            for s in (slice(1, -1), slice(None, -1), slice(1, None))
        )
        # the flux a(w_f) (Du)_f enters the residual of its left cell with
        # -1/h and of its right cell with +1/h
        t = np.asarray(coeff.a(face_w[d][inner]), dtype=float) / h**2
        for cells, across in ((left, unit[d]), (right, -unit[d])):
            centre[cells] += t
            at(across)[cells] -= t
        if not wide:
            continue
        # through a'(w_f), that flux over h also moves by m per unit change
        # of w at either cell of the face
        m = 0.5 * face_ap[d][inner] * faces[d][inner] / h
        own[left] -= m
        own[right] += m
        for e in range(grid.ndim):
            t = m * q[e][right]  # the left cell's row, through w at the right cell
            at(unit[d] + unit[e])[left] -= t
            at(unit[d] - unit[e])[left] += t
            t = m * q[e][left]  # the right cell's row, through w at the left cell
            at(-unit[d] + unit[e])[right] += t
            at(-unit[d] - unit[e])[right] -= t
    for e in range(grid.ndim):
        t = own * q[e]
        at(unit[e])[...] += t
        at(-unit[e])[...] -= t
    indptr, indices, index = _jacobian_pattern(grid, wide)
    data = np.bincount(index, weights=coefs.ravel(), minlength=indices.size)
    J = sp.csr_matrix(
        (data, indices.copy(), indptr.copy()), shape=(grid.size, grid.size)
    )
    return J, float(np.mean(coeff.a(w)))


def residual(problem: ProblemSpec, u: ScalarField, f: ScalarField | None = None) -> ScalarField:
    """Discrete residual of ``u`` against the problem's sampled source."""
    if u.grid.domain != problem.domain:
        raise ContractError("field domain does not match the problem domain")
    f_values = (f.values if f is not None else sample_source(problem.source, u.grid).values)
    vals = _residual_values(
        u.grid, problem.coefficient, problem.hamiltonian, problem.lam, f_values, u.values
    )
    return ScalarField(u.grid, vals)


def jacobian(problem: ProblemSpec, u: ScalarField) -> sp.csr_matrix:
    """Sparse Jacobian of the residual at ``u`` (C-order flattening)."""
    J, _ = _jacobian_matrix(
        u.grid, problem.coefficient, problem.hamiltonian, problem.lam, u.values
    )
    return J


def _continuation_schedule(eps_target: float, gamma_target: float, options: SolverOptions):
    eps_stages = []
    e = max(eps_target, 1.0)
    while e > eps_target * (1.0 + 1e-12):
        eps_stages.append(e)
        e *= options.eps_ratio
    eps_stages.append(eps_target)
    gamma0 = min(gamma_target, 2.0)
    stages = [(e, gamma0) for e in eps_stages]
    if gamma_target > 2.0:
        gammas = np.linspace(2.0, gamma_target, max(2, options.gamma_stages))
        stages.extend((eps_target, float(g)) for g in gammas[1:])
    return stages


def _newton_stage(grid, coeff, ham, lam, f_values, u_values, options, stats):
    history = []
    damping_events = 0
    u = u_values
    # each point is evaluated once: an accepted step carries over the
    # residual its line search computed
    r = _residual_values(grid, coeff, ham, lam, f_values, u)
    for it in range(options.max_iter + 1):
        rn = _discrete_l2(grid, r)
        history.append(rn)
        if rn <= options.tol:
            return u, history, damping_events, True
        if it == options.max_iter:
            break
        J, abar = _jacobian_matrix(grid, coeff, ham, lam, u)
        delta = _newton_direction(grid, J, r, rn, lam, abar, options.tol, stats)
        merit = 0.5 * rn * rn
        alpha = 1.0
        while True:
            trial = u + alpha * delta
            rt = _residual_values(grid, coeff, ham, lam, f_values, trial)
            merit_trial = 0.5 * _discrete_l2(grid, rt) ** 2
            if merit_trial <= merit * (1.0 - 2.0 * options.armijo * alpha):
                break
            alpha *= options.damping_factor
            if alpha < options.min_step:
                return u, history, damping_events, False
        if alpha < 1.0:
            damping_events += 1
        u, r = trial, rt
    return u, history, damping_events, False


def solve(
    problem: ProblemSpec,
    grid: Grid,
    options: SolverOptions | None = None,
    initial: ScalarField | None = None,
    continuation: bool = True,
) -> tuple[ScalarField, SolveReport]:
    """Solve the discrete problem on ``grid``.

    Raises :class:`NonconvergenceError` with the best iterate attached if any
    continuation stage stalls.  A vanishing zero-order coefficient has no
    direct solve; probe ``lam -> 0`` through the sweep axis instead.
    """
    if problem.lam == 0:
        raise UnsupportedRegimeError(
            "direct solves need lam > 0; probe lam -> 0 via the lambda sweep axis"
        )
    if grid.domain != problem.domain:
        raise ContractError("grid domain does not match the problem domain")
    options = options or SolverOptions()
    start = time.perf_counter()
    f_values = sample_source(problem.source, grid).values
    if initial is not None:
        if initial.grid.cells != grid.cells:
            raise ContractError("initial guess lives on a different grid")
        u = initial.values.copy()
    else:
        u = np.full(grid.shape, float(f_values.mean()) / problem.lam)
    if continuation:
        schedule = _continuation_schedule(problem.eps, problem.gamma, options)
    else:
        schedule = [(problem.eps, problem.gamma)]
    stages = []
    for eps_s, gamma_s in schedule:
        ham = PowerHamiltonian(gamma_s, eps_s)
        stats = LinearSolveStats()
        u, history, damping, ok = _newton_stage(
            grid, problem.coefficient, ham, problem.lam, f_values, u, options, stats
        )
        stages.append(
            StageReport(
                eps=eps_s,
                gamma=gamma_s,
                iterations=len(history) - 1,
                residual_norm=history[-1],
                damping_events=damping,
                residual_history=history,
                krylov_iterations=stats.krylov_iterations,
                direct_fallbacks=stats.direct_fallbacks,
            )
        )
        if not ok:
            report = SolveReport(
                stages=stages,
                converged=False,
                residual_norm=history[-1],
                wall_time=time.perf_counter() - start,
            )
            raise NonconvergenceError(
                f"Newton stalled at stage eps={eps_s:.3g}, gamma={gamma_s:.3g} "
                f"with residual {history[-1]:.3e}",
                best_iterate=ScalarField(grid, u),
                residual_norm=history[-1],
                report=report,
            )
    report = SolveReport(
        stages=stages,
        converged=True,
        residual_norm=stages[-1].residual_norm,
        wall_time=time.perf_counter() - start,
    )
    return ScalarField(grid, u), report


def manufacture_source(problem: ProblemSpec, u_star: ScalarField) -> Tabulated:
    """Source that makes ``u_star`` an exact discrete solution.

    The returned table is the residual of ``u_star`` with zero source, so
    feeding it back gives a residual that vanishes to rounding.
    """
    if u_star.grid.domain != problem.domain:
        raise ContractError("field domain does not match the problem domain")
    vals = _residual_values(
        u_star.grid,
        problem.coefficient,
        problem.hamiltonian,
        problem.lam,
        np.zeros(u_star.grid.shape),
        u_star.values,
    )
    return Tabulated(vals)


@dataclass
class EpsSweepRow:
    eps: float
    grad_norm_qgamma: float
    grad_norm_eta: float
    report: SolveReport


def epsilon_sweep(
    problem: ProblemSpec,
    grid: Grid,
    eps_list,
    options: SolverOptions | None = None,
    q: float = 2.0,
    eta: float | None = None,
) -> list[EpsSweepRow]:
    """Re-solve along decreasing regularizations, warm-starting each point.

    Reports the gradient norms the estimates control so the eps-independence
    of the bounds can be checked empirically.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])) or not eps_list:
        raise ParameterError("eps values must be strictly decreasing")
    if eta is None:
        eta = 2.0 * problem.gamma - problem.p + 1.0
    rows = []
    prev: ScalarField | None = None
    for i, eps in enumerate(eps_list):
        spec = dataclasses.replace(
            problem, eps=eps, hamiltonian=PowerHamiltonian(problem.gamma, eps)
        )
        u, report = solve(
            spec, grid, options, initial=prev, continuation=(prev is None)
        )
        du = gradient(u)
        rows.append(
            EpsSweepRow(
                eps=eps,
                grad_norm_qgamma=float(
                    np.sum(du.magnitude().values ** (q * problem.gamma))
                    * grid.cell_volume
                )
                ** (1.0 / (q * problem.gamma)),
                grad_norm_eta=float(
                    np.sum(du.magnitude().values ** eta) * grid.cell_volume
                )
                ** (1.0 / eta),
                report=report,
            )
        )
        prev = u
    return rows
