"""Damped Newton solver for the regularized quasilinear Neumann problem.

The discrete residual is

    R(u) = lam * u - div( a(w_face) Du_face ) + (w_cell)^(gamma/2) - f,

with ``w = |Du|^2 + eps`` evaluated from the centered cell gradient and
averaged arithmetically onto faces.  Boundary faces carry zero flux, so the
divergence is exactly conservative.

Each iterate is evaluated once.  :func:`_residual_values` forms its
stencil quantities, ``Du``, ``|Du|^2``, ``w``, the face averages of ``w``,
the face differences, ``a`` on the faces and ``H(w)``, with the residual,
as one :class:`Evaluation`, and everything downstream reads them there:
the Jacobian of an accepted iterate, and the ledger bundle and the norm
table of the final one, which :class:`SolveReport` carries.

The Jacobian is the exact derivative of the residual, taken stencil by
stencil from those arrays, so Jacobian-vector products agree with
directional finite differences of the residual.  With mirror ghosts every
term couples a cell ``i`` only to cells ``clip(i + o)`` for a fixed set of
offsets ``o``: ``{0, +-e_d}`` for the ``lam``, ``a`` and ``h'`` terms, and
also ``{+-2 e_d, +-e_d +- e_e}`` for the ``a'`` term, which is left out
whenever ``a'`` vanishes on every face, as it does for p = 2.  Each Newton
step fills one coefficient array per offset, moves each entry whose step
crosses a wall onto the offset of the edge cell it lands on, and keeps the
arrays as the rows of a banded matrix stored by rows: 2N + 1 of them, or
2N^2 + 2N + 1 for the wide stencil (Saad 2003, sec. 3.4).  The matrix is a
:class:`BandedMatrix`, whose product sums the rows in stored order, one
numpy product per row; :func:`jacobian` returns it, the operator Newton
applies.

Each Newton step is solved inexactly by GMRES.  The preconditioner is
``S (lam I - abar Laplacian) S``, where ``abar`` is the grid mean of
``a(w)`` and ``S = diag(sqrt(a(w) / abar))`` scales each cell (Concus and
Golub 1973).  The scaling carries the cell-to-cell variation of a p != 2
coefficient, so the Krylov iterations per Newton step stay bounded under
refinement.  Where ``a'`` vanishes on every face, as for p = 2, ``a`` is
constant, ``S`` is the identity, and the apply skips the scaling.  With
mirror ghosts the cell-centred Neumann Laplacian is diagonal in the DCT-II
basis, so applying the inverse between the scalings costs a transform there
and back.  Each transform is one product per axis with a
cached dense DCT-II matrix (the fast diagonalization method of Lynch, Rice
and Thomas 1964).  That is O(n) work per cell on an axis of n cells, against
an FFT's O(log n), but it is one BLAS call per axis with no per-call
dispatch, and it is the faster of the two on axes up to about 128 cells.
GMRES is right-preconditioned: it runs on ``J M`` and the step is ``M y``,
so the residual it stops on is the true linear residual ``|r + J delta|`` on
which the forcing condition is defined.  It stops at the forcing term
``0.1 min(1, |R|)``, loose far from the solution and tightening with the
residual, which keeps Newton's quadratic rate without over-solving early
steps.  The term is floored at ``0.5 tol / |R|``: a step whose linear
residual is below half the Newton tolerance already does all that tolerance
asks, so the last step of a stage is not solved to far below it (Eisenstat
and Walker 1996; Kelley 1995, sec. 6.3).  A GMRES run that misses the
forcing term within its budget still gives a descent direction for
``|R|^2 / 2`` whenever it reduced the linear residual at all (Kelley 1995,
sec. 6), so the line search alone decides such a step.  Newton accepts a
step, and a stage converges, only on the true residual.

The GMRES is this module's own, restarted, with classical Gram-Schmidt
twice over the basis block and Givens rotations (Saad and Schultz 1986);
each cycle ends on the true residual ``|b - J delta|``.  It is the
module's one linear solve, :func:`spsolve`.  The module uses numpy alone.

A cold solve is a nested iteration.  The target grid is halved along every
axis for as long as it can be and the coarser grid keeps at least
``_COARSEST_CELLS`` cells; the coarsest grid starts Newton from a
constant, and each finer grid starts from the prolonged coarser solution.
Every grid takes one Newton stage at the target (eps, gamma): Newton's step
count does not grow under refinement (Allgower, Boehmer, Potra and
Rheinboldt 1986), so the coarse grids, not a path in (eps, gamma), carry
Newton into its basin on the fine ones.  For the same reason a level
smaller than ``_COARSEST_CELLS`` does not pay for its stage: from the
constant, Newton takes as many steps on the grid above it, and each of its
steps has a fixed cost larger than what it saves the next level.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    NonconvergenceError,
    ParameterError,
    UnsupportedRegimeError,
)
from .grid import (
    Grid,
    ScalarField,
    discrete_l2,
    divergence_flux,
    face_average,
    face_normal_differences,
    gradient,
    prolong,
    restrict,
)
from .model.problem import ProblemSpec
from .model.sources import sample_source


@dataclass
class SolverOptions:
    tol: float = 1e-10  # residual tolerance in the discrete L2 norm
    max_iter: int = 50  # Newton iterations per stage
    continuation: bool = True  # a cold start is a nested iteration over grids

    def __post_init__(self):
        # a tolerance that is not positive, or nan, is never met and an
        # infinite one always is; a negative budget leaves a stage with no
        # residual at all
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 0:
            raise ParameterError(f"max_iter must be nonnegative, got {self.max_iter}")


# Newton's line search: backtracking factor, Armijo constant and the step
# length below which a stage has stalled
_DAMPING_FACTOR = 0.5
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30

# inner linear solve: GMRES restart length and restart cycles per Newton
# step, and the forcing term _FORCING * min(1, |R|) floored at
# _FORCING_MIN and at 0.5 tol / |R|; a forcing term of order |R| keeps
# Newton q-quadratic (Kelley 1995, sec. 6.1)
_GMRES_RESTART = 30
_GMRES_CYCLES = 4
_FORCING = 0.1
_FORCING_MIN = 1e-12

# a cold solve's coarsest grid keeps at least this many cells in total.
# Newton from a constant takes 8 steps on README's config at tol = 1e-8
# at every size from 48^2 to 768^2, and a step's fixed cost (a residual,
# a Jacobian and the GMRES set-up, about 0.5-1 ms on a 2-core Xeon)
# outweighs what a smaller level saves the next one: the 3D radial
# config's 8^3 stage took 4.7 ms of a 19 ms solve at 16^3 and saved the
# 16^3 stage about 1 ms
_COARSEST_CELLS = 1024


@dataclass
class StageReport:
    cells: tuple  # the grid the stage ran on
    iterations: int
    residual_norm: float
    damping_events: int
    residual_history: list = field(default_factory=list)
    krylov_iterations: int = 0


class Evaluation(NamedTuple):
    """One iterate's stencil quantities and its residual, formed once."""

    u: np.ndarray  # the iterate's cell values
    du: np.ndarray  # the centred gradient, shape (ndim, *cells)
    du2: np.ndarray  # |Du|^2
    w: np.ndarray  # |Du|^2 + eps
    face_w: list  # w averaged onto the interior faces, one array per axis
    faces: list  # the face differences (u_R - u_L) / h, one array per axis
    face_a: list  # a(w) on the faces
    h_w: np.ndarray  # H as a function of w
    residual: np.ndarray


@dataclass
class SolveReport:
    stages: list
    converged: bool
    residual_norm: float
    source: ScalarField  # the source sampled on the target grid
    evaluation: Evaluation  # the last stage's, at the returned iterate

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.stages)


def _residual_values(problem: ProblemSpec, grid, f_values, u_values) -> Evaluation:
    """The :class:`Evaluation` of ``u_values``: the one place its stencil
    quantities are formed."""
    du = gradient(grid, u_values)
    du2 = np.sum(du**2, axis=0)
    w = problem.hamiltonian.eps + du2
    face_w = [face_average(w, d) for d in range(grid.ndim)]
    faces = face_normal_differences(grid, u_values)
    face_a = [problem.coefficient.a(wf) for wf in face_w]
    h_w = problem.hamiltonian.h_of_w(w)
    div = divergence_flux(grid, face_a, faces)
    r = problem.lam * u_values - div + h_w - f_values
    return Evaluation(u_values, du, du2, w, face_w, faces, face_a, h_w, r)


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


@functools.lru_cache(maxsize=8)
def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix ``C[k, j] = c_k cos(pi k (j + 1/2) / n)``."""
    k = np.arange(n).reshape(-1, 1)
    C = np.sqrt(2.0 / n) * np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
    C[0] /= np.sqrt(2.0)
    C.flags.writeable = False  # shared by every caller of the cache
    return C


def _dct_preconditioner(
    grid: Grid, lam: float, a: float | np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of ``S (lam I + abar sum_d G_d^T G_d) S``, with ``abar``
    the mean of the coefficient ``a`` and ``S = diag(sqrt(a / abar))``.

    ``a`` is ``a(w)`` per cell, or one number where it is constant; then
    ``S`` is the identity and no scaling runs.  The inverse between the two
    scalings is one dense product per axis into the DCT-II basis, a division
    by the eigenvalues and the products back.
    """
    abar = float(np.mean(a))
    denom = lam + abar * _neumann_eigenvalues(grid)
    *first, last = grid.cells
    # C along every axis but the last, as one product per leading index over
    # the axis's (n, trail) slab; the last axis is one product
    slabs = [
        (_dct_matrix(n), (math.prod(first[:d]), n, -1)) for d, n in enumerate(first)
    ]
    C_last = _dct_matrix(last)

    def apply(r):
        x = r.reshape(-1, last) @ C_last.T
        for C, slab in slabs:
            x = C @ x.reshape(slab)
        x = x.reshape(denom.shape) / denom
        for C, slab in slabs:
            x = C.T @ x.reshape(slab)
        return (x.reshape(-1, last) @ C_last).ravel()

    if np.ndim(a) == 0:
        return apply
    s_inv = (1.0 / np.sqrt(a / abar)).ravel()

    def scaled(r):
        x = apply(s_inv * r)
        x *= s_inv  # apply's result is a new array
        return x

    return scaled


def spsolve(J, M, b, target):
    """Restarted GMRES for ``J delta = b``, right-preconditioned by ``M``.

    Returns ``(delta, iterations)``.  Each cycle runs Arnoldi on ``J M``
    from the true residual, for at most ``_GMRES_RESTART`` steps, and then
    adds ``M V y`` to ``delta``, with ``y`` the least-squares solution kept
    up to date by Givens rotations (Saad and Schultz 1986).  A cycle ends
    early when the rotated residual estimate meets ``target`` or on a happy
    breakdown, where ``J M`` maps the Krylov space into itself.  The run
    stops once the true residual ``|b - J delta|``, taken after each cycle,
    meets ``target``, and otherwise after ``_GMRES_CYCLES`` cycles with the
    last iterate.
    """
    n = b.size
    m = min(_GMRES_RESTART, n)
    V = np.empty((m + 1, n))
    R = np.zeros((m, m))  # the Hessenberg matrix, rotated to upper triangular
    cs, sn = [0.0] * m, [0.0] * m
    delta = np.zeros(n)
    r, rnorm = b, float(np.linalg.norm(b))
    iterations = 0
    for _ in range(_GMRES_CYCLES):
        if rnorm <= target:
            return delta, iterations
        V[0] = r / rnorm
        g = [rnorm] + [0.0] * m  # rotated right-hand side; |g[j + 1]| is the residual
        for j in range(m):
            w = J @ M(V[j])
            w_norm = np.linalg.norm(w)
            # classical Gram-Schmidt with one re-orthogonalisation: two
            # products over the basis block in place of a loop over vectors
            basis = V[: j + 1]
            h = basis @ w
            w -= h @ basis
            c = basis @ w
            w -= c @ basis
            column = (h + c).tolist()
            beta = float(np.linalg.norm(w))
            iterations += 1
            # zero to rounding: J M maps the Krylov space into itself
            breakdown = beta <= np.finfo(float).eps * w_norm
            if not breakdown:
                V[j + 1] = w / beta
            # the cycle's earlier rotations, then a new one that zeroes beta
            for k in range(j):
                x0, x1 = column[k], column[k + 1]
                column[k] = cs[k] * x0 + sn[k] * x1
                column[k + 1] = cs[k] * x1 - sn[k] * x0
            rho = math.hypot(column[j], beta)
            cs[j], sn[j] = column[j] / rho, beta / rho
            column[j] = rho
            R[: j + 1, j] = column
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if breakdown or abs(g[j + 1]) <= target:
                break
        k = j + 1
        y = np.linalg.solve(R[:k, :k], g[:k])
        delta += M(y @ V[:k])
        r = b - J @ delta
        rnorm = float(np.linalg.norm(r))
        if breakdown:
            break
    return delta, iterations


def _newton_direction(grid, J, r, rn, lam, a, tol):
    """Inexact Newton step ``J delta = -r`` by GMRES, and its Krylov count.

    The target is ``|r + J delta| <= eta |r|`` on the true linear residual.
    Since a step is taken only while ``rn > tol``, the ``0.5 tol / rn`` floor
    keeps ``eta`` below one half.  A run that misses the target returns its
    last iterate, and the line search decides the step.
    """
    eta = max(_FORCING_MIN, _FORCING * min(1.0, rn), 0.5 * tol / rn)
    b = -r.ravel()
    delta, iterations = spsolve(
        J, _dct_preconditioner(grid, lam, a), b, eta * np.linalg.norm(b)
    )
    return delta.reshape(grid.shape), iterations


@functools.lru_cache(maxsize=None)
def _stencil_offsets(ndim: int, wide: bool) -> tuple:
    """Offsets of the Jacobian's stencil, as tuples of cell steps per axis.

    The narrow stencil is ``{0, +-e_d}``.  The wide one adds every sum of two
    unit steps, ``+-2 e_d`` and ``+-e_d +- e_e``: the ``a'`` term reaches a
    face's other cell and, from there, the centred gradient's neighbours.
    They are sorted because the Jacobian's product sums its rows in this
    order, and every record id depends on that sum's bits.  On a grid of at
    least 5 cells per axis their C-order steps then ascend too.
    """
    steps = [s * e for e in np.eye(ndim, dtype=int) for s in (1, -1)]
    offsets = [0 * steps[0]] + steps
    if wide:
        offsets += [a + b for a in steps for b in steps]
    return tuple(sorted({tuple(int(k) for k in o) for o in offsets}))


@functools.lru_cache(maxsize=None)
def _wall_folds(ndim: int, wide: bool) -> tuple:
    """The mirror-ghost rule as ``(src, dst, cells)`` moves between stencil
    entries.

    Entry ``(o, i)``, offset ``o`` at cell ``i``, couples ``i`` with cell
    ``clip(i + o)``: a step past the wall lands on the edge cell.  Each move
    takes the layer ``cells`` whose step ``o`` crosses a wall along axis
    ``d`` from offset slot ``src`` onto slot ``dst``, the offset
    ``clip(i + o) - i`` along ``d``.  Taken in order, axis by axis, the
    moves leave every entry on a step inside the grid.  Layers count from
    the wall, so the moves do not depend on the cell counts.
    """
    offsets = _stencil_offsets(ndim, wide)
    slot = {o: k for k, o in enumerate(offsets)}
    folds = []
    for d in range(ndim):
        for o in offsets:
            for j in range(abs(o[d])):
                # the layer j cells in from the wall that o steps towards,
                # and the step along d from it to the edge cell
                layer, step = (-1 - j, j) if o[d] > 0 else (j, -j)
                cells = (slice(None),) * d + (layer,)
                target = o[:d] + (step,) + o[d + 1 :]
                folds.append((slot[o], slot[target], cells))
    return tuple(folds)


class BandedMatrix:
    """A square matrix stored by rows, ``rows`` and ``offsets``, with its
    own product.

    ``rows[k, i]`` is row ``i``'s entry in column ``i + offsets[k]``, zero
    where that column falls off the matrix (scipy's ``dia_matrix`` keeps it
    at ``data[k, i + offsets[k]]``); the offsets ascend and are symmetric.
    ``@`` copies ``x`` into a buffer padded with ``offsets[-1]`` zeros at
    each end and sums ``rows[k] * x[i + offsets[k]]`` over ``k`` in stored
    order, the order in which scipy's ``dia_matvec`` sums from zero, so the
    product has the same bits (up to the sign of a row sum of signed zeros).
    ``nnz`` is scipy's ``dia_matrix.nnz``, the sum of ``n - |offset|``: it
    counts the zeros that the wall folds leave.
    """

    def __init__(self, rows, offsets):
        self.rows, self.offsets = rows, offsets
        n, pad = rows.shape[1], offsets[-1]
        self.shape, self.nnz = (n, n), sum(n - abs(s) for s in offsets)
        padded = np.zeros(n + 2 * pad)
        self._x = padded[pad:][:n]
        self._terms = [(row, padded[pad + s :][:n]) for row, s in zip(rows, offsets)]

    def __matmul__(self, x):
        self._x[...] = x
        (row, col), *rest = self._terms
        y = row * col  # a new array: callers edit the product in place
        for row, col in rest:
            y += row * col
        return y


def _jacobian_matrix(problem: ProblemSpec, grid, ev: Evaluation):
    """Jacobian of the residual at the iterate of ``ev`` and ``a(w)`` on the
    cells.

    The entries are the derivatives of ``_residual_values``'s stencils,
    gathered in one coefficient array per stencil offset.  They are built
    from ``ev``'s ``Du``, ``w``, face averages of ``w``, face differences
    and ``a`` on the faces; this computes only ``a'`` on the faces,
    ``h'(w)``, ``Du / h`` and ``a(w)``.  With the wall steps folded onto
    the edge cells, each array is one row of the matrix's storage.
    ``a(w)`` is the preconditioner's coefficient: the cell field where
    ``a'`` is nonzero on some face, and its mean where ``a'`` vanishes on
    every face and ``a`` is constant.
    """
    coeff, ham = problem.coefficient, problem.hamiltonian
    face_ap = [np.asarray(coeff.a_prime(wf), dtype=float) for wf in ev.face_w]
    # the width depends on a' alone, not on u, so a p != 2 solve from a
    # constant iterate takes the wide stencil from its first step, and p = 2
    # keeps the compact one
    wide = any(bool(np.any(ap)) for ap in face_ap)
    offsets = _stencil_offsets(grid.ndim, wide)
    slot = {o: k for k, o in enumerate(offsets)}
    coefs = np.zeros((len(offsets), *grid.shape))

    def at(offset):
        return coefs[slot[tuple(offset)]]

    unit = np.eye(grid.ndim, dtype=int)
    centre = at(0 * unit[0])
    centre += problem.lam
    # w at cell c moves by +-q_e[c] per unit change of u at clip(c +- e_e)
    q = [du_e / h for du_e, h in zip(ev.du, grid.spacing)]
    # dR_i/dw_i: h'(w_i), plus the a' terms of cell i's faces added below
    own = ham.h_prime_of_w(ev.w)
    for d, h in enumerate(grid.spacing):
        # the cells on the left and right of each face along d
        left, right = (
            tuple(s if k == d else slice(None) for k in range(grid.ndim))
            for s in (slice(None, -1), slice(1, None))
        )
        # the flux a(w_f) (Du)_f enters the residual of its left cell with
        # -1/h and of its right cell with +1/h
        t = ev.face_a[d] / h**2
        for cells, across in ((left, unit[d]), (right, -unit[d])):
            centre[cells] += t
            at(across)[cells] -= t
        if not wide:
            continue
        # through a'(w_f), that flux over h also moves by m per unit change
        # of w at either cell of the face
        m = 0.5 * face_ap[d] * ev.faces[d] / h
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
    for src, dst, cells in _wall_folds(grid.ndim, wide):
        coefs[dst][cells] += coefs[src][cells]
        coefs[src][cells] = 0.0
    a = coeff.a(ev.w)
    # each offset's flat C-order step
    strides = [math.prod(grid.cells[d + 1 :]) for d in range(grid.ndim)]
    steps = (np.array(offsets) @ strides).tolist()
    J = BandedMatrix(coefs.reshape(len(offsets), -1), steps)
    return J, (a if wide else float(np.mean(a)))


def evaluate(problem: ProblemSpec, u: ScalarField, f: ScalarField | None = None) -> Evaluation:
    """The :class:`Evaluation` of ``u`` against the problem's sampled source."""
    if u.grid.domain != problem.domain:
        raise ContractError("field domain does not match the problem domain")
    f_values = (f.values if f is not None else sample_source(problem.source, u.grid).values)
    return _residual_values(problem, u.grid, f_values, u.values)


def jacobian(problem: ProblemSpec, u: ScalarField) -> BandedMatrix:
    """Jacobian of the residual at ``u`` in C order: the operator Newton applies."""
    return _jacobian_matrix(problem, u.grid, evaluate(problem, u))[0]


def _newton_stage(problem: ProblemSpec, grid, f_values, u_values, options):
    """One Newton stage, ``(ev, history, damping_events, krylov_iterations)``
    with ``ev`` the :class:`Evaluation` at its last iterate; it converged iff
    ``history[-1] <= options.tol``.
    """
    history = []
    damping_events = krylov_iterations = 0
    # each point is evaluated once, but for the last one of a collapsed line
    # search: an accepted step carries over the evaluation its line search
    # computed, and the Jacobian reads it
    ev = _residual_values(problem, grid, f_values, u_values)
    for it in range(options.max_iter + 1):
        rn = discrete_l2(grid, ev.residual)
        history.append(rn)
        if rn <= options.tol or it == options.max_iter:
            break
        J, a = _jacobian_matrix(problem, grid, ev)
        # only the iterate and its residual outlive the Jacobian: the rest of
        # the evaluation is freed before the linear solve
        u, r = ev.u, ev.residual
        del ev
        delta, iterations = _newton_direction(grid, J, r, rn, problem.lam, a, options.tol)
        krylov_iterations += iterations
        merit = 0.5 * rn * rn
        alpha = 1.0
        while True:
            ev = _residual_values(problem, grid, f_values, u + alpha * delta)
            merit_trial = 0.5 * discrete_l2(grid, ev.residual) ** 2
            if merit_trial <= merit * (1.0 - 2.0 * _ARMIJO * alpha):
                break
            alpha *= _DAMPING_FACTOR
            if alpha < _MIN_STEP:
                ev = _residual_values(problem, grid, f_values, u)
                return ev, history, damping_events, krylov_iterations
        if alpha < 1.0:
            damping_events += 1
    return ev, history, damping_events, krylov_iterations


def solve(
    problem: ProblemSpec,
    grid: Grid,
    options: SolverOptions | None = None,
    initial: ScalarField | None = None,
) -> tuple[ScalarField, SolveReport]:
    """Solve the discrete problem on ``grid``.

    Every grid solves in one Newton stage at the target (eps, gamma).  A
    cold start with ``options.continuation`` set is a nested iteration, a
    continuation in the mesh width.  Every axis of ``grid`` is halved for
    as long as each axis is even and keeps at least ``_MIN_CELLS`` cells
    (:meth:`gradlab.grid.Grid.coarsened`) and the halved grid keeps at
    least ``_COARSEST_CELLS`` cells in all: 96^2 starts on 48^2 and 32^3
    on 16^3, while 48^2 and 16^3 solve alone.  The coarsest grid starts from
    the constant ``mean(f) / lam``, and each finer grid, up to ``grid``,
    from the prolonged coarser solution.  A coarse grid's source is the
    block mean of the finer grid's (:func:`gradlab.grid.restrict`), so a
    :class:`Tabulated` source serves too, and every grid solves to the same
    ``tol``.  A grid that cannot be halved is its own coarsest grid.
    Without continuation, a cold start solves from the constant on ``grid``
    alone.

    A warm start from ``initial`` always solves on ``grid`` alone: it is
    already near a solution.  ``initial`` may live on another grid of the
    same domain, such as a coarser solve of the same problem; it is then
    prolonged onto ``grid`` (:func:`gradlab.grid.prolong`).  A field on
    another domain raises :class:`ContractError`.

    Each :class:`StageReport` names the grid it ran on.  Raises
    :class:`NonconvergenceError` if any stage stalls, with that stage's
    grid and what stopped it in the message: ``max_iter``, or a line search
    that halved the step below ``_MIN_STEP``.  Its iterate, a field on that
    grid, is attached.  A
    solve with a vanishing zero-order coefficient raises
    :class:`UnsupportedRegimeError`; probe ``lam -> 0`` through the sweep
    axis instead.
    """
    if problem.lam == 0:
        raise UnsupportedRegimeError(
            "a solve needs lam > 0; probe lam -> 0 via the lambda sweep axis"
        )
    if grid.domain != problem.domain:
        raise ContractError("grid domain does not match the problem domain")
    options = options or SolverOptions()
    # the sources on each grid, finest first: a coarse grid's is the block
    # mean of the finer one's
    sources = [sample_source(problem.source, grid)]
    if initial is None and options.continuation:
        while (coarse := sources[-1].grid.coarsened()) is not None and (
            math.prod(coarse.cells) >= _COARSEST_CELLS
        ):
            sources.append(restrict(sources[-1], coarse))
    u = initial
    if u is None:
        base = sources[-1]
        u = ScalarField(
            base.grid, np.full(base.grid.shape, float(base.values.mean()) / problem.lam)
        )
    stages = []
    for f in reversed(sources):
        level = f.grid
        ev = None  # a coarser stage's evaluation is freed before this stage runs
        ev, history, damping, krylov = _newton_stage(
            problem, level, f.values, prolong(u, level).values, options
        )
        stages.append(
            StageReport(
                cells=level.cells,
                iterations=len(history) - 1,
                residual_norm=history[-1],
                damping_events=damping,
                residual_history=history,
                krylov_iterations=krylov,
            )
        )
        u = ScalarField(level, ev.u)
        # a nan residual stops the solve here too
        if not history[-1] <= options.tol:
            break
    report = SolveReport(
        stages=stages,
        converged=history[-1] <= options.tol,
        residual_norm=history[-1],
        source=sources[0],
        evaluation=ev,
    )
    if not report.converged:
        # a stage that stops before its last iteration stops in the line search
        if len(history) - 1 == options.max_iter:
            reason = f"max_iter = {options.max_iter} reached"
        else:
            reason = (
                "line search collapsed, no step down to length "
                f"{_MIN_STEP:.3g} passed the Armijo test"
            )
        raise NonconvergenceError(
            f"Newton stalled on {'×'.join(map(str, level.cells))} "
            f"with residual {history[-1]:.3e}: {reason}",
            best_iterate=u,
            report=report,
        )
    return u, report
