"""Cell-centered finite-volume grids on box domains with Neumann ghosts.

The centred gradient and the second differences use even-reflection
(mirror) ghost cells.  The divergence is assembled in flux form with zero
boundary flux, which makes the discrete divergence theorem and the
gradient/divergence adjointness exact up to rounding.  The integral checks
downstream lean on both identities, so do not change the boundary policy
without revisiting them.

Conventions
-----------
Stencils take and return plain arrays; a :class:`ScalarField` is what
crosses the package's interfaces.  Scalar data lives at cell centers, shape
``grid.cells``, checked wherever the grid is given, so nothing broadcasts;
the gradient has shape ``(ndim, *cells)``.  Face data along
axis ``d`` holds the interior faces only: shape ``cells`` with entry ``d``
one shorter, index ``i`` along that axis addressing the face between cells
``i`` and ``i+1``.  The boundary faces have no entry, because their flux is
zero; :func:`divergence_flux` is the one place that puts it in.  Arrays are
C-ordered throughout, which is also the order of the solver's flattened
unknowns and of the binary field format.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, ResolutionError

_MIN_CELLS = 8
_FIELD_MAGIC = b"GLF1"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[0, L_1] x ... x [0, L_N]``."""

    extents: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        if len(self.extents) not in (2, 3):
            raise ParameterError("box domains are supported in 2 or 3 dimensions")
        # nan fails every comparison, so test for what is allowed
        if not all(np.isfinite(e) and e > 0 for e in self.extents):
            raise ParameterError(
                f"box extents must be finite and positive, got {self.extents}"
            )

    @property
    def ndim(self) -> int:
        return len(self.extents)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over a :class:`Box`."""

    domain: Box
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if len(self.cells) != self.domain.ndim:
            raise ParameterError("cell counts must match the domain dimension")
        if any(n < _MIN_CELLS for n in self.cells):
            raise ResolutionError(
                f"need at least {_MIN_CELLS} cells per axis, got {self.cells}"
            )

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.domain.extents, self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, broadcast to the full grid shape."""
        axes = [self.axis_centers(d) for d in range(self.ndim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def coarsened(self) -> "Grid | None":
        """The grid with every axis halved, or ``None`` when an axis is odd
        or would fall below ``_MIN_CELLS`` cells."""
        if all(n % 2 == 0 and n // 2 >= _MIN_CELLS for n in self.cells):
            return Grid(self.domain, tuple(n // 2 for n in self.cells))
        return None


def build_grid(domain: Box, cells: tuple[int, ...]) -> Grid:
    return Grid(domain, cells)


def _cells(grid: Grid, values) -> np.ndarray:
    """``values`` as a float array of exactly the grid's shape: no broadcasting."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ContractError(f"cell array shape {values.shape} does not match grid {grid.shape}")
    return values


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _cells(self.grid, self.values)


def prolong(field: ScalarField, grid: Grid) -> ScalarField:
    """``field`` interpolated onto ``grid``, another grid of the same box.

    Separable linear interpolation between cell centres, one axis at a time.
    A centre beyond the outermost centres of ``field`` takes the edge cell's
    value, as the mirror ghosts do.  Any cell ratio works, coarsening
    included, and an axis whose cell count is unchanged is copied exactly.
    """
    if field.grid.domain != grid.domain:
        raise ContractError("cannot prolong a field onto another domain")
    values = field.values.copy()
    for d, (n_from, n_to) in enumerate(zip(field.grid.cells, grid.cells)):
        if n_from == n_to:
            continue
        # centre i of the target axis, in index units of the source axis
        s = np.clip((np.arange(n_to) + 0.5) * n_from / n_to - 0.5, 0, n_from - 1)
        lo = np.minimum(s.astype(int), n_from - 2)
        t = (s - lo).reshape([-1 if k == d else 1 for k in range(grid.ndim)])
        a = np.take(values, lo, axis=d)
        # this form keeps a constant exact
        values = a + t * (np.take(values, lo + 1, axis=d) - a)
    return ScalarField(grid, values)


def restrict(field: ScalarField, grid: Grid) -> ScalarField:
    """``field`` averaged onto ``grid``, a coarsening of its grid.

    Each coarse cell takes the mean of the fine cells it covers, so a
    constant maps to itself and the discrete integral ``sum f |cell|`` is
    kept to rounding.  Every fine cell count must be a multiple of the
    coarse one.
    """
    if field.grid.domain != grid.domain:
        raise ContractError("cannot restrict a field onto another domain")
    if any(n % m for n, m in zip(field.grid.cells, grid.cells)):
        raise ContractError(f"{grid.cells} is not a coarsening of {field.grid.cells}")
    blocks = [k for m, n in zip(grid.cells, field.grid.cells) for k in (m, n // m)]
    axes = tuple(range(1, 2 * grid.ndim, 2))
    return ScalarField(grid, field.values.reshape(blocks).mean(axis=axes))


# ---------------------------------------------------------------------------
# ghost handling and derivatives
# ---------------------------------------------------------------------------


def _mirror_pad(values: np.ndarray, axis: int) -> np.ndarray:
    """One layer of even-reflection ghosts along ``axis``."""
    # concatenating the edge slices gives np.pad(mode="edge") bit for bit at
    # about half its cost, which matters on every residual and Jacobian
    first = [slice(None)] * values.ndim
    last = [slice(None)] * values.ndim
    first[axis] = slice(0, 1)
    last[axis] = slice(-1, None)
    return np.concatenate(
        (values[tuple(first)], values, values[tuple(last)]), axis=axis
    )


def _shift(view: np.ndarray, axis: int, lo: int, hi: int) -> np.ndarray:
    idx = [slice(None)] * view.ndim
    idx[axis] = slice(lo, view.shape[axis] + hi)
    return view[tuple(idx)]


def gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Centered-difference gradient at cell centers with mirror ghosts,
    shape ``(ndim, *cells)``."""
    values = _cells(grid, values)
    du = np.empty((grid.ndim,) + grid.shape)
    for d in range(grid.ndim):
        p = _mirror_pad(values, d)
        du[d] = (_shift(p, d, 2, 0) - _shift(p, d, 0, -2)) / (2.0 * grid.spacing[d])
    return du


def face_normal_differences(grid: Grid, values: np.ndarray) -> list[np.ndarray]:
    """Interior-face normal differences ``(u_R - u_L)/h``, one array per axis."""
    values = _cells(grid, values)
    return [np.diff(values, axis=d) / h for d, h in enumerate(grid.spacing)]


def face_average(values: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic average of a cell array on the interior faces along ``axis``."""
    return 0.5 * (_shift(values, axis, 1, 0) + _shift(values, axis, 0, -1))


def divergence_flux(
    grid: Grid,
    coefficient_at_faces: list[np.ndarray],
    grad_normal_at_faces: list[np.ndarray],
) -> np.ndarray:
    """Flux-form divergence ``div(c * g)`` from per-axis interior-face data.

    The boundary faces carry zero flux, which is the discrete Neumann
    condition.  The cell sum of the result times the cell volume therefore
    telescopes to zero exactly.
    """
    if len(coefficient_at_faces) != grid.ndim or len(grad_normal_at_faces) != grid.ndim:
        raise ContractError("need one face array per axis")
    div = np.zeros(grid.shape)
    for d, h in enumerate(grid.spacing):
        shape = list(grid.shape)
        shape[d] -= 1
        c = np.asarray(coefficient_at_faces[d], dtype=float)
        gn = np.asarray(grad_normal_at_faces[d], dtype=float)
        if c.shape != tuple(shape) or gn.shape != tuple(shape):
            raise ContractError(f"face arrays along axis {d} must have shape {shape}")
        # each interior face's flux leaves the cell below it and enters the
        # one above; a wall face carries none, so an edge cell takes its one
        # interior face's term alone (F - 0 and 0 - F are exact)
        lead = (slice(None),) * d
        flux = c * gn
        step = np.diff(flux, axis=d)
        step /= h
        div[lead + (slice(1, -1),)] += step
        div[lead + (0,)] += flux[lead + (0,)] / h
        div[lead + (-1,)] += (0.0 - flux[lead + (-1,)]) / h
    return div


def dirichlet_form(
    grid: Grid,
    coefficient_at_faces: list[np.ndarray],
    u: np.ndarray,
    v: np.ndarray,
) -> float:
    """Face-based energy pairing ``sum_f c_f (Du)_f (Dv)_f vol``.

    This is the exact negative adjoint of :func:`divergence_flux` applied to
    ``u`` and integrated against ``v``.
    """
    gu = face_normal_differences(grid, u)
    gv = face_normal_differences(grid, v)
    total = sum((c * a * b).sum() for c, a, b in zip(coefficient_at_faces, gu, gv))
    return float(total * grid.cell_volume)


def second_derivatives(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of the Hessian, ``|D2u|^2``, per cell.

    Pure second differences are the standard three-point stencil, mixed ones
    the centered cross stencil, both with mirror ghosts.
    """
    values = _cells(grid, values)
    n = grid.ndim
    frob = np.zeros(grid.shape)
    for d in range(n):
        p = _mirror_pad(values, d)
        pure = (_shift(p, d, 2, 0) - 2.0 * values + _shift(p, d, 0, -2)) / (
            grid.spacing[d] ** 2
        )
        frob += pure**2
    for d in range(n):
        for e in range(d + 1, n):
            p = _mirror_pad(_mirror_pad(values, d), e)
            pp = _shift(_shift(p, d, 2, 0), e, 2, 0)
            pm = _shift(_shift(p, d, 2, 0), e, 0, -2)
            mp = _shift(_shift(p, d, 0, -2), e, 2, 0)
            mm = _shift(_shift(p, d, 0, -2), e, 0, -2)
            mixed = (pp - pm - mp + mm) / (4.0 * grid.spacing[d] * grid.spacing[e])
            frob += 2.0 * mixed**2
    return frob


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def discrete_l2(grid: Grid, values: np.ndarray) -> float:
    """``sqrt(sum v^2 * cell volume)``, the norm that the solver's ``tol`` and
    ``RESIDUAL_GATE`` are stated in; not ``lp_norm(·, 2)``, whose ``** 0.5``
    can round differently."""
    return float(np.sqrt(np.sum(values**2) * grid.cell_volume))


def lp_norm(field: ScalarField, q: float) -> float:
    """Discrete ``L^q`` norm of a scalar field."""
    if q < 1:
        raise ParameterError("lp_norm requires q >= 1")
    vals = np.abs(field.values)
    if np.isinf(q):
        return float(vals.max())
    return float((np.sum(vals**q) * field.grid.cell_volume) ** (1.0 / q))


# ---------------------------------------------------------------------------
# binary field snapshots
# ---------------------------------------------------------------------------


def save_field(path, field: ScalarField) -> None:
    """Write a field as a flat little-endian float64 blob with a shape header."""
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<II", 1, g.ndim))
        fh.write(struct.pack(f"<{g.ndim}Q", *g.cells))
        fh.write(struct.pack(f"<{g.ndim}d", *g.domain.extents))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:

        def take(size):
            chunk = fh.read(size)
            if len(chunk) != size:
                raise ContractError(f"{path}: truncated field snapshot")
            return chunk

        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise ContractError(f"{path}: not a field snapshot")
        version, ndim = struct.unpack("<II", take(8))
        if version != 1:
            raise ContractError(f"{path}: unsupported snapshot version {version}")
        if ndim not in (2, 3):
            raise ContractError(f"{path}: a field snapshot has 2 or 3 axes, not {ndim}")
        cells = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        extents = struct.unpack(f"<{ndim}d", take(8 * ndim))
        # the header's cell counts are checked against the file's length
        # before anything is read or allocated for them
        size = 8 * math.prod(cells)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:
            raise ContractError(f"{path}: truncated field snapshot")
        if size < left:
            raise ContractError(f"{path}: trailing bytes after the field data")
        data = np.frombuffer(take(size), dtype="<f8")
    grid = Grid(Box(extents), cells)
    return ScalarField(grid, data.reshape(cells).astype(float))
