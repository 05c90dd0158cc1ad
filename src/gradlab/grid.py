"""Cell-centered finite-volume grids on box domains with Neumann ghosts.

All differential operators use even-reflection (mirror) ghost cells, so the
discrete normal derivative vanishes identically on every boundary face.  The
divergence is assembled in flux form with zero boundary flux, which makes the
discrete divergence theorem and the gradient/divergence adjointness exact up
to rounding.  The integral checks downstream lean on both identities, so do
not change the ghost policy without revisiting them.

Conventions
-----------
Scalar data lives at cell centers, shape ``grid.cells``.  Face data along
axis ``d`` has shape ``cells`` with entry ``d`` enlarged by one; index ``i``
along that axis addresses the face between cells ``i-1`` and ``i``, with the
two boundary faces at the ends.  Arrays are C-ordered throughout, which is
also the order used by the sparse operator builders and the binary field
format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
        if any(e <= 0 for e in self.extents):
            raise ParameterError("box extents must be positive")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))


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
    def size(self) -> int:
        return int(np.prod(self.cells))

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

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(self.domain, tuple(n * factor for n in self.cells))


def build_grid(domain: Box, cells: tuple[int, ...]) -> Grid:
    return Grid(domain, cells)


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ContractError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )


@dataclass
class VectorField:
    grid: Grid
    components: np.ndarray  # shape (ndim, *cells)

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        expected = (self.grid.ndim,) + self.grid.shape
        if self.components.shape != expected:
            raise ContractError(
                f"vector field shape {self.components.shape}, expected {expected}"
            )

    def magnitude(self) -> ScalarField:
        return ScalarField(self.grid, np.sqrt(np.sum(self.components**2, axis=0)))


def _same_grid(a, b):
    if a.grid.cells != b.grid.cells or a.grid.domain != b.grid.domain:
        raise ContractError("fields live on different grids")


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


def gradient(u: ScalarField) -> VectorField:
    """Centered-difference gradient at cell centers with mirror ghosts."""
    g = u.grid
    comps = np.empty((g.ndim,) + g.shape)
    for d in range(g.ndim):
        p = _mirror_pad(u.values, d)
        comps[d] = (_shift(p, d, 2, 0) - _shift(p, d, 0, -2)) / (2.0 * g.spacing[d])
    return VectorField(g, comps)


def face_normal_differences(u: ScalarField) -> list[np.ndarray]:
    """Face-normal differences ``(u_R - u_L)/h`` per axis, zero on the boundary."""
    g = u.grid
    out = []
    for d in range(g.ndim):
        shape = list(g.shape)
        shape[d] += 1
        faces = np.zeros(shape)
        interior = [slice(None)] * g.ndim
        interior[d] = slice(1, -1)
        faces[tuple(interior)] = np.diff(u.values, axis=d) / g.spacing[d]
        out.append(faces)
    return out


def face_average(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Arithmetic face average of a cell array; boundary faces copy the edge cell."""
    p = _mirror_pad(values, axis)
    return 0.5 * (_shift(p, axis, 1, 0) + _shift(p, axis, 0, -1))


def divergence_flux(
    grid: Grid,
    coefficient_at_faces: list[np.ndarray],
    grad_normal_at_faces: list[np.ndarray],
) -> ScalarField:
    """Flux-form divergence ``div(c * g)`` from per-axis face data.

    Boundary faces carry zero flux regardless of the supplied values, which
    is the discrete Neumann condition.  The cell sum of the result times the
    cell volume therefore telescopes to zero exactly.
    """
    if len(coefficient_at_faces) != grid.ndim or len(grad_normal_at_faces) != grid.ndim:
        raise ContractError("need one face array per axis")
    div = np.zeros(grid.shape)
    for d in range(grid.ndim):
        shape = list(grid.shape)
        shape[d] += 1
        c = np.asarray(coefficient_at_faces[d], dtype=float)
        gn = np.asarray(grad_normal_at_faces[d], dtype=float)
        if c.shape != tuple(shape) or gn.shape != tuple(shape):
            raise ContractError(f"face arrays along axis {d} must have shape {shape}")
        flux = c * gn
        edge = [slice(None)] * grid.ndim
        edge[d] = 0
        flux[tuple(edge)] = 0.0
        edge[d] = -1
        flux[tuple(edge)] = 0.0
        div += np.diff(flux, axis=d) / grid.spacing[d]
    return ScalarField(grid, div)


def dirichlet_form(
    grid: Grid,
    coefficient_at_faces: list[np.ndarray],
    u: ScalarField,
    v: ScalarField,
) -> float:
    """Face-based energy pairing ``sum_f c_f (Du)_f (Dv)_f vol``.

    This is the exact negative adjoint of :func:`divergence_flux` applied to
    ``u`` and integrated against ``v``.
    """
    _same_grid(u, v)
    gu = face_normal_differences(u)
    gv = face_normal_differences(v)
    total = 0.0
    for d in range(grid.ndim):
        c = np.asarray(coefficient_at_faces[d], dtype=float)
        edge = [slice(None)] * grid.ndim
        prod = c * gu[d] * gv[d]
        edge[d] = 0
        prod[tuple(edge)] = 0.0
        edge[d] = -1
        prod[tuple(edge)] = 0.0
        total += prod.sum()
    return float(total * grid.cell_volume)


def second_derivatives(u: ScalarField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Pointwise Hessian invariants ``(|D2u|^2, laplacian, infinity-laplacian)``.

    Pure second differences are the standard three-point stencil, mixed ones
    the centered cross stencil, both with mirror ghosts.  The infinity
    laplacian contracts the Hessian twice against the centered gradient.
    """
    g = u.grid
    n = g.ndim
    grad = gradient(u).components
    pure = []
    for d in range(n):
        p = _mirror_pad(u.values, d)
        pure.append(
            (_shift(p, d, 2, 0) - 2.0 * u.values + _shift(p, d, 0, -2))
            / g.spacing[d] ** 2
        )
    frob = np.zeros(g.shape)
    lap = np.zeros(g.shape)
    inf_lap = np.zeros(g.shape)
    for d in range(n):
        frob += pure[d] ** 2
        lap += pure[d]
        inf_lap += pure[d] * grad[d] * grad[d]
    for d in range(n):
        for e in range(d + 1, n):
            p = _mirror_pad(_mirror_pad(u.values, d), e)
            pp = _shift(_shift(p, d, 2, 0), e, 2, 0)
            pm = _shift(_shift(p, d, 2, 0), e, 0, -2)
            mp = _shift(_shift(p, d, 0, -2), e, 2, 0)
            mm = _shift(_shift(p, d, 0, -2), e, 0, -2)
            mixed = (pp - pm - mp + mm) / (4.0 * g.spacing[d] * g.spacing[e])
            frob += 2.0 * mixed**2
            inf_lap += 2.0 * mixed * grad[d] * grad[e]
    return (
        ScalarField(g, frob),
        ScalarField(g, lap),
        ScalarField(g, inf_lap),
    )


# ---------------------------------------------------------------------------
# integrals and norms
# ---------------------------------------------------------------------------


def integrate(field: ScalarField) -> float:
    """Midpoint-rule integral over the box."""
    return float(field.values.sum() * field.grid.cell_volume)


def lp_norm(field: ScalarField | VectorField, q: float) -> float:
    """Discrete ``L^q`` norm; vector fields are reduced to their magnitude."""
    if q < 1:
        raise ParameterError("lp_norm requires q >= 1")
    if isinstance(field, VectorField):
        field = field.magnitude()
    vals = np.abs(field.values)
    if np.isinf(q):
        return float(vals.max())
    return float((np.sum(vals**q) * field.grid.cell_volume) ** (1.0 / q))


@dataclass
class NormalScan:
    """Outward one-sided normal derivatives on each boundary face."""

    values: dict = field(default_factory=dict)  # (axis, side) -> ndarray
    max_value: float = -np.inf


def normal_derivative_scan(u: ScalarField) -> NormalScan:
    """One-sided outward normal differences across every boundary face.

    Positive entries flag outward growth; a field compatible with the interior
    maximum structure of the gradient should scan nonpositive up to O(h).
    """
    g = u.grid
    scan = NormalScan()
    for d in range(g.ndim):
        h = g.spacing[d]
        lo = [slice(None)] * g.ndim
        nxt = [slice(None)] * g.ndim
        lo[d], nxt[d] = 0, 1
        low = (u.values[tuple(lo)] - u.values[tuple(nxt)]) / h
        lo[d], nxt[d] = -1, -2
        high = (u.values[tuple(lo)] - u.values[tuple(nxt)]) / h
        scan.values[(d, 0)] = low
        scan.values[(d, 1)] = high
        scan.max_value = max(scan.max_value, float(low.max()), float(high.max()))
    return scan


# ---------------------------------------------------------------------------
# sparse operator builders (C-order flattening)
# ---------------------------------------------------------------------------


def _kron_along(mat: sp.spmatrix, shape: tuple[int, ...], axis: int) -> sp.csr_matrix:
    before = int(np.prod(shape[:axis], dtype=np.int64)) if axis > 0 else 1
    after = int(np.prod(shape[axis + 1 :], dtype=np.int64)) if axis + 1 < len(shape) else 1
    out = mat
    if after > 1:
        out = sp.kron(out, sp.identity(after, format="csr"), format="csr")
    if before > 1:
        out = sp.kron(sp.identity(before, format="csr"), out, format="csr")
    return out.tocsr()


def _centered_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.zeros(n)
    upper = np.full(n - 1, 0.5 / h)
    lower = np.full(n - 1, -0.5 / h)
    m = sp.diags([lower, main, upper], [-1, 0, 1], format="lil")
    # mirror ghosts collapse the boundary rows onto interior neighbours
    m[0, 0] = -0.5 / h
    m[0, 1] = 0.5 / h
    m[n - 1, n - 2] = -0.5 / h
    m[n - 1, n - 1] = 0.5 / h
    return m.tocsr()


def _face_difference_1d(n: int, h: float) -> sp.csr_matrix:
    m = sp.lil_matrix((n + 1, n))
    for f in range(1, n):
        m[f, f - 1] = -1.0 / h
        m[f, f] = 1.0 / h
    return m.tocsr()


def _face_average_1d(n: int) -> sp.csr_matrix:
    m = sp.lil_matrix((n + 1, n))
    m[0, 0] = 1.0
    m[n, n - 1] = 1.0
    for f in range(1, n):
        m[f, f - 1] = 0.5
        m[f, f] = 0.5
    return m.tocsr()


def centered_gradient_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """Sparse form of the centered gradient component along ``axis``."""
    return _kron_along(
        _centered_1d(grid.cells[axis], grid.spacing[axis]), grid.shape, axis
    )


def face_difference_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """Cells to faces: normal difference with zero boundary rows."""
    shape = list(grid.shape)
    out = _kron_along(
        _face_difference_1d(grid.cells[axis], grid.spacing[axis]),
        tuple(shape),
        axis,
    )
    return out


def face_average_matrix(grid: Grid, axis: int) -> sp.csr_matrix:
    """Cells to faces: arithmetic average, edge cells copied to boundary faces."""
    return _kron_along(_face_average_1d(grid.cells[axis]), grid.shape, axis)


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
        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise ContractError(f"{path}: not a field snapshot")
        version, ndim = struct.unpack("<II", fh.read(8))
        if version != 1:
            raise ContractError(f"{path}: unsupported snapshot version {version}")
        cells = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        extents = struct.unpack(f"<{ndim}d", fh.read(8 * ndim))
        count = int(np.prod(cells))
        data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    grid = Grid(Box(extents), cells)
    return ScalarField(grid, data.reshape(cells).astype(float))
