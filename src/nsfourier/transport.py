"""Semi-Lagrangian density transport and the level-set-measure diagnostic.

Characteristics are backtracked with a second-order midpoint rule.  The
midpoints and the feet are both formed in cell units, node index minus
displacement / h, and clamped to the domain, which is consistent with
the no-slip condition there.  Every read goes through one bilinear
kernel: a lerp (1 - s) a + s b along x on the cell's two y edges, then
one along y.  Each lerp is exact at s = 0 and s = 1, so a point on a
node reads that node's value bit for bit, and a zero velocity moves
nothing without a path of its own.  The midpoint velocity is read
unclamped.  The feet get one `Stencil`, built once, which serves the
density and the step's thermal content; only these transported fields
are clamped to the hull of their corner values, so min/max bounds are
preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepError
from .grid import Grid, ScalarField, VectorField, integrate_values

CFL_CAP = 5.0


@dataclass(frozen=True)
class Stencil:
    """Bilinear interpolation at a fixed set of points: for each point the
    flat node index k of its cell's corner (i, j) and the point's
    fractions (tx, ty) within that cell.  The corners (i, j), (i+1, j),
    (i, j+1) and (i+1, j+1) sit at flat indices k, k + row, k + 1 and
    k + row + 1, with row = ny + 1."""
    index: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    row: int

    def _corners(self, values: np.ndarray) -> tuple:
        flat = values.ravel()
        k, row = self.index, self.row
        # each corner is a gather at k from the flat values shifted by
        # its offset, so no offset index array is formed
        return (flat.take(k), flat[row:].take(k), flat[1:].take(k),
                flat[row + 1:].take(k))

    def read(self, values: np.ndarray) -> np.ndarray:
        """Nodal values interpolated at the stencil's points, unclamped."""
        return _bilinear(*self._corners(values), self.tx, self.ty)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Nodal values interpolated at the stencil's points, clamped to
        the hull of each point's four corner values so min/max bounds
        survive rounding exactly."""
        v00, v10, v01, v11 = self._corners(values)
        lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
        hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
        return _clamp(_bilinear(v00, v10, v01, v11, self.tx, self.ty), lo, hi)


def _lerp(a: np.ndarray, b: np.ndarray, s: np.ndarray,
          r: np.ndarray) -> np.ndarray:
    """(1 - s) a + s b with r = 1 - s, formed in place of a, with b as
    scratch."""
    a *= r
    b *= s
    a += b
    return a


def _bilinear(v00, v10, v01, v11, tx, ty) -> np.ndarray:
    """The bilinear kernel: corner values v00, v10, v01, v11 lerped along
    x at tx on the cell's two y edges, then along y at ty, in place of
    the corner values."""
    rx = np.subtract(1.0, tx)
    lower = _lerp(v00, v10, tx, rx)
    upper = _lerp(v01, v11, tx, rx)
    return _lerp(lower, upper, ty, np.subtract(1.0, ty, out=rx))


def _clamp(values: np.ndarray, lo, hi) -> np.ndarray:
    """np.clip(values, lo, hi, out=values) for lo <= hi, without its
    Python-level wrapper."""
    np.maximum(values, lo, out=values)
    return np.minimum(values, hi, out=values)


def _corner_index(grid: Grid, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Flat node index of the corner (i, j) of the cell holding each point
    at cell coordinates (tx, ty).  The coordinates are clamped to the
    domain and replaced in place by the fractions within the cell."""
    _clamp(tx, 0.0, grid.nx)
    _clamp(ty, 0.0, grid.ny)
    k = tx.astype(int)
    j = ty.astype(int)
    np.minimum(k, grid.nx - 1, out=k)
    np.minimum(j, grid.ny - 1, out=j)
    tx -= k
    ty -= j
    k *= grid.ny + 1
    k += j
    return k


def _stencil(grid: Grid, tx: np.ndarray, ty: np.ndarray) -> Stencil:
    """The `Stencil` at cell coordinates (tx, ty), clamped to the domain;
    tx and ty become its fractions in place."""
    return Stencil(_corner_index(grid, tx, ty), tx, ty, grid.ny + 1)


def _moved_back(grid: Grid, u: np.ndarray, v: np.ndarray,
                dt: float) -> Stencil:
    """The `Stencil` at the nodes moved back by dt (u, v): in cell units,
    node index minus dt u / h."""
    tx = np.multiply(u, dt / grid.hx)
    ty = np.multiply(v, dt / grid.hy)
    np.subtract(np.arange(grid.nx + 1)[:, None], tx, out=tx)
    np.subtract(np.arange(grid.ny + 1)[None, :], ty, out=ty)
    return _stencil(grid, tx, ty)


def compute_feet(grid: Grid, u: VectorField, dt: float) -> Stencil:
    """The stencil at the characteristic feet x - dt u(x - (dt/2) u), the
    midpoint backtrack; midpoints and feet are clamped to the domain."""
    mid = _moved_back(grid, u.u, u.v, 0.5 * dt)
    return _moved_back(grid, mid.read(u.u), mid.read(u.v), dt)


def advect_values(grid: Grid, values: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Nodal values carried along characteristics: `values` read off at
    the feet whose stencil `compute_feet` returned."""
    if np.shape(values) != grid.shape:
        raise ValueError(f"field shape {np.shape(values)} does not match grid {grid.shape}")
    return stencil.apply(values)


def advect_density(rho: ScalarField, u: VectorField, dt: float):
    """One transport step of the continuity equation along characteristics.

    Returns rho_new and the stencil of the feet it was read off at; the
    step's other conserved quantities move through the same stencil.
    Preserves min/max of rho exactly (discrete maximum principle).  A
    step whose displacement exceeds CFL_CAP cells raises StepError, so
    the time loop retries it with a smaller dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = rho.grid
    h = min(grid.hx, grid.hy)
    speed = u.max_speed()
    if dt * speed > CFL_CAP * h:
        raise StepError(
            f"dt*max|u| = {dt * speed:.3g} exceeds CFL cap {CFL_CAP}*h = {CFL_CAP * h:.3g}")
    stencil = compute_feet(grid, u, dt)
    return ScalarField(grid, advect_values(grid, rho.values, stencil)), stencil


def level_set_measure(rho: ScalarField, alpha: float, beta: float) -> float:
    """Quadrature measure of {x : alpha <= rho(x) <= beta}."""
    if alpha > beta:
        raise ValueError("alpha must not exceed beta")
    inside = (rho.values >= alpha) & (rho.values <= beta)
    return integrate_values(rho.grid, inside)
