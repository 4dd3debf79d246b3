"""Semi-Lagrangian density transport and the level-set-measure diagnostic.

Characteristics are backtracked with a second-order midpoint rule and the
advected field is read off by monotone (convex-weight) bilinear
interpolation, so min/max bounds of the transported field are preserved
by construction.  Midpoints and feet leaving the domain clamp to the
boundary, which is consistent with the no-slip condition there.  The
feet get one `Stencil`, built once, which serves the density and the
step's thermal content; only these transported fields are clamped to
the hull of their corner values.  The velocity is not transported, so
its midpoint values are plain bilinear reads that share one cell index
and one pair of fractions between u and v.
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
    flat node index k of its cell's corner (i, j) and the weights of the
    corners (i, j), (i+1, j), (i, j+1), (i+1, j+1), stacked along the
    first axis.  Those corners sit at flat indices k, k + row, k + 1 and
    k + row + 1, with row = ny + 1."""
    index: np.ndarray
    weight: np.ndarray
    row: int

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Nodal values interpolated at the stencil's points, clamped to
        the hull of each point's four corner values so min/max bounds
        survive rounding exactly."""
        flat = values.ravel()
        k, row = self.index, self.row
        # each corner is a gather at k from the flat values shifted by
        # its offset, so no offset index array is formed
        v00 = flat.take(k)
        v10 = flat[row:].take(k)
        v01 = flat[1:].take(k)
        v11 = flat[row + 1:].take(k)
        w00, w10, w01, w11 = self.weight
        out = w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11
        lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
        hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
        return _clamp(out, lo, hi)


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


def bilinear_stencil(grid: Grid, fx: np.ndarray, fy: np.ndarray) -> Stencil:
    """The bilinear `Stencil` at points (fx, fy); points outside the
    domain read off its nearest wall."""
    # built in place: besides the stencil's own index and weights, only
    # the cell coordinates and the row index j are allocated
    tx = np.divide(fx, grid.hx)
    ty = np.divide(fy, grid.hy)
    index = _corner_index(grid, tx, ty)
    # each corner's weight is tx or 1 - tx times ty or 1 - ty; 1 - tx and
    # 1 - ty are held in weight[0] and weight[1] until their last product
    weight = np.empty((4,) + tx.shape)
    lx = np.subtract(1, tx, out=weight[0])
    ly = np.subtract(1, ty, out=weight[1])
    np.multiply(lx, ty, out=weight[2])
    np.multiply(tx, ty, out=weight[3])
    lx *= ly
    ly *= tx
    return Stencil(index, weight, grid.ny + 1)


def _backtrack(grid: Grid, dx: np.ndarray, dy: np.ndarray):
    """The nodes moved back by (dx, dy) and clamped to the domain, formed
    in place of dx and dy."""
    X, Y = grid.nodes()
    np.subtract(X, dx, out=dx)
    np.subtract(Y, dy, out=dy)
    _clamp(dx, 0.0, grid.Lx)
    _clamp(dy, 0.0, grid.Ly)
    return dx, dy


def _lerp(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a + s (b - a), formed in place of a, with b as scratch."""
    b -= a
    b *= s
    a += b
    return a


def _midpoint_velocity(grid: Grid, u: VectorField, dt: float) -> list:
    """u and v at the midpoints x - (dt/2) u of the characteristics,
    clamped to the domain.  The midpoints are formed in cell units, node
    index minus (dt/2) u / h, and each component is read there without a
    hull clamp: a lerp along x on the cell's two y edges, then one along
    y, through one corner index and one pair of fractions."""
    half = 0.5 * dt
    tx = np.multiply(u.u, half / grid.hx)
    ty = np.multiply(u.v, half / grid.hy)
    np.subtract(np.arange(grid.nx + 1)[:, None], tx, out=tx)
    np.subtract(np.arange(grid.ny + 1)[None, :], ty, out=ty)
    k = _corner_index(grid, tx, ty)
    row = grid.ny + 1
    mid = []
    for flat in (u.u.ravel(), u.v.ravel()):
        lower = _lerp(flat.take(k), flat[row:].take(k), tx)
        upper = _lerp(flat[1:].take(k), flat[row + 1:].take(k), tx)
        mid.append(_lerp(lower, upper, ty))
    return mid


def compute_feet(grid: Grid, u: VectorField, dt: float) -> Stencil:
    """The stencil at the characteristic feet x - dt u, found by a
    midpoint backtrack; midpoints and feet are clamped to the domain."""
    um, vm = _midpoint_velocity(grid, u, dt)
    um *= dt
    vm *= dt
    return bilinear_stencil(grid, *_backtrack(grid, um, vm))


def advect_values(grid: Grid, values: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Nodal values carried along characteristics: `values` read off at
    the feet whose stencil `compute_feet` returned."""
    if np.shape(values) != grid.shape:
        raise ValueError(f"field shape {np.shape(values)} does not match grid {grid.shape}")
    return stencil.apply(values)


def advect_density(rho: ScalarField, u: VectorField, dt: float):
    """One transport step of the continuity equation along characteristics.

    Returns rho_new and the stencil of the feet it was read off at, or
    rho's copy and None when u = 0 and nothing moves; the step's other
    conserved quantities move through the same stencil.  Preserves
    min/max of rho exactly (discrete maximum principle).  A step whose
    displacement exceeds CFL_CAP cells raises StepError, so the time
    loop retries it with a smaller dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = rho.grid
    h = min(grid.hx, grid.hy)
    speed = u.max_speed()
    if dt * speed > CFL_CAP * h:
        raise StepError(
            f"dt*max|u| = {dt * speed:.3g} exceeds CFL cap {CFL_CAP}*h = {CFL_CAP * h:.3g}")
    if speed == 0.0:
        return rho.copy(), None
    stencil = compute_feet(grid, u, dt)
    return ScalarField(grid, advect_values(grid, rho.values, stencil)), stencil


def level_set_measure(rho: ScalarField, alpha: float, beta: float) -> float:
    """Quadrature measure of {x : alpha <= rho(x) <= beta}."""
    if alpha > beta:
        raise ValueError("alpha must not exceed beta")
    inside = (rho.values >= alpha) & (rho.values <= beta)
    return integrate_values(rho.grid, inside)
