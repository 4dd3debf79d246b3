"""Semi-Lagrangian density transport and the level-set-measure diagnostic.

Characteristics are backtracked with a second-order midpoint rule and the
advected field is read off by monotone (convex-weight) bilinear
interpolation, so min/max bounds of the transported field are preserved
by construction.  Feet leaving the domain clamp to the boundary, which is
consistent with the no-slip condition there.  Each set of points gets
one `Stencil`, built once: the midpoints serve both velocity components,
and the feet serve the density and the step's thermal content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepError
from .grid import Grid, ScalarField, VectorField, integrate_values

CFL_CAP = 5.0


def _clamp(fx: np.ndarray, fy: np.ndarray, grid: Grid):
    return np.clip(fx, 0.0, grid.Lx), np.clip(fy, 0.0, grid.Ly)


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
        return np.clip(out, lo, hi)


def bilinear_stencil(grid: Grid, fx: np.ndarray, fy: np.ndarray) -> Stencil:
    """The bilinear `Stencil` at points (fx, fy); points outside the
    domain read off its nearest wall."""
    sx = np.clip(fx / grid.hx, 0.0, grid.nx)
    sy = np.clip(fy / grid.hy, 0.0, grid.ny)
    i = np.minimum(sx.astype(int), grid.nx - 1)
    j = np.minimum(sy.astype(int), grid.ny - 1)
    tx = sx - i
    ty = sy - j
    # each corner's weight is tx or 1 - tx times ty or 1 - ty
    lx, ly = 1 - tx, 1 - ty
    row = grid.ny + 1
    weight = np.empty((4,) + tx.shape)
    np.multiply(lx, ly, out=weight[0])
    np.multiply(tx, ly, out=weight[1])
    np.multiply(lx, ty, out=weight[2])
    np.multiply(tx, ty, out=weight[3])
    return Stencil(i * row + j, weight, row)


def compute_feet(grid: Grid, u: VectorField, dt: float) -> Stencil:
    """The stencil at the characteristic feet x - dt u, found by a
    midpoint backtrack; midpoints and feet are clamped to the domain."""
    X, Y = grid.nodes()
    mid = bilinear_stencil(grid, *_clamp(X - 0.5 * dt * u.u,
                                         Y - 0.5 * dt * u.v, grid))
    um = mid.apply(u.u)
    vm = mid.apply(u.v)
    return bilinear_stencil(grid, *_clamp(X - dt * um, Y - dt * vm, grid))


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
