"""Semi-Lagrangian density transport and the level-set-measure diagnostic.

Characteristics are backtracked with a second-order midpoint rule and the
advected field is read off by monotone (convex-weight) bilinear
interpolation, so min/max bounds of the transported field are preserved
by construction.  Feet leaving the domain clamp to the boundary, which is
consistent with the no-slip condition there.
"""

from __future__ import annotations

import numpy as np

from .errors import StepError
from .grid import Grid, ScalarField, VectorField, integrate_values

CFL_CAP = 5.0


def _clamp(fx: np.ndarray, fy: np.ndarray, grid: Grid):
    return np.clip(fx, 0.0, grid.Lx), np.clip(fy, 0.0, grid.Ly)


def interpolate_bilinear(grid: Grid, values: np.ndarray,
                         fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of nodal values at points (fx, fy)."""
    sx = np.clip(fx / grid.hx, 0.0, grid.nx)
    sy = np.clip(fy / grid.hy, 0.0, grid.ny)
    i = np.minimum(sx.astype(int), grid.nx - 1)
    j = np.minimum(sy.astype(int), grid.ny - 1)
    tx = sx - i
    ty = sy - j
    v00 = values[i, j]
    v10 = values[i + 1, j]
    v01 = values[i, j + 1]
    v11 = values[i + 1, j + 1]
    out = ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
           + (1 - tx) * ty * v01 + tx * ty * v11)
    # clamp to the corner hull so min/max bounds survive rounding exactly
    lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
    hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
    return np.clip(out, lo, hi)


def compute_feet(grid: Grid, u: VectorField, dt: float):
    """Characteristic feet x - dt u via a midpoint backtrack, clamped."""
    X, Y = grid.nodes()
    mx, my = _clamp(X - 0.5 * dt * u.u, Y - 0.5 * dt * u.v, grid)
    um = interpolate_bilinear(grid, u.u, mx, my)
    vm = interpolate_bilinear(grid, u.v, mx, my)
    return _clamp(X - dt * um, Y - dt * vm, grid)


def advect_values(grid: Grid, values: np.ndarray, feet) -> np.ndarray:
    """Nodal values carried along characteristics: `values` read off at
    the feet (fx, fy) that `compute_feet` returned."""
    return interpolate_bilinear(grid, values, *feet)


def advect_density(rho: ScalarField, u: VectorField, dt: float):
    """One transport step of the continuity equation along characteristics.

    Returns rho_new and the feet it was read off at, or rho's copy and
    None when u = 0 and nothing moves; the step's other conserved
    quantities move along the same feet.  Preserves min/max of rho
    exactly (discrete maximum principle).  A step whose displacement
    exceeds CFL_CAP cells raises StepError, so the time loop retries it
    with a smaller dt."""
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
    feet = compute_feet(grid, u, dt)
    return ScalarField(grid, advect_values(grid, rho.values, feet)), feet


def level_set_measure(rho: ScalarField, alpha: float, beta: float) -> float:
    """Quadrature measure of {x : alpha <= rho(x) <= beta}."""
    if alpha > beta:
        raise ValueError("alpha must not exceed beta")
    inside = (rho.values >= alpha) & (rho.values <= beta)
    return integrate_values(rho.grid, inside)
