"""Uniform rectangular grid, nodal fields and second-order discrete calculus.

The domain is the rectangle [0, Lx] x [0, Ly] discretized with nx x ny
cells, fields live on the (nx+1) x (ny+1) nodes.  Quadrature is the
tensor-product trapezoid rule, all stencils are second order.  Snapshots
are binary `.npz` archives that read back bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs nx, ny >= 4, got ({self.nx}, {self.ny})")
        if not (0 < self.Lx < math.inf and 0 < self.Ly < math.inf):
            raise ValueError("domain lengths must be positive and finite")
        weights = np.outer(*self.axis_weights())
        nodes = np.meshgrid(self.x, self.y, indexing="ij")
        for arr in (weights, *nodes):
            arr.flags.writeable = False
        object.__setattr__(self, "_quad_weights", weights)
        object.__setattr__(self, "_nodes", tuple(nodes))

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny + 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.Lx, self.nx + 1)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.Ly, self.ny + 1)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid node coordinates, shape (nx+1, ny+1) each.  Built once
        per grid and read-only."""
        return self._nodes

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1-D trapezoid-rule weights along x and along y."""
        wx = np.full(self.nx + 1, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny + 1, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return wx, wy

    def quad_weights(self) -> np.ndarray:
        """Trapezoid-rule nodal weights; sums to the domain area.  Built
        once per grid and read-only."""
        return self._quad_weights


def _check_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    return values


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(self.grid, self.values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.nodes()
        return cls(grid, np.asarray(fn(X, Y), dtype=float) + np.zeros(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass
class VectorField:
    grid: Grid
    u: np.ndarray
    v: np.ndarray
    # analytic gradient components, populated by the stream-function basis
    du_dx: np.ndarray | None = field(default=None, repr=False)
    du_dy: np.ndarray | None = field(default=None, repr=False)
    dv_dx: np.ndarray | None = field(default=None, repr=False)
    dv_dy: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.u = _check_values(self.grid, self.u)
        self.v = _check_values(self.grid, self.v)

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy())

    def max_speed(self) -> float:
        return float(np.sqrt(self.speed_sq().max()))

    def speed_sq(self) -> np.ndarray:
        return self.u ** 2 + self.v ** 2

    def grad_sq(self) -> np.ndarray:
        """|grad u|^2 from the analytic gradient components."""
        return self.du_dx ** 2 + self.du_dy ** 2 + self.dv_dx ** 2 + self.dv_dy ** 2

    def strain_sq(self) -> np.ndarray:
        """|D(u)|^2 with D(u) = sym(grad u), from the analytic gradients."""
        d12 = 0.5 * (self.du_dy + self.dv_dx)
        return self.du_dx ** 2 + self.dv_dy ** 2 + 2.0 * d12 ** 2


def integrate_values(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid-rule integral over the domain; exact for bilinear fields."""
    return float(np.sum(grid.quad_weights() * values))


def _d_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered interior / one-sided second-order boundary first derivative
    of a 2-D nodal array along `axis` (0 or 1)."""
    out = np.empty_like(values)
    # the same three stencils on both axes: along y they run on the
    # transposed views, which share memory with values and out
    f, g = (values, out) if axis == 0 else (values.T, out.T)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def grad_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _d_axis(values, grid.hx, 0), _d_axis(values, grid.hy, 1)


def h1_sq_values(grid: Grid, values: np.ndarray) -> float:
    """int values^2 + |grad values|^2, the squared H1 norm."""
    gx, gy = grad_values(grid, values)
    return integrate_values(grid, values ** 2 + gx ** 2 + gy ** 2)


def norm_H1(f: ScalarField) -> float:
    return float(np.sqrt(max(h1_sq_values(f.grid, f.values), 0.0)))


def write_snapshot(path, f: ScalarField, time: float, name: str) -> None:
    """Binary snapshot at exactly `path`: an uncompressed `.npz` archive
    holding `values` (float64, shape (nx+1, ny+1)), `time`, `Lx`, `Ly`
    and `name`.  Written through an open handle, so no `.npz` is
    appended to the name; zipfile stamps every member with the same
    fixed date, so equal fields give equal bytes."""
    g = f.grid
    with open(path, "wb") as fh:
        np.savez(fh, values=f.values, time=np.float64(time),
                 Lx=np.float64(g.Lx), Ly=np.float64(g.Ly), name=np.str_(name))


def read_snapshot(path) -> tuple[ScalarField, float, str]:
    """The field, time and name `write_snapshot` stored; an archive that
    needs unpickling is refused with ValueError."""
    with np.load(path, allow_pickle=False) as data:
        values = data["values"]
        if values.ndim != 2:
            raise ValueError(f"snapshot values must be 2-D, got shape {values.shape}")
        grid = Grid(values.shape[0] - 1, values.shape[1] - 1,
                    float(data["Lx"]), float(data["Ly"]))
        return ScalarField(grid, values), float(data["time"]), str(data["name"])
