"""Uniform rectangular grid, nodal fields and second-order discrete calculus.

The domain is the rectangle [0, Lx] x [0, Ly] discretized with nx x ny
cells, fields live on the (nx+1) x (ny+1) nodes.  Quadrature is the
tensor-product trapezoid rule, all stencils are second order.
"""

from __future__ import annotations

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
        if self.Lx <= 0 or self.Ly <= 0:
            raise ValueError("domain lengths must be positive")
        weights = np.outer(*self.axis_weights())
        weights.flags.writeable = False
        object.__setattr__(self, "_quad_weights", weights)

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
        """Meshgrid node coordinates, shape (nx+1, ny+1) each."""
        return np.meshgrid(self.x, self.y, indexing="ij")

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
        return float(np.hypot(self.u, self.v).max())

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
    """Centered interior / one-sided second-order boundary first derivative."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def grad_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _d_axis(values, grid.hx, 0), _d_axis(values, grid.hy, 1)


def h1_sq_values(grid: Grid, values: np.ndarray) -> float:
    """int values^2 + |grad values|^2, the squared H1 norm."""
    gx, gy = grad_values(grid, values)
    return integrate_values(grid, values ** 2 + gx ** 2 + gy ** 2)


def norm_H1(f: ScalarField) -> float:
    return float(np.sqrt(max(h1_sq_values(f.grid, f.values), 0.0)))


def write_snapshot(path, f: ScalarField, time: float, name: str) -> None:
    """Plain-text snapshot: header lines, then row-major values one per line."""
    g = f.grid
    header = (f"# nsfourier field snapshot\nnx = {g.nx}\nny = {g.ny}\n"
              f"Lx = {g.Lx!r}\nLy = {g.Ly!r}\ntime = {time!r}\nname = {name}\n")
    with open(path, "w") as fh:
        fh.write(header + "".join(f"{val!r}\n" for val in f.values.ravel().tolist()))


def read_snapshot(path) -> tuple[ScalarField, float, str]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    body_start = 1
    for i, line in enumerate(lines[1:], start=1):
        if "=" not in line:
            body_start = i
            break
        key, _, val = line.partition("=")
        header[key.strip()] = val.strip()
        body_start = i + 1
    grid = Grid(int(header["nx"]), int(header["ny"]),
                float(header["Lx"]), float(header["Ly"]))
    values = np.array([float(s) for s in lines[body_start:] if s.strip()])
    f = ScalarField(grid, values.reshape(grid.shape))
    return f, float(header["time"]), header["name"]
