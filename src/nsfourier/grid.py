"""Uniform rectangular grid, nodal fields and second-order discrete calculus.

The domain is the rectangle [0, Lx] x [0, Ly] discretized with nx x ny
cells, fields live on the (nx+1) x (ny+1) nodes.  Quadrature is the
tensor-product trapezoid rule, all stencils are second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError


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

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """1-D trapezoid-rule weights along x and along y."""
        wx = np.full(self.nx + 1, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny + 1, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return wx, wy

    def quad_weights(self) -> np.ndarray:
        """Trapezoid-rule nodal weights; sums to the domain area."""
        return np.outer(*self.axis_weights())


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

    def has_gradients(self) -> bool:
        return self.du_dx is not None

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)

    def max_speed(self) -> float:
        return float(self.magnitude().max())


def integrate(f: ScalarField) -> float:
    """Trapezoid-rule integral over the domain; exact for bilinear fields."""
    return float(np.sum(f.grid.quad_weights() * f.values))


def integrate_values(grid: Grid, values: np.ndarray) -> float:
    return float(np.sum(grid.quad_weights() * values))


def _d_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered interior / one-sided second-order boundary first derivative."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def grad(f: ScalarField) -> VectorField:
    g = f.grid
    return VectorField(g, _d_axis(f.values, g.hx, 0), _d_axis(f.values, g.hy, 1))


def grad_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _d_axis(values, grid.hx, 0), _d_axis(values, grid.hy, 1)


def div(v: VectorField) -> ScalarField:
    g = v.grid
    return ScalarField(g, _d_axis(v.u, g.hx, 0) + _d_axis(v.v, g.hy, 1))


def _lap_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second difference with reflection ghosts (zero normal flux)."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = 2.0 * (f[1] - f[0]) / (h * h)
    out[-1] = 2.0 * (f[-2] - f[-1]) / (h * h)
    return np.moveaxis(out, 0, axis)


def laplacian_neumann(f: ScalarField) -> ScalarField:
    g = f.grid
    return ScalarField(g, _lap_axis(f.values, g.hx, 0) + _lap_axis(f.values, g.hy, 1))


def norm_L2(f: ScalarField) -> float:
    return float(np.sqrt(max(integrate_values(f.grid, f.values ** 2), 0.0)))


def norm_H1(f: ScalarField) -> float:
    gx, gy = grad_values(f.grid, f.values)
    sq = integrate_values(f.grid, f.values ** 2 + gx ** 2 + gy ** 2)
    return float(np.sqrt(max(sq, 0.0)))


def poincare_check(v: ScalarField, rho: ScalarField, M1: float, M2: float,
                   gamma_exp: float) -> dict:
    """Empirical constant in the weighted Poincare inequality
    ||v||_H1 <= C (||grad v||_L2 + int rho |v|).

    Diagnostic only: returns the constant realized by this particular pair.
    """
    if gamma_exp <= 6.0 / 5.0:
        raise ValueError("gamma_exp must exceed 6/5")
    if np.any(rho.values < 0):
        raise ValueError("rho must be non-negative")
    mass = integrate(rho)
    if not (0.0 < M1 <= mass):
        raise ValueError(f"need 0 < M1 <= mass, got M1={M1}, mass={mass}")
    moment = integrate_values(rho.grid, rho.values ** gamma_exp)
    if moment > M2:
        raise ValueError(f"int rho^gamma = {moment} exceeds M2 = {M2}")
    gx, gy = grad_values(v.grid, v.values)
    grad_norm = np.sqrt(max(integrate_values(v.grid, gx ** 2 + gy ** 2), 0.0))
    weighted = integrate_values(v.grid, rho.values * np.abs(v.values))
    denom = grad_norm + weighted
    if denom == 0.0:
        raise DegenerateInputError("v vanishes identically; Poincare quotient undefined")
    return {"constant": norm_H1(v) / denom}


def write_snapshot(path, f: ScalarField, time: float, name: str) -> None:
    """Plain-text snapshot: header lines, then row-major values one per line."""
    g = f.grid
    with open(path, "w") as fh:
        fh.write("# nsfourier field snapshot\n")
        fh.write(f"nx = {g.nx}\n")
        fh.write(f"ny = {g.ny}\n")
        fh.write(f"Lx = {g.Lx!r}\n")
        fh.write(f"Ly = {g.Ly!r}\n")
        fh.write(f"time = {time!r}\n")
        fh.write(f"name = {name}\n")
        for val in f.values.ravel(order="C"):
            fh.write(f"{float(val)!r}\n")


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
