import numpy as np
import pytest

from nsfourier.errors import StepError
from nsfourier.grid import Grid, ScalarField, VectorField
from nsfourier.transport import (advect_density, advect_values,
                                 interpolate_bilinear, level_set_measure)


def blob(grid, cx=0.5, cy=0.5, width=0.1):
    return ScalarField.from_function(
        grid, lambda x, y: 1.0 + np.exp(-((x - cx) ** 2 + (y - cy) ** 2)
                                        / (2 * width ** 2)))


def uniform_flow(grid, ux, uy):
    return VectorField(grid, np.full(grid.shape, float(ux)),
                       np.full(grid.shape, float(uy)))


def test_zero_velocity_is_identity():
    grid = Grid(nx=32, ny=32)
    rho = blob(grid)
    out = advect_density(rho, VectorField.zero(grid), 0.1)
    assert np.array_equal(out.values, rho.values)


def test_interpolation_at_nodes_exact():
    grid = Grid(nx=16, ny=16)
    rng = np.random.default_rng(0)
    values = rng.random(grid.shape)
    X, Y = grid.nodes()
    assert np.array_equal(interpolate_bilinear(grid, values, X, Y), values)


def test_uniform_translation_order():
    # half-cell shift at every resolution so the interpolation error
    # carries the same fractional-offset prefactor h^2 tx (1 - tx)
    errs = []
    for n in (32, 64, 128):
        grid = Grid(nx=n, ny=n)
        shift = 0.5 / n
        rho = blob(grid)
        out = advect_density(rho, uniform_flow(grid, 1.0, 0.0), shift)
        shifted = ScalarField.from_function(
            grid, lambda x, y: 1.0 + np.exp(-((x - shift - 0.5) ** 2
                                              + (y - 0.5) ** 2) / 0.02))
        interior = np.s_[n // 4: -n // 4, n // 4: -n // 4]
        errs.append(np.max(np.abs(out.values[interior]
                                  - shifted.values[interior])))
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_min_max_preserved_random_steps():
    grid = Grid(nx=24, ny=24)
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = ScalarField(grid, rng.random(grid.shape))
        u = VectorField(grid, 0.5 * rng.standard_normal(grid.shape),
                        0.5 * rng.standard_normal(grid.shape))
        out = advect_density(rho, u, 0.05)
        assert out.min() >= rho.min()
        assert out.max() <= rho.max()


def test_cfl_cap_enforced():
    grid = Grid(nx=16, ny=16)
    rho = blob(grid)
    fast = uniform_flow(grid, 100.0, 0.0)
    with pytest.raises(StepError):
        advect_density(rho, fast, 1.0)


def test_nonpositive_dt_rejected():
    grid = Grid(nx=16, ny=16)
    with pytest.raises(ValueError):
        advect_density(blob(grid), VectorField.zero(grid), 0.0)


def test_level_set_measure_full_domain():
    grid = Grid(nx=32, ny=32, Lx=2.0, Ly=1.5)
    rho = ScalarField.constant(grid, 1.0)
    assert level_set_measure(rho, 0.5, 2.0) == pytest.approx(3.0, rel=1e-13)
    assert level_set_measure(rho, 0.0, rho.max()) == pytest.approx(3.0, rel=1e-13)


def test_level_set_measure_empty():
    grid = Grid(nx=32, ny=32)
    rho = ScalarField.constant(grid, 1.0)
    assert level_set_measure(rho, 2.0, 3.0) == 0.0


def test_level_set_measure_bad_interval():
    grid = Grid(nx=16, ny=16)
    with pytest.raises(ValueError):
        level_set_measure(ScalarField.constant(grid, 1.0), 2.0, 1.0)


def test_rotation_preserves_level_set_measure():
    # coarse-grid variant of the drift study; the tight 2% bound runs at
    # 128x128 in the acceptance suite
    n = 64
    grid = Grid(nx=n, ny=n)
    rho = blob(grid, cx=0.5, cy=0.65, width=0.15)
    omega = 2.0 * np.pi
    X, Y = grid.nodes()
    u = VectorField(grid, -omega * (Y - 0.5), omega * (X - 0.5))
    steps = n
    dt = 1.0 / steps
    measure0 = level_set_measure(rho, 1.2, np.inf)
    f = rho
    for _ in range(steps):
        f = advect_density(f, u, dt)
    measure1 = level_set_measure(f, 1.2, np.inf)
    assert abs(measure1 - measure0) <= 0.08 * measure0
