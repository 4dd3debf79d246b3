import numpy as np
import pytest

from nsfourier.errors import StepError
from nsfourier.grid import Grid, ScalarField, VectorField
from nsfourier.transport import (_midpoint_velocity, advect_density,
                                 advect_values, bilinear_stencil,
                                 compute_feet, level_set_measure)


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
    out, stencil = advect_density(rho, VectorField.zero(grid), 0.1)
    assert np.array_equal(out.values, rho.values)
    assert stencil is None


def oracle_bilinear(grid, values, fx, fy):
    """Bilinear interpolation gathered point by point from the 2-D array,
    with the corner-hull clamp: the per-call form the stencil replaced."""
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
    lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
    hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
    return np.clip(out, lo, hi)


def oracle_midpoint_velocity(grid, u, dt):
    """u and v at the midpoints, node index minus (dt/2) u / h clamped to
    the domain in cell units, read point by point by an unclamped
    bilinear lerp: along x on the cell's two y edges, then along y."""
    sx = np.clip(np.arange(grid.nx + 1)[:, None] - u.u * (0.5 * dt / grid.hx),
                 0.0, grid.nx)
    sy = np.clip(np.arange(grid.ny + 1)[None, :] - u.v * (0.5 * dt / grid.hy),
                 0.0, grid.ny)
    i = np.minimum(sx.astype(int), grid.nx - 1)
    j = np.minimum(sy.astype(int), grid.ny - 1)
    tx = sx - i
    ty = sy - j

    def lerp(f):
        a = f[i, j] + tx * (f[i + 1, j] - f[i, j])
        b = f[i, j + 1] + tx * (f[i + 1, j + 1] - f[i, j + 1])
        return a + ty * (b - a)

    return lerp(u.u), lerp(u.v)


def oracle_feet(grid, u, dt):
    """Midpoint-backtracked feet (fx, fy) through the oracle."""
    X, Y = grid.nodes()
    um, vm = oracle_midpoint_velocity(grid, u, dt)
    return (np.clip(X - dt * um, 0.0, grid.Lx),
            np.clip(Y - dt * vm, 0.0, grid.Ly))


def edge_points(grid, rng):
    """Nodes, points on all four walls and at the four corners, interior
    points, and points outside the domain on every side."""
    X, Y = grid.nodes()
    Lx, Ly = grid.Lx, grid.Ly
    s = rng.random(40)
    fx = [X.ravel(), s * Lx, s * Lx, np.zeros(40), np.full(40, Lx),
          np.array([0.0, Lx, 0.0, Lx]), rng.random(200) * Lx,
          rng.uniform(-0.5, 1.5, 200) * Lx,
          np.array([-1e-300, np.nextafter(Lx, np.inf), -5.0])]
    fy = [Y.ravel(), np.zeros(40), np.full(40, Ly), s * Ly, s * Ly,
          np.array([0.0, 0.0, Ly, Ly]), rng.random(200) * Ly,
          rng.uniform(-0.5, 1.5, 200) * Ly,
          np.array([np.nextafter(Ly, np.inf), -1e-300, 3.0 * Ly])]
    return np.concatenate(fx), np.concatenate(fy)


def test_interpolation_at_nodes_exact():
    grid = Grid(nx=16, ny=16)
    rng = np.random.default_rng(0)
    values = rng.random(grid.shape)
    X, Y = grid.nodes()
    assert np.array_equal(bilinear_stencil(grid, X, Y).apply(values), values)


@pytest.mark.parametrize("nx, ny, Lx, Ly", [(16, 16, 1.0, 1.0),
                                            (12, 20, 2.0, 0.7),
                                            (64, 64, 1.0, 1.0)])
def test_stencil_matches_the_oracle_bitwise(nx, ny, Lx, Ly):
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    rng = np.random.default_rng(nx + ny)
    fx, fy = edge_points(grid, rng)
    stencil = bilinear_stencil(grid, fx, fy)
    for values in (rng.standard_normal(grid.shape),
                   1.0 + rng.random(grid.shape) * 1e-12,
                   np.exp(40 * rng.standard_normal(grid.shape))):
        expected = oracle_bilinear(grid, values, fx, fy)
        assert np.array_equal(stencil.apply(values), expected)


def test_stencil_keeps_the_corner_hull_clamp():
    # corner values one ulp apart: the unclamped weighted sum can round
    # outside them, and the stencil must clamp where the oracle does
    grid = Grid(nx=8, ny=8)
    rng = np.random.default_rng(5)
    base = 0.1 + 0.2
    values = base + rng.integers(0, 2, grid.shape) * np.spacing(base)
    fx, fy = rng.random(5000) * grid.Lx, rng.random(5000) * grid.Ly
    got = bilinear_stencil(grid, fx, fy).apply(values)
    assert np.array_equal(got, oracle_bilinear(grid, values, fx, fy))
    assert got.min() >= values.min() and got.max() <= values.max()


def test_feet_stencil_matches_the_oracle_bitwise():
    # u and v at the midpoints, then rho at the feet through one stencil,
    # bitwise equal to interpolating at the oracle's points; a stencil at
    # the midpoints also matches the oracle there
    grid = Grid(nx=24, ny=20, Lx=1.0, Ly=0.8)
    rng = np.random.default_rng(7)
    u = VectorField(grid, rng.standard_normal(grid.shape),
                    rng.standard_normal(grid.shape))
    rho = ScalarField(grid, 1.0 + rng.random(grid.shape))
    for dt in (0.01, 0.05):
        X, Y = grid.nodes()
        mx = np.clip(X - 0.5 * dt * u.u, 0.0, grid.Lx)
        my = np.clip(Y - 0.5 * dt * u.v, 0.0, grid.Ly)
        mid = bilinear_stencil(grid, mx, my)
        assert np.array_equal(mid.apply(u.u), oracle_bilinear(grid, u.u, mx, my))
        assert np.array_equal(mid.apply(u.v), oracle_bilinear(grid, u.v, mx, my))
        for got, want in zip(_midpoint_velocity(grid, u, dt),
                             oracle_midpoint_velocity(grid, u, dt)):
            assert np.array_equal(got, want)
        fx, fy = oracle_feet(grid, u, dt)
        expected = oracle_bilinear(grid, rho.values, fx, fy)
        feet = compute_feet(grid, u, dt)
        assert np.array_equal(advect_values(grid, rho.values, feet), expected)
        out, stencil = advect_density(rho, u, dt)
        assert np.array_equal(out.values, expected)
        assert np.array_equal(stencil.index, feet.index)
        assert np.array_equal(stencil.weight, feet.weight)


@pytest.mark.parametrize("nx, ny, Lx, Ly", [(16, 16, 1.0, 1.0),
                                            (12, 20, 2.0, 0.7)])
def test_midpoint_velocity_reproduces_a_bilinear_field(nx, ny, Lx, Ly):
    # bilinear interpolation is exact on a field bilinear in x and y, so
    # the midpoint velocity is that field at the clamped midpoints, up to
    # round-off; dt is large enough that midpoints leave the domain
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    X, Y = grid.nodes()

    def field(x, y):
        return (0.3 - 1.1 * x + 0.7 * y + 2.3 * x * y,
                -0.4 + 0.9 * x - 1.3 * y + 1.7 * x * y)

    u = VectorField(grid, *field(X, Y))
    dt = 0.25
    mx = np.clip(X - 0.5 * dt * u.u, 0.0, grid.Lx)
    my = np.clip(Y - 0.5 * dt * u.v, 0.0, grid.Ly)
    assert mx.min() == 0.0 and my.max() == grid.Ly
    for got, want in zip(_midpoint_velocity(grid, u, dt), field(mx, my)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_advect_values_rejects_a_field_of_another_grid():
    grid = Grid(nx=16, ny=16)
    X, Y = grid.nodes()
    with pytest.raises(ValueError, match="does not match grid"):
        advect_values(grid, np.zeros((16, 16)), bilinear_stencil(grid, X, Y))


def test_grid_nodes_are_built_once_and_read_only():
    grid = Grid(nx=16, ny=12)
    X, Y = grid.nodes()
    assert grid.nodes()[0] is X and grid.nodes()[1] is Y
    with pytest.raises(ValueError):
        X[0, 0] = 1.0


def test_uniform_translation_order():
    # half-cell shift at every resolution so the interpolation error
    # carries the same fractional-offset prefactor h^2 tx (1 - tx)
    errs = []
    for n in (32, 64, 128):
        grid = Grid(nx=n, ny=n)
        shift = 0.5 / n
        rho = blob(grid)
        out, _ = advect_density(rho, uniform_flow(grid, 1.0, 0.0), shift)
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
        out, _ = advect_density(rho, u, 0.05)
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
        f, _ = advect_density(f, u, dt)
    measure1 = level_set_measure(f, 1.2, np.inf)
    assert abs(measure1 - measure0) <= 0.08 * measure0
