import numpy as np
import pytest

from nsfourier.errors import StepError
from nsfourier.grid import Grid, ScalarField, VectorField
from nsfourier.transport import (_moved_back, _stencil, advect_density,
                                 advect_values, compute_feet,
                                 level_set_measure)


def blob(grid, cx=0.5, cy=0.5, width=0.1):
    return ScalarField.from_function(
        grid, lambda x, y: 1.0 + np.exp(-((x - cx) ** 2 + (y - cy) ** 2)
                                        / (2 * width ** 2)))


def uniform_flow(grid, ux, uy):
    return VectorField(grid, np.full(grid.shape, float(ux)),
                       np.full(grid.shape, float(uy)))


def stencil_at(grid, sx, sy):
    """The stencil at cell coordinates (sx, sy), which stay as they are."""
    return _stencil(grid, np.array(sx, dtype=float), np.array(sy, dtype=float))


def node_coordinates(grid):
    """The nodes in cell units: their indices i and j."""
    return np.meshgrid(np.arange(grid.nx + 1.0), np.arange(grid.ny + 1.0),
                       indexing="ij")


def assert_same_stencil(got, want):
    assert np.array_equal(got.index, want.index)
    assert np.array_equal(got.tx, want.tx)
    assert np.array_equal(got.ty, want.ty)


def test_zero_velocity_is_identity():
    grid = Grid(nx=32, ny=32)
    rho = blob(grid)
    out, stencil = advect_density(rho, VectorField.zero(grid), 0.1)
    assert np.array_equal(out.values, rho.values)
    assert_same_stencil(stencil, stencil_at(grid, *node_coordinates(grid)))


@pytest.mark.parametrize("nx, ny, Lx, Ly", [(12, 20, 2.0, 0.7),
                                            (24, 20, 1.0, 0.8)])
def test_nodes_that_do_not_move_read_their_own_values(nx, ny, Lx, Ly):
    # in cell units a node that does not move sits on a node: a zero
    # velocity gives the stencil at the nodes, and a flow that vanishes on
    # the walls leaves every wall node's density bit for bit
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    assert_same_stencil(compute_feet(grid, VectorField.zero(grid), 0.05),
                        stencil_at(grid, *node_coordinates(grid)))
    rng = np.random.default_rng(nx * ny)
    rho = ScalarField(grid, 1.0 + rng.random(grid.shape))
    u, v = rng.standard_normal((2,) + grid.shape)
    for c in (u, v):
        c[[0, -1], :] = 0.0
        c[:, [0, -1]] = 0.0
    out, _ = advect_density(rho, VectorField(grid, u, v), 0.02)
    wall = np.ones(grid.shape, dtype=bool)
    wall[1:-1, 1:-1] = False
    assert np.array_equal(out.values[wall], rho.values[wall])
    assert not np.array_equal(out.values, rho.values)


def oracle_lerp(a, b, s):
    return (1 - s) * a + s * b


def oracle_cell(grid, sx, sy):
    """Corner (i, j) and fractions (tx, ty) of points at cell coordinates
    (sx, sy) clamped to the domain."""
    sx = np.clip(sx, 0.0, grid.nx)
    sy = np.clip(sy, 0.0, grid.ny)
    i = np.minimum(sx.astype(int), grid.nx - 1)
    j = np.minimum(sy.astype(int), grid.ny - 1)
    return i, j, sx - i, sy - j


def oracle_bilinear(grid, values, sx, sy):
    """Bilinear interpolation at cell coordinates (sx, sy), gathered point
    by point from the 2-D array, with the corner-hull clamp: a lerp along
    x on the cell's two y edges, then along y."""
    i, j, tx, ty = oracle_cell(grid, sx, sy)
    v00 = values[i, j]
    v10 = values[i + 1, j]
    v01 = values[i, j + 1]
    v11 = values[i + 1, j + 1]
    out = oracle_lerp(oracle_lerp(v00, v10, tx), oracle_lerp(v01, v11, tx), ty)
    lo = np.minimum(np.minimum(v00, v10), np.minimum(v01, v11))
    hi = np.maximum(np.maximum(v00, v10), np.maximum(v01, v11))
    return np.clip(out, lo, hi)


def oracle_moved_back(grid, u, v, dt):
    """The nodes moved back by dt (u, v) in cell units: node index minus
    dt u / h."""
    return (np.arange(grid.nx + 1)[:, None] - u * (dt / grid.hx),
            np.arange(grid.ny + 1)[None, :] - v * (dt / grid.hy))


def oracle_midpoint_velocity(grid, u, dt):
    """u and v at the midpoints, clamped to the domain in cell units, read
    point by point by an unclamped bilinear lerp: along x on the cell's
    two y edges, then along y."""
    i, j, tx, ty = oracle_cell(grid, *oracle_moved_back(grid, u.u, u.v,
                                                        0.5 * dt))

    def lerp(f):
        return oracle_lerp(oracle_lerp(f[i, j], f[i + 1, j], tx),
                           oracle_lerp(f[i, j + 1], f[i + 1, j + 1], tx), ty)

    return lerp(u.u), lerp(u.v)


def oracle_feet(grid, u, dt):
    """Midpoint-backtracked feet through the oracle, in cell units."""
    return oracle_moved_back(grid, *oracle_midpoint_velocity(grid, u, dt), dt)


def edge_points(grid, rng):
    """Nodes, points on all four walls and at the four corners, interior
    points, and points outside the domain on every side, in cell units."""
    I, J = node_coordinates(grid)
    nx, ny = grid.nx, grid.ny
    s = rng.random(40)
    sx = [I.ravel(), s * nx, s * nx, np.zeros(40), np.full(40, nx),
          np.array([0.0, nx, 0.0, nx]), rng.random(200) * nx,
          rng.uniform(-0.5, 1.5, 200) * nx,
          np.array([-1e-300, np.nextafter(nx, np.inf), -5.0])]
    sy = [J.ravel(), np.zeros(40), np.full(40, ny), s * ny, s * ny,
          np.array([0.0, 0.0, ny, ny]), rng.random(200) * ny,
          rng.uniform(-0.5, 1.5, 200) * ny,
          np.array([np.nextafter(ny, np.inf), -1e-300, 3.0 * ny])]
    return np.concatenate(sx), np.concatenate(sy)


def test_interpolation_at_nodes_exact():
    grid = Grid(nx=16, ny=16)
    rng = np.random.default_rng(0)
    values = rng.random(grid.shape)
    nodes = stencil_at(grid, *node_coordinates(grid))
    assert np.array_equal(nodes.apply(values), values)
    assert np.array_equal(nodes.read(values), values)


@pytest.mark.parametrize("nx, ny, Lx, Ly", [(16, 16, 1.0, 1.0),
                                            (12, 20, 2.0, 0.7),
                                            (64, 64, 1.0, 1.0)])
def test_stencil_matches_the_oracle_bitwise(nx, ny, Lx, Ly):
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    rng = np.random.default_rng(nx + ny)
    sx, sy = edge_points(grid, rng)
    stencil = stencil_at(grid, sx, sy)
    for values in (rng.standard_normal(grid.shape),
                   1.0 + rng.random(grid.shape) * 1e-12,
                   np.exp(40 * rng.standard_normal(grid.shape))):
        expected = oracle_bilinear(grid, values, sx, sy)
        assert np.array_equal(stencil.apply(values), expected)


def test_stencil_keeps_the_corner_hull_clamp():
    # corner values one ulp apart: the unclamped lerps can round outside
    # them, and the stencil must clamp where the oracle does
    grid = Grid(nx=8, ny=8)
    rng = np.random.default_rng(5)
    base = 0.1 + 0.2
    values = base + rng.integers(0, 2, grid.shape) * np.spacing(base)
    sx, sy = rng.random(5000) * grid.nx, rng.random(5000) * grid.ny
    got = stencil_at(grid, sx, sy).apply(values)
    assert np.array_equal(got, oracle_bilinear(grid, values, sx, sy))
    assert got.min() >= values.min() and got.max() <= values.max()


def test_feet_stencil_matches_the_oracle_bitwise():
    # u and v at the midpoints, then rho at the feet through one stencil,
    # bitwise equal to interpolating at the oracle's points; the stencil
    # at the midpoints also matches the oracle there
    grid = Grid(nx=24, ny=20, Lx=1.0, Ly=0.8)
    rng = np.random.default_rng(7)
    u = VectorField(grid, rng.standard_normal(grid.shape),
                    rng.standard_normal(grid.shape))
    rho = ScalarField(grid, 1.0 + rng.random(grid.shape))
    for dt in (0.01, 0.05):
        mx, my = oracle_moved_back(grid, u.u, u.v, 0.5 * dt)
        mid = _moved_back(grid, u.u, u.v, 0.5 * dt)
        assert_same_stencil(mid, stencil_at(grid, mx, my))
        assert np.array_equal(mid.apply(u.u), oracle_bilinear(grid, u.u, mx, my))
        assert np.array_equal(mid.apply(u.v), oracle_bilinear(grid, u.v, mx, my))
        for got, want in zip((mid.read(u.u), mid.read(u.v)),
                             oracle_midpoint_velocity(grid, u, dt)):
            assert np.array_equal(got, want)
        fx, fy = oracle_feet(grid, u, dt)
        expected = oracle_bilinear(grid, rho.values, fx, fy)
        feet = compute_feet(grid, u, dt)
        assert_same_stencil(feet, stencil_at(grid, fx, fy))
        assert np.array_equal(advect_values(grid, rho.values, feet), expected)
        out, stencil = advect_density(rho, u, dt)
        assert np.array_equal(out.values, expected)
        assert_same_stencil(stencil, feet)


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
    mid = _moved_back(grid, u.u, u.v, 0.5 * dt)
    for got, want in zip((mid.read(u.u), mid.read(u.v)), field(mx, my)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_advect_values_rejects_a_field_of_another_grid():
    grid = Grid(nx=16, ny=16)
    with pytest.raises(ValueError, match="does not match grid"):
        advect_values(grid, np.zeros((16, 16)),
                      stencil_at(grid, *node_coordinates(grid)))


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
