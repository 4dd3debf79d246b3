import numpy as np
import pytest

from nsfourier.grid import (Grid, ScalarField, _d_axis, grad_values,
                            integrate_values, norm_H1, read_snapshot,
                            write_snapshot)


@pytest.fixture
def unit_grid():
    return Grid(nx=32, ny=32)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid(nx=2, ny=8)


@pytest.mark.parametrize("lengths", [dict(Lx=float("nan")), dict(Ly=float("nan")),
                                     dict(Lx=float("inf")), dict(Ly=-1.0)])
def test_grid_rejects_non_finite_lengths(lengths):
    with pytest.raises(ValueError, match="positive and finite"):
        Grid(nx=8, ny=8, **lengths)


def test_grid_area(unit_grid):
    assert np.sum(unit_grid.quad_weights()) == pytest.approx(1.0, rel=1e-14)


def test_integrate_constant(unit_grid):
    assert integrate_values(unit_grid, np.ones(unit_grid.shape)) \
        == pytest.approx(1.0)
    assert integrate_values(unit_grid, np.zeros(unit_grid.shape)) == 0.0


def test_integrate_linear(unit_grid):
    f = ScalarField.from_function(unit_grid, lambda x, y: x)
    assert integrate_values(unit_grid, f.values) == pytest.approx(0.5, rel=1e-14)


def test_integrate_linear_and_monotone(unit_grid):
    rng = np.random.default_rng(0)
    a = rng.random(unit_grid.shape)
    b = a + rng.random(unit_grid.shape)

    def integrate(values):
        return integrate_values(unit_grid, values)

    assert integrate(b) >= integrate(a)
    assert integrate(2.0 * a + 3.0 * b) == pytest.approx(
        2 * integrate(a) + 3 * integrate(b), rel=1e-13)


def test_grad_exact_on_linear(unit_grid):
    f = ScalarField.from_function(unit_grid, lambda x, y: 3.0 * x)
    gx, gy = grad_values(unit_grid, f.values)
    assert np.allclose(gx, 3.0, atol=1e-12)
    assert np.allclose(gy, 0.0, atol=1e-12)


def test_grad_of_constant_vanishes(unit_grid):
    gx, gy = grad_values(unit_grid, ScalarField.constant(unit_grid, 7.0).values)
    assert np.all(gx == 0.0)
    assert np.all(gy == 0.0)


def test_norms_of_constant(unit_grid):
    f = ScalarField.constant(unit_grid, -2.0)
    assert norm_H1(f) == pytest.approx(2.0, rel=1e-13)


def test_snapshot_round_trip(tmp_path):
    grid = Grid(nx=12, ny=20, Lx=2.5, Ly=0.1 + 0.2)
    rng = np.random.default_rng(3)
    f = ScalarField(grid, np.exp(30 * rng.standard_normal(grid.shape)))
    path = tmp_path / "field.npz"
    write_snapshot(path, f, 0.1 + 0.2, "rho")
    g, t, name = read_snapshot(path)
    assert t == 0.1 + 0.2
    assert name == "rho"
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_snapshot_keys_and_dtypes(tmp_path, unit_grid):
    path = tmp_path / "field.npz"
    write_snapshot(path, ScalarField.constant(unit_grid, 1.0), 0.0, "theta")
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == ["Lx", "Ly", "name", "time", "values"]
        assert data["values"].dtype == np.float64
        assert data["values"].shape == (33, 33)
        assert data["time"].dtype == np.float64 and data["time"].shape == ()
        assert str(data["name"]) == "theta"


@pytest.mark.parametrize("name", ["field", "field.txt", "field.npz"])
def test_snapshot_is_written_at_exactly_its_path(tmp_path, unit_grid, name):
    write_snapshot(tmp_path / name, ScalarField.constant(unit_grid, 1.0),
                   0.0, "rho")
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_snapshot_bytes_are_deterministic(tmp_path, unit_grid, monkeypatch):
    # the second write happens a day later by the clock: an archive that
    # stamps its members with the time of writing would differ
    import time

    f = ScalarField(unit_grid, np.random.default_rng(4).random(unit_grid.shape))
    write_snapshot(tmp_path / "a.npz", f, 0.5, "rho")
    later = time.time() + 86400.0
    monkeypatch.setattr(time, "time", lambda: later)
    write_snapshot(tmp_path / "b.npz", f, 0.5, "rho")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_snapshot_with_a_pickled_object_array_is_refused(tmp_path):
    path = tmp_path / "evil.npz"
    values = np.empty((9, 9), dtype=object)
    values[...] = 1.0
    with open(path, "wb") as fh:
        np.savez(fh, values=values, time=0.0, Lx=1.0, Ly=1.0, name="rho")
    with pytest.raises(ValueError, match="allow_pickle"):
        read_snapshot(path)


@pytest.mark.parametrize("values", [np.zeros(9), np.zeros((9, 9, 2)),
                                    np.full((9, 9), np.nan)])
def test_snapshot_of_a_bad_field_is_refused(tmp_path, values):
    path = tmp_path / "bad.npz"
    with open(path, "wb") as fh:
        np.savez(fh, values=values, time=0.0, Lx=1.0, Ly=1.0, name="rho")
    with pytest.raises(ValueError):
        read_snapshot(path)


def moveaxis_d_axis(values, h, axis):
    """The np.moveaxis form of `_d_axis`, kept as an oracle."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("grid", [Grid(nx=5, ny=4),
                                  Grid(nx=9, ny=6, Lx=2.0, Ly=0.7)])
def test_d_axis_equals_the_moveaxis_stencil_bitwise(grid):
    # non-square 5 x 4 and 9 x 6 cell grids, Lx != Ly on the second
    rng = np.random.default_rng(7)
    values = rng.standard_normal(grid.shape)
    for axis, h in ((0, grid.hx), (1, grid.hy)):
        out = _d_axis(values, h, axis)
        ref = moveaxis_d_axis(values, h, axis)
        assert out.shape == grid.shape
        assert np.array_equal(out, ref)
    gx, gy = grad_values(grid, values)
    assert np.array_equal(gx, moveaxis_d_axis(values, grid.hx, 0))
    assert np.array_equal(gy, moveaxis_d_axis(values, grid.hy, 1))
