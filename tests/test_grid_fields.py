import numpy as np
import pytest

from nsfourier.grid import (Grid, ScalarField, grad_values, integrate_values,
                            norm_H1, read_snapshot, write_snapshot)


@pytest.fixture
def unit_grid():
    return Grid(nx=32, ny=32)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid(nx=2, ny=8)


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


def test_snapshot_round_trip(tmp_path, unit_grid):
    rng = np.random.default_rng(3)
    f = ScalarField(unit_grid, rng.standard_normal(unit_grid.shape))
    path = tmp_path / "field.txt"
    write_snapshot(path, f, 0.25, "rho")
    g, t, name = read_snapshot(path)
    assert t == 0.25
    assert name == "rho"
    assert g.grid == unit_grid
    assert np.array_equal(g.values, f.values)


def test_snapshot_header_format(tmp_path, unit_grid):
    path = tmp_path / "field.txt"
    write_snapshot(path, ScalarField.constant(unit_grid, 1.0), 0.0, "theta")
    lines = path.read_text().splitlines()
    assert lines[0] == "# nsfourier field snapshot"
    assert lines[1] == "nx = 32"
    assert lines[2] == "ny = 32"
    assert lines[3] == "Lx = 1.0"
    assert lines[4] == "Ly = 1.0"
    assert lines[5] == "time = 0.0"
    assert lines[6] == "name = theta"
    assert lines[7] == "1.0"
