import numpy as np
import pytest

from nsfourier.basis import (assemble_viscous, assemble_weighted_gram,
                             build_basis)
from nsfourier.coefficients import ViscosityLaw, eval_viscosity
from nsfourier.grid import Grid, ScalarField
from nsfourier.momentum import kinetic_energy, momentum_system, step_momentum


def one_step(coeffs_old, rho_old, rho_new, theta, basis, dt, eps, law):
    """One momentum step with the viscosity field of theta."""
    mu = ScalarField(theta.grid, np.asarray(eval_viscosity(law, theta.values)))
    system = momentum_system(coeffs_old, rho_old,
                             assemble_weighted_gram(basis, rho_old), mu,
                             basis, dt, eps)
    return step_momentum(system, rho_new)[0]


@pytest.fixture(scope="module")
def grid():
    return Grid(nx=48, ny=48)


@pytest.fixture(scope="module")
def basis(grid):
    return build_basis(grid, 8)


@pytest.fixture(scope="module")
def law():
    return ViscosityLaw(slope=1.0, theta_bar=1.0)


def test_zero_coefficients_stay_zero(grid, basis, law):
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 0.5)
    c = one_step(np.zeros(basis.n_modes), rho, rho, theta, basis,
                 dt=0.01, eps=1e-3, law=law)
    assert np.allclose(c, 0.0, atol=1e-14)


def test_single_mode_decay_factor(grid, law):
    single = build_basis(grid, 1)
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 2.0)  # plateau: mu = slope*theta_bar
    mu0 = eval_viscosity(law, 2.0)
    dt = 0.02
    eps = 0.0
    c_old = np.array([0.8])
    M = assemble_weighted_gram(single, rho)
    A = assemble_viscous(single, ScalarField.constant(grid, mu0), eps)
    expected = c_old[0] * M[0, 0] / (M[0, 0] + dt * A[0, 0])
    c_new = one_step(c_old, rho, rho, theta, single, dt, eps, law)
    assert c_new[0] == pytest.approx(expected, rel=1e-12)
    assert 0.0 < c_new[0] < c_old[0]


def test_energy_never_increases(grid, basis, law):
    rng = np.random.default_rng(0)
    theta = ScalarField.constant(grid, 0.5)
    for _ in range(10):
        rho_old = ScalarField(grid, 1.0 + 0.5 * rng.random(grid.shape))
        rho_new = ScalarField(grid, 1.0 + 0.5 * rng.random(grid.shape))
        c_old = rng.standard_normal(basis.n_modes)
        c_new = one_step(c_old, rho_old, rho_new, theta, basis,
                         dt=0.05, eps=1e-3, law=law)
        e_old = kinetic_energy(c_old, assemble_weighted_gram(basis, rho_old))
        e_new = kinetic_energy(c_new, assemble_weighted_gram(basis, rho_new))
        assert e_new <= e_old * (1.0 + 1e-12)


def test_linearity_without_advection(grid, law):
    # advection is quadratic in c_old; with a single mode its skew matrix
    # is identically zero, so the step is linear there
    single = build_basis(grid, 1)
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 0.5)
    c1 = one_step(np.array([0.3]), rho, rho, theta, single,
                  dt=0.01, eps=1e-3, law=law)
    c2 = one_step(np.array([0.6]), rho, rho, theta, single,
                  dt=0.01, eps=1e-3, law=law)
    assert c2[0] == pytest.approx(2.0 * c1[0], rel=1e-12)


def test_solvable_without_artificial_viscosity(grid, basis, law):
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 0.5)  # mu = 0.5 > 0 everywhere
    rng = np.random.default_rng(1)
    c_old = rng.standard_normal(basis.n_modes)
    c_new = one_step(c_old, rho, rho, theta, basis, dt=0.05,
                     eps=0.0, law=law)
    M = assemble_weighted_gram(basis, rho)
    assert kinetic_energy(c_new, M) <= kinetic_energy(c_old, M) * (1 + 1e-12)


def test_degenerate_inputs_rejected(grid, basis, law):
    rho = ScalarField.constant(grid, 1.0)
    theta_zero = ScalarField.constant(grid, 0.0)
    c = np.ones(basis.n_modes)
    with pytest.raises(ValueError):
        one_step(c, rho, rho, theta_zero, basis, dt=0.01, eps=0.0, law=law)
    bad_rho = ScalarField.constant(grid, 0.0)
    with pytest.raises(ValueError):
        one_step(c, bad_rho, bad_rho, theta_zero, basis,
                 dt=0.01, eps=1e-3, law=law)
    with pytest.raises(ValueError):
        one_step(c, rho, rho, ScalarField.constant(grid, 0.5),
                 basis, dt=-0.01, eps=1e-3, law=law)


def test_eps_controls_decay_with_degenerate_viscosity(grid, law):
    single = build_basis(grid, 1)
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 0.0)  # mu = 0, only eps acts
    c_old = np.array([1.0])
    slow = one_step(c_old, rho, rho, theta, single, dt=0.05,
                    eps=1e-3, law=law)
    fast = one_step(c_old, rho, rho, theta, single, dt=0.05,
                    eps=1e-1, law=law)
    assert fast[0] < slow[0] < 1.0
