import numpy as np
import pytest
from scipy.optimize import brentq

from nsfourier.coefficients import ConductivityLaw
from nsfourier.config import Laws
from nsfourier.coefficients import ViscosityLaw
from nsfourier.grid import Grid, ScalarField, VectorField, integrate
from nsfourier.thermal import (ThermalStepParams, dissipation_field,
                               neumann_divgrad, step_temperature)


def constant_kappa_laws(kappa=1.0):
    cond = ConductivityLaw(kappa_lo=1e-4, kappa_hi=1e3, form="tabulated",
                           theta_samples=(0.0, 50.0),
                           kappa_samples=(kappa, kappa))
    return Laws(viscosity=ViscosityLaw(slope=1.0, theta_bar=1.0),
                conductivity=cond)


def canonical_laws():
    return Laws(viscosity=ViscosityLaw(slope=1.0, theta_bar=1.0),
                conductivity=ConductivityLaw(kappa_lo=1.0, kappa_hi=1.0))


@pytest.fixture
def grid():
    return Grid(nx=32, ny=32)


def test_params_validation():
    with pytest.raises(ValueError):
        ThermalStepParams(dt=0.0, delta=0.1)
    with pytest.raises(ValueError):
        ThermalStepParams(dt=0.1, delta=1.0)
    with pytest.raises(ValueError):
        ThermalStepParams(dt=0.1, delta=0.1, linearization="fully-implicit")
    ThermalStepParams(dt=0.1, delta=0.0)


def test_dissipation_zero_velocity(grid):
    mu = ScalarField.constant(grid, 1.0)
    assert np.all(dissipation_field(mu, VectorField.zero(grid)).values == 0.0)


def test_dissipation_shear(grid):
    mu0 = 0.7
    mu = ScalarField.constant(grid, mu0)
    _, Y = grid.nodes()
    z = np.zeros(grid.shape)
    u = VectorField(grid, Y, z, z, np.ones(grid.shape), z, z)
    diss = dissipation_field(mu, u)
    assert np.allclose(diss.values, mu0, atol=1e-13)


def test_dissipation_rigid_rotation(grid):
    mu = ScalarField.constant(grid, 1.0)
    X, Y = grid.nodes()
    ones = np.ones(grid.shape)
    z = np.zeros(grid.shape)
    u = VectorField(grid, -Y, X, z, -ones, ones, z)
    assert np.allclose(dissipation_field(mu, u).values, 0.0, atol=1e-13)


def test_steady_state_constant_theta(grid):
    theta = ScalarField.constant(grid, 0.8)
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=0.1, delta=0.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), params,
                           canonical_laws())
    assert np.allclose(out.values, 0.8, atol=1e-12)


def test_uniform_sink_ode_matches_root_find(grid):
    delta = 0.5
    dt = 0.1
    theta = ScalarField.constant(grid, 1.0)
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=dt, delta=delta)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), params,
                           canonical_laws())
    expected = brentq(lambda t: (delta + 1.0) * (t - 1.0) / dt
                      + delta * t ** 3, 0.0, 1.0, xtol=1e-15)
    assert np.max(np.abs(out.values - expected)) <= 1e-10


def test_cosine_diffusion_decay_rate():
    n = 64
    grid = Grid(nx=n, ny=n)
    kappa = 1.0
    amp = 0.1
    theta = ScalarField.from_function(
        grid, lambda x, y: 1.0 + amp * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    dt = 1e-3
    steps = 50
    params = ThermalStepParams(dt=dt, delta=0.0)
    laws = constant_kappa_laws(kappa)
    for _ in range(steps):
        theta = step_temperature(theta, rho, rho, VectorField.zero(grid),
                                 ScalarField.constant(grid, 0.0), params, laws)
    rate = kappa * np.pi ** 2
    measured = (theta.max() - theta.min()) / 2.0
    expected = amp * np.exp(-rate * dt * steps)
    h = 1.0 / n
    assert abs(measured - expected) <= 5.0 * amp * (dt * rate + h ** 2)


def test_neumann_operator_structure(grid):
    rng = np.random.default_rng(0)
    kappa = 1.0 + rng.random(grid.shape)
    S = neumann_divgrad(grid, kappa)
    dense = S.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.max(np.abs(S @ np.ones(dense.shape[0]))) <= 1e-13
    assert np.max(np.linalg.eigvalsh(dense)) <= 1e-10


def test_thermal_content_conserved(grid):
    rng = np.random.default_rng(1)
    rho = ScalarField(grid, 1.0 + 0.3 * rng.random(grid.shape))
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    params = ThermalStepParams(dt=0.05, delta=0.0)
    before = integrate(ScalarField(grid, rho.values * theta.values))
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), params,
                           canonical_laws())
    after = integrate(ScalarField(grid, rho.values * out.values))
    assert abs(after - before) <= 1e-10 * abs(before)


def test_pure_diffusion_comparison_principle(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=0.1, delta=0.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), params,
                           canonical_laws())
    assert out.min() >= theta.min() - 1e-12
    assert out.max() <= theta.max() + 1e-12


def test_output_nonnegative_with_strong_sink(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.01 + 0.005 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=1.0, delta=0.5)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), params,
                           canonical_laws())
    assert out.min() >= 0.0


def test_dissipation_source_heats(grid):
    theta = ScalarField.constant(grid, 0.2)
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=0.1, delta=0.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 1.0), params,
                           canonical_laws())
    assert out.min() > 0.2


def test_kirchhoff_newton_matches_lagged(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.1 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    dt = 1e-3
    lagged = step_temperature(theta, rho, rho, VectorField.zero(grid),
                              ScalarField.constant(grid, 0.0),
                              ThermalStepParams(dt=dt, delta=0.0),
                              canonical_laws())
    newton = step_temperature(theta, rho, rho, VectorField.zero(grid),
                              ScalarField.constant(grid, 0.0),
                              ThermalStepParams(dt=dt, delta=0.0,
                                                linearization="kirchhoff-newton"),
                              canonical_laws())
    assert np.max(np.abs(lagged.values - newton.values)) <= 10.0 * dt ** 2


def test_input_validation(grid):
    rho = ScalarField.constant(grid, 1.0)
    params = ThermalStepParams(dt=0.1, delta=0.1)
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, -0.1), rho, rho,
                         VectorField.zero(grid),
                         ScalarField.constant(grid, 0.0), params,
                         canonical_laws())
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, 0.1), rho, rho,
                         VectorField.zero(grid),
                         ScalarField.constant(grid, -1.0), params,
                         canonical_laws())


def hot_step_inputs():
    """A 24 x 24 step near theta = 20, where kappa(theta) ~ 400."""
    grid = Grid(nx=24, ny=24)
    X, Y = grid.nodes()
    bump = np.cos(np.pi * X) * np.cos(np.pi * Y)
    theta = ScalarField(grid, 20.0 + bump)
    rho = ScalarField(grid, 1.0 + 0.05 * bump)
    return grid, theta, rho


def test_newton_stops_at_round_off_floor_near_theta_20(monkeypatch):
    # kappa(20) ~ 400 puts the round-off floor of the residual at several
    # 1e-12 of its scale, above the 1e-2 newton_tol stopping level
    import nsfourier.thermal as thermal

    grid, theta, rho = hot_step_inputs()
    laws = canonical_laws()
    solves = []
    solve_spd = thermal._solve_spd

    def counted(J, rhs, *args):
        solves.append(1)
        return solve_spd(J, rhs, *args)

    monkeypatch.setattr(thermal, "_solve_spd", counted)

    def step(newton_tol):
        solves.clear()
        return step_temperature(theta, rho, rho, VectorField.zero(grid),
                                ScalarField.constant(grid, 0.0),
                                ThermalStepParams(dt=0.02, delta=0.01,
                                                  newton_tol=newton_tol),
                                laws)

    out = step(1e-10)
    assert len(solves) <= 5
    tight = step(1e-12)
    assert np.max(np.abs(out.values - tight.values)) <= 1e-12 * tight.max()


def test_newton_solves_share_one_factorization_near_theta_20(monkeypatch):
    import scipy.sparse.linalg as spla

    import nsfourier.thermal as thermal

    grid, theta, rho = hot_step_inputs()
    factorizations = []
    splu = spla.splu

    def counted_splu(*args, **kwargs):
        factorizations.append(1)
        return splu(*args, **kwargs)

    cg_iters = []
    cg = spla.cg

    def counted_cg(*args, **kwargs):
        cg_iters.append(0)

        def count(xk):
            cg_iters[-1] += 1

        return cg(*args, callback=count, **kwargs)

    errors = []
    solve_spd = thermal._solve_spd

    def checked(J, rhs, *args):
        upd = solve_spd(J, rhs, *args)
        ref = spla.spsolve(J.tocsc(), rhs)
        errors.append(np.max(np.abs(upd - ref)) / np.max(np.abs(ref)))
        return upd

    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(spla, "cg", counted_cg)
    monkeypatch.setattr(thermal, "_solve_spd", checked)
    step_temperature(theta, rho, rho, VectorField.zero(grid),
                     ScalarField.constant(grid, 0.0),
                     ThermalStepParams(dt=0.02, delta=0.01), canonical_laws())
    assert len(cg_iters) >= 2
    assert len(factorizations) == 1
    assert max(errors) <= 1e-12
    assert max(cg_iters) <= 5
