import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from nsfourier.coefficients import ConductivityLaw
from nsfourier.config import Laws
from nsfourier.coefficients import ViscosityLaw
from nsfourier.grid import Grid, ScalarField, VectorField, integrate_values
from nsfourier.thermal import (REFACTOR_ETA, JacobianFactor,
                               _factor_preconditioner, dissipation_field,
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


def test_params_validation(grid):
    theta = ScalarField.constant(grid, 0.5)
    rho = ScalarField.constant(grid, 1.0)
    fields = (theta, rho, rho, VectorField.zero(grid),
              ScalarField.constant(grid, 0.0))
    with pytest.raises(ValueError, match="dt"):
        step_temperature(*fields, 0.0, 0.1, canonical_laws())
    with pytest.raises(ValueError, match="delta"):
        step_temperature(*fields, 0.1, 1.0, canonical_laws())
    step_temperature(*fields, 0.1, 0.0, canonical_laws())


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
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), 0.1, 0.0,
                           canonical_laws())
    assert np.allclose(out.values, 0.8, atol=1e-12)


def test_uniform_sink_ode_matches_root_find(grid):
    delta = 0.5
    dt = 0.1
    theta = ScalarField.constant(grid, 1.0)
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), dt, delta,
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
    laws = constant_kappa_laws(kappa)
    for _ in range(steps):
        theta = step_temperature(theta, rho, rho, VectorField.zero(grid),
                                 ScalarField.constant(grid, 0.0), dt, 0.0, laws)
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
    before = integrate_values(grid, rho.values * theta.values)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), 0.05, 0.0,
                           canonical_laws())
    after = integrate_values(grid, rho.values * out.values)
    assert abs(after - before) <= 1e-10 * abs(before)


def test_pure_diffusion_comparison_principle(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), 0.1, 0.0,
                           canonical_laws())
    assert out.min() >= theta.min() - 1e-12
    assert out.max() <= theta.max() + 1e-12


def test_output_nonnegative_with_strong_sink(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.01 + 0.005 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 0.0), 1.0, 0.5,
                           canonical_laws())
    assert out.min() >= 0.0


def test_dissipation_source_heats(grid):
    theta = ScalarField.constant(grid, 0.2)
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, VectorField.zero(grid),
                           ScalarField.constant(grid, 1.0), 0.1, 0.0,
                           canonical_laws())
    assert out.min() > 0.2


def test_input_validation(grid):
    rho = ScalarField.constant(grid, 1.0)
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, -0.1), rho, rho,
                         VectorField.zero(grid),
                         ScalarField.constant(grid, 0.0), 0.1, 0.1,
                         canonical_laws())
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, 0.1), rho, rho,
                         VectorField.zero(grid),
                         ScalarField.constant(grid, -1.0), 0.1, 0.1,
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
    # 1e-12 of its scale, above the 1e-2 NEWTON_TOL stopping level
    import nsfourier.thermal as thermal

    grid, theta, rho = hot_step_inputs()
    laws = canonical_laws()
    solves = []
    solve_spd = thermal._solve_spd

    def counted(J, rhs, *args):
        solves.append(1)
        return solve_spd(J, rhs, *args)

    monkeypatch.setattr(thermal, "_solve_spd", counted)

    def step():
        solves.clear()
        return step_temperature(theta, rho, rho, VectorField.zero(grid),
                                ScalarField.constant(grid, 0.0), 0.02, 0.01,
                                laws)

    out = step()
    assert len(solves) <= 5
    monkeypatch.setattr(thermal, "NEWTON_TOL", 1e-12)
    tight = step()
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
                     ScalarField.constant(grid, 0.0), 0.02, 0.01,
                     canonical_laws())
    assert len(cg_iters) >= 2
    assert len(factorizations) == 1
    assert max(errors) <= 1e-12
    assert max(cg_iters) <= 5


def counted_splu(monkeypatch):
    """Patch spla.splu to count factorizations; returns the count list."""
    calls = []
    splu = spla.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def test_factor_is_kept_until_the_jacobian_leaves_its_band(grid, monkeypatch):
    factor = JacobianFactor()
    splu_calls = counted_splu(monkeypatch)

    def step(theta0, dt, grid=grid):
        theta = ScalarField.from_function(
            grid, lambda x, y: theta0 + 0.01 * np.cos(np.pi * x))
        rho = ScalarField.constant(grid, 1.0)
        step_temperature(theta, rho, rho, VectorField.zero(grid),
                         ScalarField.constant(grid, 0.0), dt, 0.01,
                         canonical_laws(), factor=factor)
        return len(splu_calls)

    assert step(0.5, 0.02) == 1
    # kappa = 1 + theta^2 moves by 2% and D not at all: the factor stays
    assert step(0.51, 0.02) == 1
    # halving dt doubles a/dt on the diagonal
    assert step(0.51, 0.01) == 2
    assert step(0.51, 0.01) == 2
    # theta 0.51 -> 0.8 moves kappa by 31%
    assert step(0.8, 0.01) == 3
    # a holder handed a Jacobian of another size refactors
    assert step(0.8, 0.01, grid=Grid(nx=16, ny=16)) == 4


def test_old_factor_is_released_before_refactoring(grid, monkeypatch):
    factor = JacobianFactor()
    held = []
    splu = spla.splu

    def checked(*args, **kwargs):
        held.append(factor._precond is not None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", checked)
    rho = ScalarField.constant(grid, 1.0)
    theta = ScalarField.constant(grid, 0.5)
    for dt in (0.02, 0.01):
        step_temperature(theta, rho, rho, VectorField.zero(grid),
                         ScalarField.constant(grid, 0.0), dt, 0.01,
                         canonical_laws(), factor=factor)
    assert held == [False, False]


def test_reused_factor_matches_a_fresh_one(monkeypatch):
    grid, theta, rho = hot_step_inputs()
    laws = canonical_laws()
    source = ScalarField.constant(grid, 0.0)
    factor = JacobianFactor()
    splu_calls = counted_splu(monkeypatch)
    step_temperature(theta, rho, rho, VectorField.zero(grid), source, 0.02,
                     0.01, laws, factor=factor)
    # kappa(theta) moves by about 2%, inside the band: the factor is reused
    warmer = ScalarField(grid, theta.values + 0.2)
    reused = step_temperature(warmer, rho, rho, VectorField.zero(grid),
                              source, 0.02, 0.01, laws, factor=factor)
    assert len(splu_calls) == 1
    fresh = step_temperature(warmer, rho, rho, VectorField.zero(grid),
                             source, 0.02, 0.01, laws)
    assert np.max(np.abs(reused.values - fresh.values)) <= 1e-12 * fresh.max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       d_decade=st.floats(-2.0, 4.0), kappa_decade=st.floats(-1.0, 3.0),
       spread=st.floats(0.0, 3.0))
def test_band_bounds_preconditioned_cg(seed, d_decade, kappa_decade, spread):
    # (1 - eta) J0 <= J <= (1 + eta) J0 for any nodewise perturbation of D
    # and kappa within 1 +- eta, so J0's LU takes CG to 1e-12 in at most
    # ~11 iterations whatever the contrast of D0 and kappa0.  The decades
    # cover the levels of D/W = a/dt + 3 delta t^2 and of
    # kappa = kappa_lo (1 + theta^2) that runs reach, with up to three
    # decades of contrast from node to node.
    grid = Grid(nx=16, ny=16)
    rng = np.random.default_rng(seed)
    W = grid.quad_weights().ravel()
    D0 = W * 10.0 ** (d_decade + rng.uniform(0.0, spread, W.size))
    kappa0 = 10.0 ** (kappa_decade + rng.uniform(0.0, spread, grid.shape))

    def jacobian(D, kappa):
        return (sp.diags(D) - neumann_divgrad(grid, kappa)).tocsr()

    precond = _factor_preconditioner(jacobian(D0, kappa0))
    D = D0 * (1.0 + REFACTOR_ETA * rng.uniform(-1.0, 1.0, D0.shape))
    kappa = kappa0 * (1.0 + REFACTOR_ETA * rng.uniform(-1.0, 1.0, kappa0.shape))
    _, info = spla.cg(jacobian(D, kappa), rng.standard_normal(W.size),
                      rtol=1e-12, atol=0.0, maxiter=11, M=precond)
    assert info == 0
