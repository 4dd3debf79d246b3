import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from nsfourier.coefficients import ConductivityLaw
from nsfourier.config import Laws
from nsfourier.coefficients import ViscosityLaw
from nsfourier.errors import StepError
from nsfourier.grid import Grid, ScalarField, VectorField, integrate_values
import nsfourier.thermal as thermal
from nsfourier.thermal import (cosine_preconditioner, dissipation_field,
                               neumann_divgrad, step_temperature)
from nsfourier.transport import advect_density, compute_feet


def canonical_laws():
    return Laws(viscosity=ViscosityLaw(slope=1.0, theta_bar=1.0),
                conductivity=ConductivityLaw(kappa_lo=1.0))


def rest_feet(grid):
    """The feet stencil of a fluid at rest: every node reads itself."""
    return compute_feet(grid, VectorField.zero(grid), 0.1)


@pytest.fixture
def grid():
    return Grid(nx=32, ny=32)


def test_params_validation(grid):
    theta = ScalarField.constant(grid, 0.5)
    rho = ScalarField.constant(grid, 1.0)
    fields = (theta, rho, rho, rest_feet(grid),
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
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 0.0), 0.1, 0.0,
                           canonical_laws())
    assert np.allclose(out.values, 0.8, atol=1e-12)


def test_constant_theta_stays_constant_along_the_densitys_feet(grid):
    # with delta = 0 the advected content is rho theta; moved through the
    # stencil of rho's own feet it is theta times the moved rho, so theta
    # stays constant
    X, Y = grid.nodes()
    rho = ScalarField(grid, 1.0 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    omega = 2.0 * np.pi
    u = VectorField(grid, -omega * (Y - 0.5), omega * (X - 0.5))
    dt = 0.02
    rho_new, stencil = advect_density(rho, u, dt)
    theta = ScalarField.constant(grid, 0.7)
    source = ScalarField.constant(grid, 0.0)
    out = step_temperature(theta, rho_new, rho, stencil, source, dt, 0.0,
                           canonical_laws())
    assert np.ptp(out.values) <= 8 * np.spacing(0.7)
    # the feet stencil of another flow does not carry rho_new, and theta
    # moves: the temperature step reads the stencil it is given
    other = compute_feet(grid, VectorField(grid, 0.5 * u.u, 0.5 * u.v), dt)
    assert not (np.array_equal(other.index, stencil.index)
                and np.array_equal(other.tx, stencil.tx)
                and np.array_equal(other.ty, stencil.ty))
    moved = step_temperature(theta, rho_new, rho, other, source, dt, 0.0,
                             canonical_laws())
    assert np.ptp(moved.values) > 1e-4


def test_uniform_sink_ode_matches_root_find(grid):
    delta = 0.5
    dt = 0.1
    theta = ScalarField.constant(grid, 1.0)
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 0.0), dt, delta,
                           canonical_laws())
    expected = brentq(lambda t: (delta + 1.0) * (t - 1.0) / dt
                      + delta * t ** 3, 0.0, 1.0, xtol=1e-15)
    assert np.max(np.abs(out.values - expected)) <= 1e-10


def test_cosine_diffusion_decay_rate(monkeypatch):
    n = 64
    grid = Grid(nx=n, ny=n)
    kappa = 1.0
    amp = 0.1
    theta = ScalarField.from_function(
        grid, lambda x, y: 1.0 + amp * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    dt = 1e-3
    steps = 50
    # a constant conductivity, which no ConductivityLaw gives
    monkeypatch.setattr(thermal, "eval_conductivity",
                        lambda law, theta: np.full(np.shape(theta), kappa))
    for _ in range(steps):
        theta = step_temperature(theta, rho, rho, rest_feet(grid),
                                 ScalarField.constant(grid, 0.0), dt, 0.0,
                                 canonical_laws())
    rate = kappa * np.pi ** 2
    measured = (theta.max() - theta.min()) / 2.0
    expected = amp * np.exp(-rate * dt * steps)
    h = 1.0 / n
    assert abs(measured - expected) <= 5.0 * amp * (dt * rate + h ** 2)


def dense(op, n):
    """The n x n matrix of the operator op, built column by column from
    op @ e_k."""
    return np.column_stack([op @ e for e in np.eye(n)])


def test_neumann_operator_structure(grid):
    rng = np.random.default_rng(0)
    kappa = 1.0 + rng.random(grid.shape)
    S = neumann_divgrad(grid, kappa)
    mat = dense(S, kappa.size)
    assert np.max(np.abs(mat - mat.T)) == 0.0
    assert np.max(np.abs(S @ np.ones(mat.shape[0]))) <= 1e-13
    assert np.max(np.linalg.eigvalsh(mat)) <= 1e-10


def coo_divgrad(grid, kappa):
    """Reference operator built face by face from COO triplets: each face
    between nodes a and b with conductance g adds g at (a, b) and (b, a)
    and -g at (a, a) and (b, b)."""
    wx, wy = grid.axis_weights()
    ids = np.arange(kappa.size).reshape(grid.shape)
    faces = [
        (ids[:-1, :], ids[1:, :],
         0.5 * (kappa[:-1, :] + kappa[1:, :]) * wy[None, :] / grid.hx),
        (ids[:, :-1], ids[:, 1:],
         0.5 * (kappa[:, :-1] + kappa[:, 1:]) * wx[:, None] / grid.hy),
    ]
    rows, cols, vals = [], [], []
    for a, b, g in faces:
        a, b, g = a.ravel(), b.ravel(), g.ravel()
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        vals += [g, g, -g, -g]
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(kappa.size, kappa.size))


def oracle_jacobian(grid, diag, kappa):
    """diag(diag) - S(kappa) from the face-by-face reference operator."""
    return (sp.diags(diag) - coo_divgrad(grid, kappa.reshape(grid.shape))).tocsr()


@pytest.mark.parametrize("nx, ny, Lx, Ly, seed", [
    (4, 4, 1.0, 1.0, 0),
    (5, 9, 0.3, 2.7, 1),
    (17, 6, 3.0, 0.7, 2),
    (12, 31, 1.3, 0.45, 3),
])
def test_neumann_operator_matches_face_by_face_assembly(nx, ny, Lx, Ly, seed,
                                                        monkeypatch):
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** rng.uniform(-3.0, 3.0, grid.shape)
    S = neumann_divgrad(grid, kappa)
    oracle = coo_divgrad(grid, kappa)
    assert np.array_equal(dense(S, kappa.size), oracle.toarray())
    # the products, bit for bit: S's, and the Jacobian's as CG receives it
    x = rng.standard_normal(kappa.size)
    assert np.array_equal(S @ x, oracle @ x)
    diag = 10.0 ** rng.uniform(-3.0, 3.0, kappa.size)
    jacobians = []

    def recorded_cg(J, rhs, **kwargs):
        jacobians.append(J)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(spla, "cg", recorded_cg)
    minus_S = thermal.FivePoint(*(-part for part in S))
    thermal._newton_solve(grid, minus_S, diag, kappa.ravel(), x, 0.0)
    (J,) = jacobians
    assert np.array_equal(J @ x, oracle_jacobian(grid, diag, kappa) @ x)


@pytest.mark.parametrize("n", [17, 65])
def test_newton_jacobian_matches_the_merged_pattern_form(n, monkeypatch):
    grid = Grid(nx=n, ny=n)
    X, Y = grid.nodes()
    theta = ScalarField(grid, 1.0 + 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    rho = ScalarField.constant(grid, 1.0)
    # the Jacobians as CG receives them, and the diagonal and nodal
    # conductivity each one was preconditioned from
    jacobians = []
    seen = []
    cg = spla.cg
    precondition = thermal.cosine_preconditioner

    def recorded_cg(J, *args, **kwargs):
        jacobians.append(J)
        return cg(J, *args, **kwargs)

    def recorded_preconditioner(grid, diag, kappa):
        seen.append((diag.copy(), kappa.copy()))
        return precondition(grid, diag, kappa)

    monkeypatch.setattr(spla, "cg", recorded_cg)
    monkeypatch.setattr(thermal, "cosine_preconditioner",
                        recorded_preconditioner)
    step_temperature(theta, rho, rho, rest_feet(grid),
                     ScalarField.constant(grid, 0.3), 0.01, 0.1,
                     canonical_laws())
    assert len(seen) >= 2
    assert len(jacobians) == len(seen)
    rng = np.random.default_rng(n)
    for J, (diag, kappa) in zip(jacobians, seen):
        merged = oracle_jacobian(grid, diag, kappa)
        for x in (np.ones(diag.size), rng.standard_normal(diag.size)):
            assert np.array_equal(J @ x, merged @ x)


def test_strong_flow_run_builds_no_sparse_matrix(monkeypatch):
    from nsfourier.config import RunConfig
    from nsfourier.coupler import run_simulation

    def forbidden(*args, **kwargs):
        raise AssertionError("the thermal operators are applied matrix-free")

    monkeypatch.setattr(sp, "diags", forbidden)
    monkeypatch.setattr(sp, "csr_matrix", forbidden)
    config = RunConfig(nx=24, ny=17, n_modes=6, m0_amplitude=1.0, dt=0.002,
                       t_final=0.02)
    traj = run_simulation(config)
    assert len(traj.states) == 11
    assert np.all(np.isfinite(traj.final.theta.values))


def test_thermal_content_conserved(grid):
    rng = np.random.default_rng(1)
    rho = ScalarField(grid, 1.0 + 0.3 * rng.random(grid.shape))
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    before = integrate_values(grid, rho.values * theta.values)
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 0.0), 0.05, 0.0,
                           canonical_laws())
    after = integrate_values(grid, rho.values * out.values)
    assert abs(after - before) <= 1e-10 * abs(before)


def test_pure_diffusion_comparison_principle(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 0.0), 0.1, 0.0,
                           canonical_laws())
    assert out.min() >= theta.min() - 1e-12
    assert out.max() <= theta.max() + 1e-12


def test_output_nonnegative_with_strong_sink(grid):
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.01 + 0.005 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 0.0), 1.0, 0.5,
                           canonical_laws())
    assert out.min() >= 0.0


def test_dissipation_source_heats(grid):
    theta = ScalarField.constant(grid, 0.2)
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(theta, rho, rho, rest_feet(grid),
                           ScalarField.constant(grid, 1.0), 0.1, 0.0,
                           canonical_laws())
    assert out.min() > 0.2


def test_input_validation(grid):
    rho = ScalarField.constant(grid, 1.0)
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, -0.1), rho, rho,
                         rest_feet(grid),
                         ScalarField.constant(grid, 0.0), 0.1, 0.1,
                         canonical_laws())
    with pytest.raises(ValueError):
        step_temperature(ScalarField.constant(grid, 0.1), rho, rho,
                         rest_feet(grid),
                         ScalarField.constant(grid, -1.0), 0.1, 0.1,
                         canonical_laws())


def test_zero_delta_with_a_vacuum_is_rejected_before_any_work(grid,
                                                             monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no work before the inputs are checked")

    monkeypatch.setattr(thermal, "neumann_divgrad", forbidden)
    monkeypatch.setattr(spla, "cg", forbidden)
    theta = ScalarField.constant(grid, 0.5)
    rho = ScalarField.constant(grid, 1.0)
    vacuum = rho.values.copy()
    vacuum[3, 5] = 0.0
    with pytest.raises(ValueError, match="delta \\+ rho_new"):
        step_temperature(theta, ScalarField(grid, vacuum), rho,
                         rest_feet(grid),
                         ScalarField.constant(grid, 0.0), 0.01, 0.0,
                         canonical_laws())


def test_non_finite_newton_residual_is_a_step_error_before_cg(grid,
                                                               monkeypatch):
    # theta^3 overflows at theta = 1e103, so the first residual is not
    # finite; CG would spend its 2000 iterations on NaN
    def forbidden(*args, **kwargs):
        raise AssertionError("CG called on a non-finite residual")

    monkeypatch.setattr(spla, "cg", forbidden)
    theta = ScalarField.constant(grid, 1e103)
    rho = ScalarField.constant(grid, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepError, match="not finite"):
            step_temperature(theta, rho, rho, rest_feet(grid),
                             ScalarField.constant(grid, 0.0), 0.01, 0.01,
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
    # 1e-12 of its scale; Newton stops at the first residual within
    # NEWTON_TOL times that scale, above the floor, so no solve is spent
    # on round-off
    grid, theta, rho = hot_step_inputs()
    laws = canonical_laws()
    solves = []
    cg = spla.cg

    def counted(*args, **kwargs):
        solves.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)

    def step():
        solves.clear()
        return step_temperature(theta, rho, rho, rest_feet(grid),
                                ScalarField.constant(grid, 0.0), 0.02, 0.01,
                                laws)

    out = step()
    assert len(solves) <= 3
    monkeypatch.setattr(thermal, "NEWTON_TOL", 1e-12)
    tight = step()
    assert np.max(np.abs(out.values - tight.values)) <= 1e-12 * tight.max()


def test_hot_spot_newton_solves_take_few_pcg_iterations(monkeypatch):
    # a 20-degree hot spot: kappa = 1 + theta^2 spans about 400x across
    # the grid, which the sqrt(kappa) scaling of the preconditioner
    # absorbs; with one constant kappa in its place CG takes over 200
    # iterations per solve
    grid = Grid(nx=64, ny=64)
    X, Y = grid.nodes()
    theta = ScalarField(grid, 0.2 + 20.0 * np.exp(
        -((X - 0.3) ** 2 + (Y - 0.6) ** 2) / 0.02))
    rho = ScalarField(grid, 1.0 + 0.05 * np.cos(np.pi * X))
    dt, delta = 0.002, 0.01
    # the step's Newton tolerance: NEWTON_TOL times the residual's scale
    tol = thermal.NEWTON_TOL * np.max(
        grid.quad_weights() * (delta + rho.values) / dt) * max(1.0, theta.max())
    cg_iters = []
    residuals = []
    seen = []
    cg = spla.cg
    precondition = thermal.cosine_preconditioner

    def recorded_preconditioner(grid, diag, kappa):
        seen.append((diag.copy(), kappa.copy()))
        return precondition(grid, diag, kappa)

    def counted_cg(J, rhs, **kwargs):
        cg_iters.append(0)

        def count(xk):
            cg_iters[-1] += 1

        upd, info = cg(J, rhs, callback=count, **kwargs)
        # each update solves its system to the 2-norm residual
        # max(1e-12 |rhs|, 0.1 tol), measured on the reference Jacobian
        J_ref = oracle_jacobian(grid, *seen[-1])
        residuals.append(np.linalg.norm(J_ref @ upd - rhs) / max(
            1e-12 * np.linalg.norm(rhs), 0.1 * tol))
        return upd, info

    def step():
        return step_temperature(theta, rho, rho, rest_feet(grid),
                                ScalarField.constant(grid, 0.0), dt, delta,
                                canonical_laws())

    monkeypatch.setattr(spla, "cg", counted_cg)
    monkeypatch.setattr(thermal, "cosine_preconditioner",
                        recorded_preconditioner)
    out = step()
    assert len(cg_iters) >= 2
    assert max(cg_iters) <= 60
    assert max(residuals) <= 1.0
    monkeypatch.setattr(thermal, "NEWTON_TOL", 1e-12)
    tight = step()
    assert np.max(np.abs(out.values - tight.values)) <= 1e-12 * tight.max()


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 40), ny=st.integers(4, 40),
       Lx=st.floats(0.3, 3.0), Ly=st.floats(0.3, 3.0),
       kappa_decade=st.floats(-2.0, 3.0), d_decade=st.floats(0.0, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cosine_preconditioner_inverts_a_constant_kappa_jacobian(
        nx, ny, Lx, Ly, kappa_decade, d_decade, seed):
    # for a constant kappa and D = c W the preconditioner is J^-1 itself.
    # d = c/kappa is the shift the transforms divide by; below about 1,
    # cond(J) ~ 8/(d h^2) lets the round-off of J x alone exceed 1e-12
    grid = Grid(nx=nx, ny=ny, Lx=Lx, Ly=Ly)
    W = grid.quad_weights().ravel()
    kappa = np.full(W.size, 10.0 ** kappa_decade)
    D = 10.0 ** (kappa_decade + d_decade) * W
    J = oracle_jacobian(grid, D, kappa)
    M = cosine_preconditioner(grid, D, kappa)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(W.size)
    assert np.max(np.abs(M.matvec(J @ x) - x)) <= 1e-12 * np.max(np.abs(x))
    iters = []
    _, info = spla.cg(J, rng.standard_normal(W.size), rtol=1e-12, atol=0.0,
                      M=M, callback=iters.append)
    assert info == 0
    assert len(iters) <= 2


def test_unconverged_cg_is_a_step_error(grid, monkeypatch):
    cg = spla.cg

    def unconverged(*args, **kwargs):
        return cg(*args, **kwargs)[0], 1

    monkeypatch.setattr(spla, "cg", unconverged)
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.01 * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    with pytest.raises(StepError, match="conjugate gradient failed to converge"):
        step_temperature(theta, rho, rho, rest_feet(grid),
                         ScalarField.constant(grid, 0.0), 0.02, 0.01,
                         canonical_laws())
