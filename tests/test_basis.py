import numpy as np
import pytest

from nsfourier.basis import (assemble_advection_matrix, assemble_viscous,
                             assemble_weighted_gram, build_basis,
                             mode_wavenumbers, reconstruct_velocity)
from nsfourier.config import RunConfig
from nsfourier.errors import ResolutionError
from nsfourier.grid import Grid, ScalarField, integrate_values


@pytest.fixture(scope="module")
def grid():
    return Grid(nx=64, ny=64)


@pytest.fixture(scope="module")
def basis(grid):
    return build_basis(grid, 16)


def test_mode_ordering_deterministic():
    pairs = mode_wavenumbers(6)
    assert pairs == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]


def test_mode_ordering_matches_the_sorted_definition():
    for n in range(40):
        pairs = sorted(((p, q) for p in range(1, n + 2) for q in range(1, n + 2)),
                       key=lambda pq: (pq[0] + pq[1], pq[0]))
        assert mode_wavenumbers(n) == pairs[:n]


def test_too_many_modes_rejected():
    with pytest.raises(ResolutionError,
                       match=r"^mode \(5,6\) not resolvable on a 8x8 grid$"):
        build_basis(Grid(nx=8, ny=8), 16)


@pytest.mark.parametrize("nx, ny", [(8, 8), (12, 8), (16, 24)])
def test_config_and_build_basis_agree_on_resolvability(nx, ny):
    grid = Grid(nx=nx, ny=ny)
    for n in range(1, 20):
        problems = RunConfig(nx=nx, ny=ny, n_modes=n).validate()
        try:
            build_basis(grid, n)
        except ResolutionError as exc:
            assert problems == [f"basis.n_modes: {exc}"]
        else:
            assert problems == []


def test_modes_vanish_on_walls(basis):
    for j in range(basis.n_modes):
        for comp in (basis.eta[j, 0], basis.eta[j, 1]):
            assert np.max(np.abs(comp[0, :])) == 0.0
            assert np.max(np.abs(comp[-1, :])) == 0.0
            assert np.max(np.abs(comp[:, 0])) == 0.0
            assert np.max(np.abs(comp[:, -1])) == 0.0


def test_reconstruct_zero(basis):
    u = reconstruct_velocity(basis, np.zeros(basis.n_modes))
    assert u.max_speed() == 0.0


def test_reconstruct_unit_vector(basis):
    c = np.zeros(basis.n_modes)
    c[0] = 1.0
    u = reconstruct_velocity(basis, c)
    assert np.array_equal(u.u, basis.eta[0, 0])
    assert np.array_equal(u.v, basis.eta[0, 1])


def test_reconstruct_homogeneous(basis):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(basis.n_modes)
    u1 = reconstruct_velocity(basis, c)
    u3 = reconstruct_velocity(basis, 3.0 * c)
    assert np.allclose(u3.u, 3.0 * u1.u, atol=1e-13)
    assert np.allclose(u3.v, 3.0 * u1.v, atol=1e-13)


def test_reconstructed_velocity_vanishes_on_walls(basis):
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = reconstruct_velocity(basis, rng.standard_normal(basis.n_modes))
        for comp in (u.u, u.v):
            for wall in (comp[0, :], comp[-1, :], comp[:, 0], comp[:, -1]):
                assert np.all(wall == 0.0)


def test_reconstructed_divergence_tiny(basis):
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = reconstruct_velocity(basis, rng.standard_normal(basis.n_modes))
        divergence = u.du_dx + u.dv_dy
        scale = max(np.max(np.abs(u.du_dx)), np.max(np.abs(u.dv_dy)), 1e-300)
        assert np.max(np.abs(divergence)) <= 1e-10 * scale


def test_gram_positive_definite(basis):
    M = assemble_weighted_gram(basis, ScalarField.constant(basis.grid, 1.0))
    assert np.min(np.linalg.eigvalsh(M)) > 0.0


def test_gram_zero_density(basis):
    M = assemble_weighted_gram(basis, ScalarField.constant(basis.grid, 0.0))
    assert np.all(M == 0.0)


def test_gram_linear_in_density(basis):
    rng = np.random.default_rng(2)
    rho = ScalarField(basis.grid, 1.0 + rng.random(basis.grid.shape))
    M1 = assemble_weighted_gram(basis, rho)
    M2 = assemble_weighted_gram(basis, ScalarField(basis.grid, 2.0 * rho.values))
    assert np.allclose(M2, 2.0 * M1, rtol=1e-13)


def test_gram_rejects_negative_density(basis):
    with pytest.raises(ValueError):
        assemble_weighted_gram(basis, ScalarField.constant(basis.grid, -1.0))


def test_viscous_zero(basis):
    A = assemble_viscous(basis, ScalarField.constant(basis.grid, 0.0), 0.0)
    assert np.all(A == 0.0)


def test_viscous_eps_only_definite(basis):
    A = assemble_viscous(basis, ScalarField.constant(basis.grid, 0.0), 1.0)
    assert np.min(np.linalg.eigvalsh(A)) > 0.0


def test_viscous_quadratic_form_identity(basis):
    rng = np.random.default_rng(3)
    mu = ScalarField.constant(basis.grid, 0.7)
    eps = 0.3
    A = assemble_viscous(basis, mu, eps)
    c = rng.standard_normal(basis.n_modes)
    u = reconstruct_velocity(basis, c)
    d12 = 0.5 * (u.du_dy + u.dv_dx)
    dsq = u.du_dx ** 2 + u.dv_dy ** 2 + 2.0 * d12 ** 2
    grad_sq = u.du_dx ** 2 + u.du_dy ** 2 + u.dv_dx ** 2 + u.dv_dy ** 2
    direct = integrate_values(basis.grid, 2.0 * mu.values * dsq + eps * grad_sq)
    assert float(c @ A @ c) == pytest.approx(direct, rel=1e-12)


def test_assembled_matrices_symmetric(basis):
    rng = np.random.default_rng(4)
    rho = ScalarField(basis.grid, 1.0 + rng.random(basis.grid.shape))
    mu = ScalarField(basis.grid, rng.random(basis.grid.shape))
    for mat in (assemble_weighted_gram(basis, rho),
                assemble_viscous(basis, mu, 0.1), basis.grad_gram):
        assert np.array_equal(mat, mat.T)


def test_advection_matrix_exactly_skew(basis):
    rng = np.random.default_rng(6)
    rho = ScalarField(basis.grid, 1.0 + rng.random(basis.grid.shape))
    u = reconstruct_velocity(basis, rng.standard_normal(basis.n_modes))
    B = assemble_advection_matrix(basis, rho, u)
    assert np.array_equal(B, -B.T)


# Dense forms of the basis and of the Galerkin integrals, kept here as
# an oracle for the sum-factorized kernels in nsfourier.basis.  The
# tables are built mode by mode from the clamped profiles, independently
# of the basis' own dense `eta`.

def _profile(p, s, L):
    k1, k2 = (p - 1) * np.pi / L, (p + 1) * np.pi / L
    return (np.cos(k1 * s) - np.cos(k2 * s),
            -k1 * np.sin(k1 * s) + k2 * np.sin(k2 * s),
            -k1 ** 2 * np.cos(k1 * s) + k2 ** 2 * np.cos(k2 * s))


def _dense_tables(grid, n_modes):
    eta = np.empty((n_modes, 2) + grid.shape)
    deta = np.empty((n_modes, 2, 2) + grid.shape)
    for j, (p, q) in enumerate(mode_wavenumbers(n_modes)):
        X, dX, d2X = _profile(p, grid.x, grid.Lx)
        Y, dY, d2Y = _profile(q, grid.y, grid.Ly)
        eta[j, 0] = np.outer(X, dY)
        eta[j, 1] = -np.outer(dX, Y)
        deta[j, 0, 0] = np.outer(dX, dY)
        deta[j, 0, 1] = np.outer(X, d2Y)
        deta[j, 1, 0] = -np.outer(d2X, Y)
        deta[j, 1, 1] = -np.outer(dX, dY)
    eta[:, :, 0, :] = 0.0
    eta[:, :, -1, :] = 0.0
    eta[:, :, :, 0] = 0.0
    eta[:, :, :, -1] = 0.0
    return eta, deta


def _oracle_gram(grid, tables, rho):
    eta, _ = tables
    w = grid.quad_weights() * rho.values
    return np.einsum("iaxy,jaxy,xy->ij", eta, eta, w)


def _oracle_grad_gram(grid, tables):
    _, deta = tables
    return np.einsum("iabxy,jabxy,xy->ij", deta, deta, grid.quad_weights())


def _oracle_viscous(grid, tables, mu, eps):
    _, deta = tables
    w = grid.quad_weights()
    sym = deta + np.swapaxes(deta, 1, 2)
    A = np.einsum("iabxy,jabxy,xy->ij", sym, sym, 0.5 * w * mu.values)
    A += eps * _oracle_grad_gram(grid, tables)
    return A


def _oracle_advection_matrix(grid, tables, rho, u):
    eta, deta = tables
    w = grid.quad_weights() * rho.values
    uu = np.stack([u.u, u.v])
    conv = np.einsum("bxy,jabxy->jaxy", uu, deta)
    C = np.einsum("iaxy,jaxy,xy->ij", eta, conv, w)
    return 0.5 * (C - C.T)


def _oracle_velocity(tables, c):
    eta, deta = tables
    vel = np.einsum("j,jaxy->axy", c, eta)
    dvel = np.einsum("j,jabxy->abxy", c, deta)
    return (vel[0], vel[1], dvel[0, 0], dvel[0, 1], dvel[1, 0], dvel[1, 1])


def _case(grid, n_modes, seed):
    small = build_basis(grid, n_modes)
    X, Y = grid.nodes()
    rho = ScalarField(grid, 1.0 + 0.4 * np.sin(2.0 * X) * np.cos(3.0 * Y))
    mu = ScalarField(grid, 0.2 + X ** 2 + 0.5 * Y)
    c = np.random.default_rng(seed).standard_normal(n_modes)
    return small, _dense_tables(grid, n_modes), rho, mu, c


@pytest.fixture(scope="module")
def oracle_case():
    return _case(Grid(nx=24, ny=20), 10, 8)


@pytest.fixture(scope="module")
def anisotropic_case():
    # nx != ny, Lx != Ly, and the 7 modes reach P = 3 in x and Q = 4 in y
    case = _case(Grid(nx=30, ny=22, Lx=1.3, Ly=0.7), 7, 10)
    assert (case[0].X.shape[1], case[0].Y.shape[1]) == (3, 4)
    return case


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_divergence_free_gradient_identity(basis):
    c = np.random.default_rng(3).standard_normal(basis.n_modes)
    u = reconstruct_velocity(basis, c)
    assert np.array_equal(u.dv_dy, -u.du_dx)


def test_dense_tables_match_the_mode_loop(oracle_case, anisotropic_case):
    for small, (eta, _), *_ in (oracle_case, anisotropic_case):
        assert np.array_equal(small.eta, eta)


def _check_kernel(name, case):
    """Compare one kernel with its einsum oracle on an oracle case."""
    small, tables, rho, mu, c = case
    grid = small.grid
    u = reconstruct_velocity(small, c)
    if name == "gram":
        got, ref = [assemble_weighted_gram(small, rho)], [_oracle_gram(grid, tables, rho)]
    elif name == "grad_gram":
        got, ref = [small.grad_gram], [_oracle_grad_gram(grid, tables)]
    elif name.startswith("viscous"):
        eps = float(name.split("-")[1])
        got = [assemble_viscous(small, mu, eps)]
        ref = [_oracle_viscous(grid, tables, mu, eps)]
    elif name == "advection":
        got = [assemble_advection_matrix(small, rho, u)]
        ref = [_oracle_advection_matrix(grid, tables, rho, u)]
    else:
        got = [u.u, u.v, u.du_dx, u.du_dy, u.dv_dx, u.dv_dy]
        ref = _oracle_velocity(tables, c)
    for a, b in zip(got, ref, strict=True):
        assert _rel_err(a, b) <= 1e-13


def test_gram_matches_einsum_oracle(oracle_case):
    _check_kernel("gram", oracle_case)


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_viscous_matches_einsum_oracle(oracle_case, eps):
    _check_kernel(f"viscous-{eps}", oracle_case)


def test_advection_matrix_matches_einsum_oracle(oracle_case):
    _check_kernel("advection", oracle_case)


@pytest.mark.parametrize("name", ["grad_gram", "velocity"])
def test_kernel_matches_einsum_oracle(oracle_case, name):
    _check_kernel(name, oracle_case)


@pytest.mark.parametrize("name", ["gram", "grad_gram", "viscous-0.0",
                                  "viscous-0.3", "advection", "velocity"])
def test_anisotropic_kernel_matches_einsum_oracle(anisotropic_case, name):
    _check_kernel(name, anisotropic_case)


def test_verifiers_never_build_the_dense_tables():
    # the solver and every verifier work on the 1-D profile tables; the
    # dense (n, 2, Nx, Ny) table is for checks only
    from nsfourier.coefficients import RenormFunction
    from nsfourier.coupler import run_simulation
    from nsfourier.degiorgi import ladder_run
    from nsfourier.diagnostics import (SeparableTestFunction, apriori_monitor,
                                       check_energy_inequality, renorm_report)

    config = RunConfig(t_final=0.03)
    traj = run_simulation(config)
    check_energy_inequality(traj, config.delta, config.eps)
    apriori_monitor(traj)
    ladder_run(traj, theta_floor=config.theta_floor)
    renorm_report(traj, RenormFunction.power(1.0),
                  SeparableTestFunction(traj.grid, traj.final.t),
                  config.delta, traj.laws)
    assert "eta" not in vars(traj.basis)
