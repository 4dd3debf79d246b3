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
                assemble_viscous(basis, mu, 0.1)):
        assert np.max(np.abs(mat - mat.T)) <= 1e-13 * np.max(np.abs(mat))


def test_advection_matrix_exactly_skew(basis):
    rng = np.random.default_rng(6)
    rho = ScalarField(basis.grid, 1.0 + rng.random(basis.grid.shape))
    u = reconstruct_velocity(basis, rng.standard_normal(basis.n_modes))
    B = assemble_advection_matrix(basis, rho, u)
    assert np.array_equal(B, -B.T)


# Direct einsum forms of the Galerkin integrals, kept here as an oracle
# for the weighted-GEMM assembly in nsfourier.basis.

def _oracle_gram(basis, rho):
    w = basis.grid.quad_weights() * rho.values
    return np.einsum("iaxy,jaxy,xy->ij", basis.eta, basis.eta, w)


def _oracle_viscous(basis, mu, eps):
    w = basis.grid.quad_weights()
    sym = basis.deta + np.swapaxes(basis.deta, 1, 2)
    A = np.einsum("iabxy,jabxy,xy->ij", sym, sym, 0.5 * w * mu.values)
    A += eps * np.einsum("iabxy,jabxy,xy->ij", basis.deta, basis.deta, w)
    return A


def _oracle_advection_matrix(basis, rho, u):
    w = basis.grid.quad_weights() * rho.values
    uu = np.stack([u.u, u.v])
    conv = np.einsum("bxy,jabxy->jaxy", uu, basis.deta)
    C = np.einsum("iaxy,jaxy,xy->ij", basis.eta, conv, w)
    return 0.5 * (C - C.T)


@pytest.fixture(scope="module")
def oracle_case():
    grid = Grid(nx=24, ny=20)
    small = build_basis(grid, 10)
    X, Y = grid.nodes()
    rho = ScalarField(grid, 1.0 + 0.4 * np.sin(2.0 * X) * np.cos(3.0 * Y))
    mu = ScalarField(grid, 0.2 + X ** 2 + 0.5 * Y)
    u = reconstruct_velocity(small, np.random.default_rng(8).standard_normal(10))
    return small, rho, mu, u


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_divergence_free_gradient_identity(basis):
    assert np.array_equal(basis.deta[:, 1, 1], -basis.deta[:, 0, 0])


def test_gram_matches_einsum_oracle(oracle_case):
    small, rho, _, _ = oracle_case
    assert _rel_err(assemble_weighted_gram(small, rho),
                    _oracle_gram(small, rho)) <= 1e-13


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_viscous_matches_einsum_oracle(oracle_case, eps):
    small, _, mu, _ = oracle_case
    assert _rel_err(assemble_viscous(small, mu, eps),
                    _oracle_viscous(small, mu, eps)) <= 1e-13


def test_advection_matrix_matches_einsum_oracle(oracle_case):
    small, rho, _, u = oracle_case
    assert _rel_err(assemble_advection_matrix(small, rho, u),
                    _oracle_advection_matrix(small, rho, u)) <= 1e-13


def test_advection_matrix_is_independent_of_its_node_blocks(oracle_case,
                                                            monkeypatch):
    import nsfourier.basis as basis_module

    small, rho, _, u = oracle_case
    # 525 nodes: five blocks of 100 and a last one of 25
    monkeypatch.setattr(basis_module, "ADVECTION_BLOCK", 100)
    assert _rel_err(assemble_advection_matrix(small, rho, u),
                    _oracle_advection_matrix(small, rho, u)) <= 1e-13
