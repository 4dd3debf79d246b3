"""Divergence-free no-slip velocity basis from clamped stream functions.

Each mode is u = curl(psi) with psi(x, y) = X_p(x) Y_q(y) and

    X_p(x) = cos((p-1) pi x / Lx) - cos((p+1) pi x / Lx),

which vanishes together with its derivative at both walls, so every
reconstructed velocity is exactly divergence free and exactly zero on
the boundary.  Modes are ordered by total wavenumber p+q with x-major
tie-breaking.

Galerkin assembly works on the flattened views eta (n, 2, P) and
deta (n, 4, P) over the P grid nodes, without copying the basis arrays:
a weighted integral int w f_i f_j dx of one component f becomes the
symmetric rank-k BLAS update H H^T with H = f sqrt(w), and a vector
integrand takes one such GEMM per component.  At most one (n, P) slab is
alive at a time: the advection matrix accumulates over node blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResolutionError
from .grid import Grid, ScalarField, VectorField

__all__ = [
    "StreamBasis",
    "build_basis",
    "reconstruct_velocity",
    "assemble_weighted_gram",
    "assemble_viscous",
    "assemble_advection_matrix",
]

# nodes per block of the advection assembly
ADVECTION_BLOCK = 4096


def _clamped_profile(p: int, s: np.ndarray, L: float):
    """X_p and its first two derivatives on nodes s."""
    k1 = (p - 1) * np.pi / L
    k2 = (p + 1) * np.pi / L
    f = np.cos(k1 * s) - np.cos(k2 * s)
    d1 = -k1 * np.sin(k1 * s) + k2 * np.sin(k2 * s)
    d2 = -k1 ** 2 * np.cos(k1 * s) + k2 ** 2 * np.cos(k2 * s)
    return f, d1, d2


def mode_wavenumbers(n_modes: int) -> list[tuple[int, int]]:
    """First n_modes (p, q) pairs sorted by (p+q, p)."""
    pairs = ((p, s - p) for s in itertools.count(2) for p in range(1, s))
    return list(itertools.islice(pairs, n_modes))


def resolution_problem(nx: int, ny: int, n_modes: int) -> str | None:
    """Why the first n_modes >= 1 modes are not resolvable on an nx x ny
    grid, or None when they are."""
    pairs = mode_wavenumbers(n_modes)
    p_max = max(p for p, _ in pairs)
    q_max = max(q for _, q in pairs)
    if p_max + 1 > nx // 2 or q_max + 1 > ny // 2:
        return f"mode ({p_max},{q_max}) not resolvable on a {nx}x{ny} grid"
    return None


@dataclass
class StreamBasis:
    grid: Grid
    n_modes: int
    wavenumbers: list = field(repr=False)
    eta: np.ndarray = field(repr=False)    # (n, 2, Nx, Ny)
    deta: np.ndarray = field(repr=False)   # (n, 2, 2, Nx, Ny); deta[j,a,b] = d_b eta_a

    @cached_property
    def grad_gram(self) -> np.ndarray:
        """G_ij = int grad eta_i : grad eta_j dx, built on first use and
        shared read-only by every caller."""
        w = self.grid.quad_weights().ravel()
        G = sum(_weighted_gram(f, w) for f in _flat(self)[1].swapaxes(0, 1))
        G.flags.writeable = False
        return G


def build_basis(grid: Grid, n_modes: int) -> StreamBasis:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    problem = resolution_problem(grid.nx, grid.ny, n_modes)
    if problem:
        raise ResolutionError(problem)
    pairs = mode_wavenumbers(n_modes)

    shape = grid.shape
    eta = np.empty((n_modes, 2) + shape)
    deta = np.empty((n_modes, 2, 2) + shape)
    for j, (p, q) in enumerate(pairs):
        X, dX, d2X = _clamped_profile(p, grid.x, grid.Lx)
        Y, dY, d2Y = _clamped_profile(q, grid.y, grid.Ly)
        # eta = (psi_y, -psi_x) with psi = X(x) Y(y)
        eta[j, 0] = np.outer(X, dY)
        eta[j, 1] = -np.outer(dX, Y)
        deta[j, 0, 0] = np.outer(dX, dY)
        deta[j, 0, 1] = np.outer(X, d2Y)
        deta[j, 1, 0] = -np.outer(d2X, Y)
        deta[j, 1, 1] = -np.outer(dX, dY)
    # the clamped profiles vanish on the walls analytically; pin the nodal
    # values to exact zero so no-slip is not limited by cosine round-off
    eta[:, :, 0, :] = 0.0
    eta[:, :, -1, :] = 0.0
    eta[:, :, :, 0] = 0.0
    eta[:, :, :, -1] = 0.0
    return StreamBasis(grid, n_modes, pairs, eta, deta)


def reconstruct_velocity(basis: StreamBasis, coeffs: np.ndarray) -> VectorField:
    """u = sum_j c_j eta_j with analytic gradients; linear in coeffs."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} coefficients, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    shape = basis.eta.shape[-2:]
    vel = (c @ basis.eta.reshape(basis.n_modes, -1)).reshape((2,) + shape)
    dvel = (c @ basis.deta.reshape(basis.n_modes, -1)).reshape((4,) + shape)
    return VectorField(basis.grid, vel[0], vel[1], dvel[0], dvel[1], dvel[2], dvel[3])


def _flat(basis: StreamBasis) -> tuple[np.ndarray, np.ndarray]:
    """Views eta (n, 2, P) and deta (n, 4, P) over the P grid nodes; the
    deta components are ordered d_x eta_0, d_y eta_0, d_x eta_1, d_y eta_1."""
    n = basis.n_modes
    return basis.eta.reshape(n, 2, -1), basis.deta.reshape(n, 4, -1)


def _weighted_gram(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """G_ij = sum_k F[i,k] w[k] F[j,k] for F (n, P) and weights w >= 0, as
    the rank-k update H H^T with H = F sqrt(w); exactly symmetric."""
    H = F * np.sqrt(w)
    return H @ H.T


def assemble_weighted_gram(basis: StreamBasis, rho: ScalarField) -> np.ndarray:
    """M_ij = int rho eta_i . eta_j dx; SPD whenever rho is bounded below."""
    if np.any(rho.values < 0):
        raise ValueError("rho must be non-negative for a definite mass matrix")
    w = (basis.grid.quad_weights() * rho.values).ravel()
    eta, _ = _flat(basis)
    return _weighted_gram(eta[:, 0], w) + _weighted_gram(eta[:, 1], w)


def assemble_viscous(basis: StreamBasis, mu_field: ScalarField, eps: float) -> np.ndarray:
    """A_ij = int ( (mu/2) sym(grad eta_i) : sym(grad eta_j)
                    + eps grad eta_i : grad eta_j ) dx.

    Every mode is divergence free with d_y eta_1 = -d_x eta_0 exactly, so
    with a = d_x eta_0 and s = d_y eta_0 + d_x eta_1

        sym(grad eta_i) : sym(grad eta_j) = 8 a_i a_j + 2 s_i s_j,

    which takes two weighted Gram matrices.  The eps term depends on the
    basis alone and is cached there (`grad_gram`).
    """
    if np.any(mu_field.values < 0) or eps < 0:
        raise ValueError("viscosity field and eps must be non-negative")
    w = (basis.grid.quad_weights() * mu_field.values).ravel()
    _, d = _flat(basis)
    A = _weighted_gram(d[:, 0], w)
    A *= 4.0
    # H = s sqrt(w) formed in place, so s is the only slab alive
    H = d[:, 1] + d[:, 2]
    H *= np.sqrt(w)
    A += H @ H.T
    if eps > 0:
        A += eps * basis.grad_gram
    return A


def assemble_advection_matrix(basis: StreamBasis, rho: ScalarField,
                              u_field: VectorField) -> np.ndarray:
    """Skew-symmetric advection matrix for transport velocity u:

        B_ij = (1/2) int rho [ (u . grad) eta_j . eta_i
                               - (u . grad) eta_i . eta_j ] dx.

    Exact skew symmetry makes the advection energy-neutral for any
    coefficient vector it acts on.  Per component a and block of
    ADVECTION_BLOCK nodes, the convective field (u . grad) eta_{j,a} is
    formed node by node and C_ij = int rho eta_i . (u . grad) eta_j gains
    one GEMM, so its temporaries stay a fraction of one (n, P) slab.
    """
    w = (basis.grid.quad_weights() * rho.values).ravel()
    u, v = u_field.u.ravel(), u_field.v.ravel()
    eta, d = _flat(basis)
    n = basis.n_modes
    C = np.zeros((n, n))
    for k in range(0, w.size, ADVECTION_BLOCK):
        blk = slice(k, k + ADVECTION_BLOCK)
        for a in range(2):
            conv = d[:, 2 * a, blk] * u[blk]
            conv += d[:, 2 * a + 1, blk] * v[blk]
            C += (eta[:, a, blk] * w[blk]) @ conv.T
    return 0.5 * (C - C.T)
