"""Divergence-free no-slip velocity basis from clamped stream functions.

Each mode is u = curl(psi) with psi(x, y) = X_p(x) Y_q(y) and

    X_p(x) = cos((p-1) pi x / Lx) - cos((p+1) pi x / Lx),

which vanishes together with its derivative at both walls, so every
reconstructed velocity is exactly divergence free and exactly zero on
the boundary.  Modes are ordered by total wavenumber p+q with x-major
tie-breaking.

Every field of the basis is a tensor product of 1-D profiles, so the
basis keeps only the tables X_p, X_p', X_p'' (p = 1..P) on the x nodes
and Y_q, Y_q', Y_q'' (q = 1..Q) on the y nodes, plus copies of the
profiles that enter the velocity itself with their wall values pinned
to zero.  A velocity is a few small triple products such as
u = X^T C Y' with the coefficients scattered into a (P, Q) matrix C.
Each Galerkin integral

    int W A_{p_i}(x) B_{q_i}(y) C_{p_j}(x) D_{q_j}(y) dx

is sum-factorized: one GEMM contracts y for every pair (q_i, q_j), a
second contracts x for every pair (p_i, p_j), and the n x n entries are
gathered from the (P^2, Q^2) result in one pass through a flat index
of (p_i, p_j, q_i, q_j), built once per basis.  The cost is
O(Nx Ny Q^2 + Nx P^2 Q^2) instead of O(n^2 Nx Ny), and no (n, Nx, Ny)
table is formed.  The dense mode table `eta` is built on first access
and only for readers outside the solver: `bench/tracer.py:assembly_work`
reads its shape, and acceptance criterion 2 checks its wall values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _clamped_profiles(p_max: int, s: np.ndarray, L: float) -> np.ndarray:
    """(3, p_max, len(s)) table of X_p, X_p', X_p'' for p = 1..p_max on
    nodes s."""
    p = np.arange(1, p_max + 1)[:, None]
    k1 = (p - 1) * np.pi / L
    k2 = (p + 1) * np.pi / L
    return np.stack([np.cos(k1 * s) - np.cos(k2 * s),
                     -k1 * np.sin(k1 * s) + k2 * np.sin(k2 * s),
                     -k1 ** 2 * np.cos(k1 * s) + k2 ** 2 * np.cos(k2 * s)])


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
    X: np.ndarray = field(repr=False)       # (3, P, Nx): X_p, X_p', X_p''
    Y: np.ndarray = field(repr=False)       # (3, Q, Ny): Y_q, Y_q', Y_q''
    X_wall: np.ndarray = field(repr=False)  # (2, P, Nx): X_p, X_p', 0 on the walls
    Y_wall: np.ndarray = field(repr=False)  # (2, Q, Ny): Y_q, Y_q', 0 on the walls

    def __post_init__(self):
        # mode j is row p[j] of the x tables and row q[j] of the y tables
        self.p, self.q = np.array(self.wavenumbers).T - 1
        # entry (i, j) of a contraction sits at (p_i, p_j, q_i, q_j) of
        # its (P, P, Q, Q) result; `pair_index` is that flat position
        P, Q = self.X.shape[1], self.Y.shape[1]
        p, q = self.p, self.q
        self.pair_index = ((p[:, None] * P + p[None, :]) * Q
                           + q[:, None]) * Q + q[None, :]
        self.pair_index.flags.writeable = False

    @cached_property
    def grad_gram(self) -> np.ndarray:
        """G_ij = int grad eta_i : grad eta_j dx, built on first use and
        shared read-only by every caller."""
        w = self.grid.quad_weights()
        X, dX, d2X = self.X
        Y, dY, d2Y = self.Y
        # the four gradient components are X'Y', X Y'', -X''Y and -X'Y'
        G = _contract(self, w, dX, dY, dX, dY)
        G *= 2.0
        G += _contract(self, w, X, d2Y, X, d2Y)
        G += _contract(self, w, d2X, Y, d2X, Y)
        G = _mirror_upper(G)
        G.flags.writeable = False
        return G

    @cached_property
    def eta(self) -> np.ndarray:
        """Dense (n, 2, Nx, Ny) mode velocities, built on first access for
        checks and tools; the solver never reads it."""
        (X, dX), (Y, dY) = self.X_wall[:, self.p], self.Y_wall[:, self.q]
        return np.stack([X[:, :, None] * dY[:, None, :],
                         -dX[:, :, None] * Y[:, None, :]], axis=1)


def build_basis(grid: Grid, n_modes: int) -> StreamBasis:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    problem = resolution_problem(grid.nx, grid.ny, n_modes)
    if problem:
        raise ResolutionError(problem)
    pairs = mode_wavenumbers(n_modes)
    X = _clamped_profiles(max(p for p, _ in pairs), grid.x, grid.Lx)
    Y = _clamped_profiles(max(q for _, q in pairs), grid.y, grid.Ly)
    # the clamped profiles and their first derivatives vanish on the walls
    # analytically; pin the nodal values that form the velocity to exact
    # zero so no-slip is not limited by cosine round-off
    X_wall, Y_wall = X[:2].copy(), Y[:2].copy()
    for table in (X_wall, Y_wall):
        table[:, :, 0] = 0.0
        table[:, :, -1] = 0.0
    return StreamBasis(grid, n_modes, pairs, X, Y, X_wall, Y_wall)


def reconstruct_velocity(basis: StreamBasis, coeffs: np.ndarray) -> VectorField:
    """u = sum_j c_j eta_j with analytic gradients; linear in coeffs."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.n_modes,):
        raise ValueError(f"expected {basis.n_modes} coefficients, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    C = np.zeros((basis.X.shape[1], basis.Y.shape[1]))
    C[basis.p, basis.q] = c
    X, dX, d2X = basis.X
    Y, dY, d2Y = basis.Y
    (Xw, dXw), (Yw, dYw) = basis.X_wall, basis.Y_wall
    # eta = (psi_y, -psi_x) with psi = sum_j c_j X_{p_j}(x) Y_{q_j}(y)
    du_dx = dX.T @ (C @ dY)
    return VectorField(basis.grid, Xw.T @ (C @ dYw), -(dXw.T @ (C @ Yw)),
                       du_dx, X.T @ (C @ d2Y), -(d2X.T @ (C @ Y)), -du_dx)


def _contract(basis: StreamBasis, W: np.ndarray, A: np.ndarray, B: np.ndarray,
              C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """K_ij = sum_xy W A[p_i] B[q_i] C[p_j] D[q_j] for nodal weights W
    (Nx, Ny), x tables A, C (P, Nx) and y tables B, D (Q, Ny).

    y is contracted first, (Nx x Ny) (Ny x Q^2), then x, (P^2 x Nx)
    (Nx x Q^2); the n x n entries are gathered from the (P^2, Q^2)
    result through the basis's flat `pair_index`."""
    P, Q = A.shape[0], B.shape[0]
    T = W @ (B[:, None] * D[None, :]).reshape(Q * Q, -1).T
    R = (A[:, None] * C[None, :]).reshape(P * P, -1) @ T
    # an index gather; `take` would first copy the read-only index
    return R.ravel()[basis.pair_index]


@lru_cache(maxsize=16)
def _strict_lower(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of an n x n
    matrix.  Read-only, built once per n."""
    i, j = np.tril_indices(n, -1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _mirror_upper(K: np.ndarray) -> np.ndarray:
    """K with its strict lower triangle replaced by the upper one, so a
    matrix symmetric up to round-off becomes exactly symmetric."""
    i, j = _strict_lower(K.shape[0])
    K[i, j] = K[j, i]
    return K


def assemble_weighted_gram(basis: StreamBasis, rho: ScalarField) -> np.ndarray:
    """M_ij = int rho eta_i . eta_j dx; SPD whenever rho is bounded below."""
    if np.any(rho.values < 0):
        raise ValueError("rho must be non-negative for a definite mass matrix")
    w = basis.grid.quad_weights() * rho.values
    (X, dX), (Y, dY) = basis.X_wall, basis.Y_wall
    M = _contract(basis, w, X, dY, X, dY)
    M += _contract(basis, w, dX, Y, dX, Y)
    return _mirror_upper(M)


def assemble_viscous(basis: StreamBasis, mu_field: ScalarField, eps: float) -> np.ndarray:
    """A_ij = int ( (mu/2) sym(grad eta_i) : sym(grad eta_j)
                    + eps grad eta_i : grad eta_j ) dx.

    Every mode is divergence free with d_y eta_1 = -d_x eta_0 exactly, so
    with a = d_x eta_0 = X'Y' and s = d_y eta_0 + d_x eta_1 = XY'' - X''Y

        sym(grad eta_i) : sym(grad eta_j) = 8 a_i a_j + 2 s_i s_j.

    The s s term is two squares and a cross term K with its transpose, so
    A takes four contractions.  The eps term depends on the basis alone
    and is cached there (`grad_gram`).
    """
    if np.any(mu_field.values < 0) or eps < 0:
        raise ValueError("viscosity field and eps must be non-negative")
    w = basis.grid.quad_weights() * mu_field.values
    X, dX, d2X = basis.X
    Y, dY, d2Y = basis.Y
    A = _contract(basis, w, dX, dY, dX, dY)
    A *= 4.0
    A += _contract(basis, w, X, d2Y, X, d2Y)
    A += _contract(basis, w, d2X, Y, d2X, Y)
    K = _contract(basis, w, X, d2Y, d2X, Y)
    A -= K
    A -= K.T
    A = _mirror_upper(A)
    if eps > 0:
        A += eps * basis.grad_gram
    return A


def assemble_advection_matrix(basis: StreamBasis, rho: ScalarField,
                              u_field: VectorField) -> np.ndarray:
    """Skew-symmetric advection matrix for transport velocity u:

        B_ij = (1/2) int rho [ (u . grad) eta_j . eta_i
                               - (u . grad) eta_i . eta_j ] dx.

    Exact skew symmetry makes the advection energy-neutral for any
    coefficient vector it acts on.  C_ij = int rho eta_i . (u . grad)
    eta_j takes one contraction per velocity and eta component: with
    eta = (X Y', -X' Y) and the gradients (X'Y', XY'') and (-X''Y, -X'Y'),
    the weights are rho u and rho v.
    """
    w = basis.grid.quad_weights() * rho.values
    wu, wv = w * u_field.u, w * u_field.v
    X, dX, d2X = basis.X
    Y, dY, d2Y = basis.Y
    (Xw, dXw), (Yw, dYw) = basis.X_wall, basis.Y_wall
    C = _contract(basis, wu, Xw, dYw, dX, dY)
    C += _contract(basis, wv, Xw, dYw, X, d2Y)
    C += _contract(basis, wu, dXw, Yw, d2X, Y)
    C += _contract(basis, wv, dXw, Yw, dX, dY)
    return 0.5 * (C - C.T)
