"""Backward-Euler step of the regularized temperature equation

    d/dt((delta+rho) theta) + div(rho u theta) - Lap K(theta)
        + delta theta^3 = (1-delta) S : grad u

with homogeneous Neumann walls.  Advection moves the conserved quantity
(delta+rho) theta through the feet stencil of the step's last density
transport, the one that produced rho_new, so a constant theta stays
constant under transport.  Diffusion is a finite-volume Neumann
operator with the conductivity lagged at the old temperature, the cubic
sink is implicit and solved by Newton, the dissipation source explicit.
A scale-down limiter keeps the advected thermal content from exceeding
its pre-step integral, so the discrete total energy budget can never
gain from interpolation error.

With the lagged conductivity the Newton Jacobian is

    J = diag(D) - S(kappa),  D = W (a/dt + 3 delta t^2),

and each Newton system is solved by CG preconditioned with

    P = diag(sqrt kappa) (c W - S_1) diag(sqrt kappa),

where S_1 is the unit-conductivity operator, W holds the trapezoid
weights and c = sqrt(min * max) of D/(kappa W), worked out from each
Jacobian.  On this uniform grid -S_1 = L_x (x) W_y + W_x (x) L_y, with
L = (1/h) tridiag(-1, 2, -1) (corner entries 1) the 1-D Neumann
stiffness.  L v = lambda W v has the W-orthonormal eigenvectors
v_k(i) ~ cos(k pi i/n) with lambda_k = (4/h^2) sin^2(k pi/2n), so P^-1 is
exact and needs no factorization: a transform on each axis, a diagonal
divide by c + lambda_x + lambda_y, and the transforms back.  For a
constant kappa and D = c kappa W, P = J.

The sqrt(kappa) scaling is exact only for a constant kappa: otherwise P
and J differ by a commutator term that grows with the node-to-node
contrast of kappa.  On a 16^2 grid with D = kappa W and kappa drawn
log-uniformly from node to node over 1, 2 and 3 decades, CG took up to
113, 415 and 1,250 iterations.  kappa(theta) on the smooth temperatures
runs produce stays far from that: about 7 iterations per solve, at most
31 on the `stressed` benchmark workload.  Every solve is checked to a relative
residual of 1e-12 on J itself within 2000 iterations; a miss is a
`StepError`, and the time loop halves dt.  Diffusing K(theta)
implicitly would remove the commutator and leave
cond(P^-1 J) <= max(d/W) / min(d/W), d = D/kappa.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import eval_conductivity
from .errors import SchemeError, StepError
from .grid import Grid, ScalarField, VectorField, integrate_values
from .transport import advect_values

NEGATIVITY_GUARD = -1e-12
NEWTON_TOL = 1e-10
NEWTON_MAX = 50


def dissipation_field(mu_field: ScalarField, u: VectorField) -> ScalarField:
    """S : grad u = 2 mu |D(u)|^2 with D(u) = sym(grad u); non-negative.

    u must carry its analytic gradients (every basis velocity does)."""
    if np.any(mu_field.values < 0):
        raise ValueError("viscosity field must be non-negative")
    return ScalarField(u.grid, 2.0 * mu_field.values * u.strain_sq())


def neumann_divgrad(grid: Grid, kappa: np.ndarray) -> sp.csr_matrix:
    """Integrated zero-flux diffusion operator S with (S t)_n = sum of face
    fluxes of kappa grad t into the control volume of node n.

    S is symmetric negative semidefinite with S 1 = 0, so quadrature-weighted
    conservation holds to round-off.  div(kappa grad t) ~ S t / W.
    """
    nyp = grid.shape[1]
    wx, wy = grid.axis_weights()
    # conductance of the x-face between (i, j) and (i+1, j)
    gx = 0.5 * (kappa[:-1, :] + kappa[1:, :]) * wy[None, :] / grid.hx
    # conductance of the y-face between (i, j) and (i, j+1); the last
    # column stays zero, because node (i, ny) has no face to (i+1, 0)
    gy = np.zeros(grid.shape)
    gy[:, :-1] = 0.5 * (kappa[:, :-1] + kappa[:, 1:]) * wx[:, None] / grid.hy
    # each node loses its right, left, upper and lower face conductance in
    # that order: the face-by-face sum's order, so its round-off is kept
    main = np.zeros(grid.shape)
    main[:-1, :] -= gx
    main[1:, :] -= gx
    main[:, :-1] -= gy[:, :-1]
    main[:, 1:] -= gy[:, :-1]
    gx, gy = gx.ravel(), gy.ravel()[:-1]
    return sp.diags([gx, gy, main.ravel(), gy, gx], [-nyp, -1, 0, 1, nyp],
                    format="csr")


@functools.lru_cache(maxsize=16)
def _cosine_modes(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D Neumann eigenpairs on n + 1 nodes of spacing h: columns V
    with L V = W V diag(lam) and V^T W V = I.  Read-only, built once per
    (n, h)."""
    k = np.arange(n + 1)
    V = np.cos(np.pi * np.outer(k, k) / n) * np.sqrt(2.0 / (n * h))
    # the constant and the alternating mode have twice the W-norm
    V[:, [0, n]] *= np.sqrt(0.5)
    lam = (4.0 / h ** 2) * np.sin(0.5 * np.pi * k / n) ** 2
    V.flags.writeable = lam.flags.writeable = False
    return V, lam


def cosine_preconditioner(grid: Grid, diag: np.ndarray,
                          kappa: np.ndarray) -> spla.LinearOperator:
    """P^-1 for the Jacobian diag(diag) - S(kappa), applied exactly by
    cosine transforms (see the module docstring).  diag is flat; kappa
    holds the positive nodal conductivities, flat or on the grid."""
    Vx, lam_x = _cosine_modes(grid.nx, grid.hx)
    Vy, lam_y = _cosine_modes(grid.ny, grid.hy)
    d = diag / (kappa.ravel() * grid.quad_weights().ravel())
    c = float(np.sqrt(d.min() * d.max()))
    inv = 1.0 / (c + lam_x[:, None] + lam_y[None, :])
    scale = (1.0 / np.sqrt(kappa)).reshape(grid.shape)

    def apply(r):
        R = r.reshape(grid.shape) * scale
        Z = Vx @ ((Vx.T @ R @ Vy) * inv) @ Vy.T
        return (Z * scale).ravel()

    return spla.LinearOperator((diag.size, diag.size), matvec=apply,
                               dtype=float)


def _newton_solve(grid: Grid, S: sp.csr_matrix, diag: np.ndarray,
                  kappa: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(diag) - S) x = rhs, S = S(kappa), by CG preconditioned
    with `cosine_preconditioner`, to a relative residual of 1e-12 on J."""
    # S's pattern holds the diagonal, so no pattern merge is needed
    J = -S
    J.setdiag(diag - S.diagonal())
    sol, info = spla.cg(J, rhs, rtol=1e-12, atol=0.0, maxiter=2000,
                        M=cosine_preconditioner(grid, diag, kappa))
    if info != 0:
        raise StepError(f"conjugate gradient failed to converge (info={info})")
    return sol


def step_temperature(theta: ScalarField, rho_new: ScalarField,
                     rho_old: ScalarField, stencil, diss: ScalarField,
                     dt: float, delta: float, laws) -> ScalarField:
    """One backward-Euler step of size dt; returns the new non-negative
    temperature.

    `stencil` is the `transport.Stencil` of the characteristic feet
    through which rho_old became rho_new, as `advect_density` returns
    it, or None when nothing moved.  `laws` must expose `conductivity`, a
    `ConductivityLaw`.
    """
    grid = theta.grid
    if dt <= 0:
        raise ValueError("dt must be positive")
    # delta = 0 is admitted so the stepper can run the unregularized
    # equation in limit studies
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if theta.min() < 0:
        raise ValueError("theta must be non-negative")
    if rho_new.min() < 0 or rho_old.min() < 0:
        raise ValueError("density fields must be non-negative")
    if diss.min() < 0:
        raise ValueError("dissipation source must be non-negative")

    a_new = delta + rho_new.values
    w_old = (delta + rho_old.values) * theta.values
    if stencil is None:
        w_star = w_old
    else:
        w_star = advect_values(grid, w_old, stencil)
        total_old = integrate_values(grid, w_old)
        total_star = integrate_values(grid, w_star)
        if total_star > total_old > 0.0:
            w_star *= total_old / total_star
    theta_adv = w_star / a_new

    wflat = grid.quad_weights().ravel()
    aflat = a_new.ravel()
    src = ((1.0 - delta) * diss.values).ravel()
    t_adv = theta_adv.ravel()

    kappa_old = np.asarray(eval_conductivity(laws.conductivity, theta.values))
    S = neumann_divgrad(grid, kappa_old)

    def residual(t):
        out = wflat * (aflat * (t - t_adv) / dt + delta * t ** 3 - src)
        out -= S @ t
        return out

    t = t_adv.copy()
    scale = np.max(wflat * aflat / dt) * max(1.0, float(np.max(t_adv)))
    tol = NEWTON_TOL * scale
    # The residual cannot drop below the round-off of S t, about
    # max|S| |t| 2^-52, which reaches several 1e-12 scale once kappa(theta)
    # is large (theta ~ 20).  Newton therefore also stops, inside the
    # tolerance, as soon as the residual has stopped contracting.
    f_prev = np.inf
    for _ in range(NEWTON_MAX):
        F = residual(t)
        f_max = float(np.max(np.abs(F)))
        if f_max <= 1e-2 * tol or (f_max <= tol and f_max > 0.5 * f_prev):
            break
        f_prev = f_max
        diag = wflat * (aflat / dt + 3.0 * delta * t ** 2)
        upd = _newton_solve(grid, S, diag, kappa_old, -F)
        t = t + upd
        if np.max(np.abs(upd)) <= 1e-14 * max(1.0, float(np.max(np.abs(t)))):
            break
    else:
        if np.max(np.abs(residual(t))) > tol:
            raise StepError("temperature Newton iteration did not converge")

    t = t.reshape(grid.shape)
    low = float(t.min())
    if low < NEGATIVITY_GUARD:
        raise SchemeError(f"temperature undershoot {low} below the {NEGATIVITY_GUARD} guard")
    return ScalarField(grid, np.maximum(t, 0.0))
