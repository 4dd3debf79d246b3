"""Backward-Euler step of the regularized temperature equation

    d/dt((delta+rho) theta) + div(rho u theta) - Lap K(theta)
        + delta theta^3 = (1-delta) S : grad u

with homogeneous Neumann walls.  Advection moves the conserved quantity
(delta+rho) theta through the feet stencil of the step's last density
transport, the one that produced rho_new, so a constant theta stays
constant under transport.  Diffusion is a finite-volume Neumann
operator with the conductivity lagged at the old temperature, the cubic
sink is implicit and solved by Newton, the dissipation source explicit.
S and each Newton Jacobian are applied matrix-free from their face
conductances and diagonal, each row summed as a sorted CSR row is:
(i-1, j), (i, j-1), (i, j), (i, j+1), (i+1, j), so every product equals
the sparse matrix's bit for bit.  A scale-down limiter keeps the
advected thermal content from exceeding its pre-step integral, so the
discrete total energy budget can never gain from interpolation error.

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
`StepError`, and the time loop halves dt.  A Newton residual that is
not finite is a `StepError` before CG is called.  Diffusing K(theta)
implicitly would remove the commutator and leave
cond(P^-1 J) <= max(d/W) / min(d/W), d = D/kappa.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
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


class FivePoint(NamedTuple):
    """A symmetric five-point operator on the flat nodes k = i (ny+1) + j:
    gx[k] couples node k to k + ny + 1, gy[k] couples k to k + 1 and is
    zero where k ends a grid row, and `main` is the diagonal.  `op @ x`
    is the matvec on flat or grid x: every term one contiguous product,
    and the zero terms leave the sums unchanged."""
    gx: np.ndarray
    gy: np.ndarray
    main: np.ndarray

    def __matmul__(self, x):
        gx, gy, main = self
        n = main.size - gx.size
        t = x.ravel()
        # each row adds its terms in the module docstring's order
        out = np.empty(t.size)
        prod = np.empty(t.size)
        np.multiply(gx, t[:-n], out=out[n:])
        out[:n] = 0.0
        out[1:] += np.multiply(gy, t[:-1], out=prod[:-1])
        out += np.multiply(main, t, out=prod)
        out[:-1] += np.multiply(gy, t[1:], out=prod[:-1])
        out[:-n] += np.multiply(gx, t[n:], out=prod[:-n])
        return out.reshape(x.shape)


def neumann_divgrad(grid: Grid, kappa: np.ndarray) -> FivePoint:
    """Integrated zero-flux diffusion operator S with (S t)_n = sum of face
    fluxes of kappa grad t into the control volume of node n.

    S is symmetric negative semidefinite with S 1 = 0, so quadrature-weighted
    conservation holds to round-off.  div(kappa grad t) ~ S t / W.
    """
    wx, wy = grid.axis_weights()
    # conductance of the x-face between (i, j) and (i+1, j), formed in
    # place in the operation order of 0.5 * (kappa_a + kappa_b) * w / h
    gx = np.add(kappa[:-1, :], kappa[1:, :])
    gx *= 0.5
    gx *= wy
    gx /= grid.hx
    # conductance of the y-face between (i, j) and (i, j+1); the column
    # past j = ny - 1 stays zero
    gy_rows = np.zeros(grid.shape)
    gy = np.add(kappa[:, :-1], kappa[:, 1:], out=gy_rows[:, :-1])
    gy *= 0.5
    gy *= wx[:, None]
    gy /= grid.hy
    # each node loses its right, left, upper and lower face conductance in
    # that order: the face-by-face sum's order, so its round-off is kept
    main = np.zeros(grid.shape)
    main[:-1, :] -= gx
    main[1:, :] -= gx
    main[:, :-1] -= gy
    main[:, 1:] -= gy
    return FivePoint(gx.ravel(), gy_rows.ravel()[:-1], main.ravel())


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
        # scale * (Vx ((Vx^T (scale * r) Vy) * inv) Vy^T), in two buffers
        Z = r.reshape(grid.shape) * scale
        T = Vx.T @ Z
        np.matmul(T, Vy, out=Z)
        Z *= inv
        np.matmul(Vx, Z, out=T)
        np.matmul(T, Vy.T, out=Z)
        Z *= scale
        return Z.ravel()

    return spla.LinearOperator((diag.size, diag.size), matvec=apply,
                               dtype=float)


def _newton_solve(grid: Grid, minus_S: FivePoint, diag: np.ndarray,
                  kappa: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(diag) - S) x = rhs, S = S(kappa), by CG preconditioned
    with `cosine_preconditioner`, to a relative residual of 1e-12 on J.
    minus_S is -S, whose off-diagonals J shares; J's diagonal
    diag + (-S.main) equals diag - S.main bit for bit."""
    M = cosine_preconditioner(grid, diag, kappa)
    J = minus_S._replace(main=diag + minus_S.main)
    # only J's diagonal is read from here on
    del diag
    sol, info = spla.cg(spla.LinearOperator((J.main.size, J.main.size),
                                            matvec=J.__matmul__, dtype=float),
                        rhs, rtol=1e-12, atol=0.0, maxiter=2000, M=M)
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
    if delta + rho_new.min() <= 0:
        # a = delta + rho_new divides the advected thermal content
        raise ValueError("delta + rho_new must be positive")
    if diss.min() < 0:
        raise ValueError("dissipation source must be non-negative")

    a_new = delta + rho_new.values
    w_old = np.add(delta, rho_old.values)
    w_old *= theta.values
    if stencil is None:
        theta_adv = w_old
    else:
        theta_adv = advect_values(grid, w_old, stencil)
        total_old = integrate_values(grid, w_old)
        del w_old
        total_star = integrate_values(grid, theta_adv)
        if total_star > total_old > 0.0:
            theta_adv *= total_old / total_star
    # the advected content (delta + rho) theta becomes theta in place
    theta_adv /= a_new

    wflat = grid.quad_weights().ravel()
    aflat = a_new.ravel()
    src = ((1.0 - delta) * diss.values).ravel()
    t_adv = theta_adv.ravel()

    kappa_old = eval_conductivity(laws.conductivity, theta.values)
    # -S, negated in place once per step: every Newton Jacobian shares
    # its off-diagonals, and (-S) t equals -(S t) bit for bit up to the
    # sign of an exact zero, so adding it gives the residual's values
    minus_S = neumann_divgrad(grid, kappa_old)
    for part in minus_S:
        np.negative(part, out=part)

    def residual(t):
        out = wflat * (aflat * (t - t_adv) / dt + delta * t ** 3 - src)
        out += minus_S @ t
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
        if not np.isfinite(f_max):
            raise StepError("temperature Newton residual is not finite")
        if f_max <= 1e-2 * tol or (f_max <= tol and f_max > 0.5 * f_prev):
            break
        f_prev = f_max
        # F is read no more, so its array becomes the right-hand side -F;
        # the diagonal is passed as a temporary, which `_newton_solve`
        # drops once J's diagonal is formed
        upd = _newton_solve(grid, minus_S,
                            wflat * (aflat / dt + 3.0 * delta * t ** 2),
                            kappa_old, np.negative(F, out=F))
        del F
        t += upd
        if np.max(np.abs(upd)) <= 1e-14 * max(1.0, float(np.max(np.abs(t)))):
            break
    else:
        # written so that a NaN residual fails the test too
        if not np.max(np.abs(residual(t))) <= tol:
            raise StepError("temperature Newton iteration did not converge")

    t = t.reshape(grid.shape)
    low = float(t.min())
    if low < NEGATIVITY_GUARD:
        raise SchemeError(f"temperature undershoot {low} below the {NEGATIVITY_GUARD} guard")
    return ScalarField(grid, np.maximum(t, 0.0))
