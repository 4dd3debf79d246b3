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

    J = diag(D) - S = diag(D) + sum_f g_f (e_a - e_b)(e_a - e_b)^T,
    D = W (a/dt + 3 delta t^2),  g_f = (kappa_a + kappa_b)/2 * (geometry),

a positive diagonal plus one positive multiple of a rank-one PSD term
per face.  If every D_n and every nodal kappa_n lies within a factor
(1 +- eta) of the values J0 was built from, each term does too, so
(1 - eta) J0 <= J <= (1 + eta) J0 in the Loewner order.  CG on J
preconditioned by J0^-1 then sees a spectrum in [1 - eta, 1 + eta] and
contracts the error in the J-norm by at least
(sqrt(c) - 1)/(sqrt(c) + 1) ~ eta/2 per iteration, c = (1+eta)/(1-eta):
at eta = 0.1, at most about 11 iterations reach the 1e-12 relative
residual.  One sparse LU is therefore kept across Newton solves and
across time steps, and `JacobianFactor.solve` refactors it only when
eta = max(max|D/D0 - 1|, max|kappa/kappa0 - 1|) exceeds REFACTOR_ETA.
Halving dt doubles a/dt, so a halved step always refactors.  Every
solve is still checked to the same residual tolerance on J itself, so
the rule decides only how many CG iterations a solve takes.
"""

from __future__ import annotations

import ctypes

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
# widest Loewner band (1 +- eta) around the factored Jacobian that its
# LU still serves; see the module docstring
REFACTOR_ETA = 0.1


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


def _band_eta(new: np.ndarray, old: np.ndarray) -> float:
    """max |new/old - 1|, or inf when the shapes differ; NaN where old
    is 0 counts as outside every band."""
    if new.shape != old.shape:
        return np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = float(np.max(np.abs(new / old - 1.0)))
    return eta if eta == eta else np.inf


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim   # glibc only
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


class JacobianFactor:
    """The sparse LU of the last factored Newton Jacobian J0 = diag(D0) - S0,
    with the D0 and nodal kappa0 it was built from.

    One holder serves every Newton solve of a run.  `solve` refactors only
    when the Jacobian has left the (1 +- REFACTOR_ETA) Loewner band around
    J0 (see the module docstring)."""

    def __init__(self):
        self._lu = None
        self._diag = None
        self._kappa = None

    def solve(self, S: sp.csr_matrix, diag: np.ndarray, kappa: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
        """Solve (diag(diag) - S(kappa)) x = rhs by CG preconditioned with
        J0's LU, to a relative residual of 1e-12 on J itself."""
        # S's pattern holds the diagonal, so no pattern merge is needed
        J = -S
        J.setdiag(diag - S.diagonal())
        if (self._lu is None
                or max(_band_eta(diag, self._diag),
                       _band_eta(kappa, self._kappa)) > REFACTOR_ETA):
            # Release the old factor first, so two are never alive at once,
            # and trim the C heap: SuperLU reserves about ten times what its
            # factor fills, and without the trim each successor touches new
            # pages (+3 MB resident over 11 refactorizations on `stressed`).
            self._lu = self._diag = self._kappa = None
            if _malloc_trim is not None:
                _malloc_trim(0)
            # minimum-degree ordering on the symmetric pattern, diagonal
            # pivots (J is SPD); narrow panels, no relaxed supernodes
            self._lu = spla.splu(
                J.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True), panel_size=4, relax=1)
            self._diag = diag.copy()
            self._kappa = kappa.copy()
        precond = spla.LinearOperator(J.shape, matvec=self._lu.solve,
                                      dtype=float)
        sol, info = spla.cg(J, rhs, rtol=1e-12, atol=0.0, maxiter=2000,
                            M=precond)
        if info != 0:
            raise StepError(f"conjugate gradient failed to converge (info={info})")
        return sol


def step_temperature(theta: ScalarField, rho_new: ScalarField,
                     rho_old: ScalarField, stencil, diss: ScalarField,
                     dt: float, delta: float, laws,
                     factor: JacobianFactor | None = None) -> ScalarField:
    """One backward-Euler step of size dt; returns the new non-negative
    temperature.

    `stencil` is the `transport.Stencil` of the characteristic feet
    through which rho_old became rho_new, as `advect_density` returns
    it, or None when nothing moved.  `laws` must expose `conductivity`, a
    `ConductivityLaw`.  `factor` carries the Jacobian's LU from earlier
    steps; None starts with nothing factored.
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
    if factor is None:
        factor = JacobianFactor()
    f_prev = np.inf
    for _ in range(NEWTON_MAX):
        F = residual(t)
        f_max = float(np.max(np.abs(F)))
        if f_max <= 1e-2 * tol or (f_max <= tol and f_max > 0.5 * f_prev):
            break
        f_prev = f_max
        diag = wflat * (aflat / dt + 3.0 * delta * t ** 2)
        upd = factor.solve(S, diag, kappa_old, -F)
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
