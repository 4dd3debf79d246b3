"""Backward-Euler step of the regularized temperature equation

    d/dt((delta+rho) theta) + div(rho u theta) - Lap K(theta)
        + delta theta^3 = (1-delta) S : grad u

with homogeneous Neumann walls.  Advection moves the conserved quantity
(delta+rho) theta semi-Lagrangially, diffusion is a finite-volume Neumann
operator (lagged conductivity by default, Newton on the Kirchhoff
variable optionally), the cubic sink is implicit, the dissipation source
explicit.  A scale-down limiter keeps the advected thermal content from
exceeding its pre-step integral, so the discrete total energy budget can
never gain from interpolation error.

With the lagged conductivity the diffusion operator S is fixed for the
whole step, so successive Newton Jacobians diag(W (a/dt + 3 delta t^2)) - S
differ only on the diagonal.  The step's first Jacobian is factored once
by sparse LU and preconditions conjugate gradients for every Newton solve
of the step; each solve then takes a few iterations and is still checked
to the same residual tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import ConductivityLaw, eval_conductivity, kirchhoff_K
from .errors import SchemeError, StepError
from .grid import Grid, ScalarField, VectorField, grad_values
from .transport import advect_values

NEGATIVITY_GUARD = -1e-12


@dataclass
class ThermalStepParams:
    dt: float
    delta: float
    linearization: str = "lagged-coefficient"
    newton_tol: float = 1e-10
    newton_max: int = 50

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        # delta = 0 is admitted so the stepper can run the unregularized
        # equation in limit studies
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if self.linearization not in ("lagged-coefficient", "kirchhoff-newton"):
            raise ValueError(f"unknown linearization {self.linearization!r}")


def dissipation_field(mu_field: ScalarField, u: VectorField) -> ScalarField:
    """S : grad u = 2 mu |D(u)|^2 with D(u) = sym(grad u); non-negative."""
    if np.any(mu_field.values < 0):
        raise ValueError("viscosity field must be non-negative")
    if u.has_gradients():
        dux, duy = u.du_dx, u.du_dy
        dvx, dvy = u.dv_dx, u.dv_dy
    else:
        dux, duy = grad_values(u.grid, u.u)
        dvx, dvy = grad_values(u.grid, u.v)
    d12 = 0.5 * (duy + dvx)
    dsq = dux ** 2 + dvy ** 2 + 2.0 * d12 ** 2
    return ScalarField(u.grid, 2.0 * mu_field.values * dsq)


def neumann_divgrad(grid: Grid, kappa: np.ndarray) -> sp.csr_matrix:
    """Integrated zero-flux diffusion operator S with (S t)_n = sum of face
    fluxes of kappa grad t into the control volume of node n.

    S is symmetric negative semidefinite with S 1 = 0, so quadrature-weighted
    conservation holds to round-off.  div(kappa grad t) ~ S t / W.
    """
    nxp, nyp = grid.shape
    wx, wy = grid.axis_weights()
    ids = np.arange(nxp * nyp).reshape(nxp, nyp)

    rows, cols, vals = [], [], []

    def add_edges(a, b, g):
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([g, g, -g, -g])

    # x-direction faces between (i, j) and (i+1, j)
    gx = 0.5 * (kappa[:-1, :] + kappa[1:, :]) * wy[None, :] / grid.hx
    add_edges(ids[:-1, :].ravel(), ids[1:, :].ravel(), gx.ravel())
    # y-direction faces between (i, j) and (i, j+1)
    gy = 0.5 * (kappa[:, :-1] + kappa[:, 1:]) * wx[:, None] / grid.hy
    add_edges(ids[:, :-1].ravel(), ids[:, 1:].ravel(), gy.ravel())

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    n = nxp * nyp
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _factor_preconditioner(J: sp.csr_matrix) -> spla.LinearOperator:
    """Sparse LU of the SPD Jacobian J, as a preconditioner for CG.

    The minimum-degree ordering is taken on the symmetric pattern and the
    pivots stay on the diagonal (J is SPD, so no row interchange is
    needed).  Narrow panels and no relaxed supernodes keep the L and U
    factors small."""
    lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
                   panel_size=4, relax=1)
    return spla.LinearOperator(J.shape, matvec=lu.solve, dtype=float)


def _solve_spd(J: sp.csr_matrix, rhs: np.ndarray,
               precond: spla.LinearOperator) -> np.ndarray:
    """Solve J x = rhs by CG to a relative residual of 1e-12.

    `precond` applies the inverse of a nearby Jacobian, the step's first
    one, so CG converges in a few iterations; the residual check is on J
    itself, so the solution does not inherit the factor's round-off."""
    sol, info = spla.cg(J, rhs, rtol=1e-12, atol=0.0, maxiter=2000, M=precond)
    if info != 0:
        raise StepError(f"conjugate gradient failed to converge (info={info})")
    return sol


def step_temperature(theta: ScalarField, rho_new: ScalarField,
                     rho_old: ScalarField, u: VectorField,
                     diss: ScalarField, params: ThermalStepParams,
                     laws) -> ScalarField:
    """One backward-Euler step; returns the new non-negative temperature.

    `laws` must expose `conductivity: ConductivityLaw`.
    """
    grid = theta.grid
    if theta.min() < 0:
        raise ValueError("theta must be non-negative")
    if rho_new.min() < 0 or rho_old.min() < 0:
        raise ValueError("density fields must be non-negative")
    if diss.min() < 0:
        raise ValueError("dissipation source must be non-negative")
    law: ConductivityLaw = laws.conductivity
    dt = params.dt
    delta = params.delta

    a_old = delta + rho_old.values
    a_new = delta + rho_new.values
    w_old = a_old * theta.values
    W = grid.quad_weights()
    if u.max_speed() > 0.0:
        w_star = advect_values(grid, w_old, u, dt)
        total_old = float(np.sum(W * w_old))
        total_star = float(np.sum(W * w_star))
        if total_star > total_old > 0.0:
            w_star *= total_old / total_star
    else:
        w_star = w_old.copy()
    theta_adv = w_star / a_new

    wflat = W.ravel()
    aflat = a_new.ravel()
    src = ((1.0 - delta) * diss.values).ravel()
    t_adv = theta_adv.ravel()

    lagged = params.linearization == "lagged-coefficient"
    if lagged:
        kappa_old = np.asarray(eval_conductivity(law, theta.values))
        S = neumann_divgrad(grid, kappa_old)
    else:
        S1 = neumann_divgrad(grid, np.ones(grid.shape))

    def residual(t):
        out = wflat * (aflat * (t - t_adv) / dt + delta * t ** 3 - src)
        if lagged:
            out -= S @ t
        else:
            out -= S1 @ np.asarray(kirchhoff_K(law, t.reshape(grid.shape))).ravel()
        return out

    t = t_adv.copy()
    scale = np.max(wflat * aflat / dt) * max(1.0, float(np.max(t_adv)))
    tol = params.newton_tol * scale
    # The residual cannot drop below the round-off of S t, about
    # max|S| |t| 2^-52, which reaches several 1e-12 scale once kappa(theta)
    # is large (theta ~ 20).  Newton therefore also stops, inside the
    # tolerance, as soon as the residual has stopped contracting.
    converged = False
    f_prev = np.inf
    precond = None
    for _ in range(params.newton_max):
        F = residual(t)
        f_max = float(np.max(np.abs(F)))
        if f_max <= 1e-2 * tol or (f_max <= tol and f_max > 0.5 * f_prev):
            converged = True
            break
        f_prev = f_max
        diag = wflat * (aflat / dt + 3.0 * delta * t ** 2)
        if lagged:
            J = (sp.diags(diag) - S).tocsr()
            if precond is None:
                precond = _factor_preconditioner(J)
            upd = _solve_spd(J, -F, precond)
        else:
            kap = np.asarray(eval_conductivity(law, t.reshape(grid.shape))).ravel()
            J = sp.diags(diag) - S1 @ sp.diags(kap)
            upd = spla.spsolve(J.tocsc(), -F)
        t = t + upd
        if np.max(np.abs(upd)) <= 1e-14 * max(1.0, float(np.max(np.abs(t)))):
            converged = True
            break
    if not converged:
        F = residual(t)
        if np.max(np.abs(F)) > tol:
            raise StepError("temperature Newton iteration did not converge")

    t = t.reshape(grid.shape)
    low = float(t.min())
    if low < NEGATIVITY_GUARD:
        raise SchemeError(f"temperature undershoot {low} below the {NEGATIVITY_GUARD} guard")
    return ScalarField(grid, np.maximum(t, 0.0))
