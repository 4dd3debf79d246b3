"""Semi-implicit step of the Galerkin-projected momentum equation.

The viscous term is implicit with the lagged viscosity field, advection
enters as an exactly skew-symmetric matrix built from the previous
velocity, and the mass matrix is averaged between the old and new
density so the discrete kinetic energy can never increase:

    [ (M_new + M_old)/2 + dt (A + B) ] c_new = M_old c_old.

Testing with c_new and using the parallelogram identity for M_old gives

    E_new - E_old = -dt c_new^T A c_new - (1/2) dc^T M_old dc <= 0

with no residual density-change term, which is the discrete counterpart
of the kinetic energy identity of the continuous construction.

Within one time step only M_new depends on the Picard iterate (through
the advected density).  `momentum_system` therefore assembles A and B
and forms M_old/2 + dt (A + B) and M_old c_old once per step, and each
sweep's `step_momentum` assembles M_new and does the dense solve.  No
mass matrix is assembled per step: M_old is M(rho_old), the M_new that
the previous step's last sweep built, and the caller passes it in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (StreamBasis, assemble_advection_matrix, assemble_viscous,
                    assemble_weighted_gram, reconstruct_velocity)
from .errors import SchemeError, StepError
from .grid import ScalarField, VectorField

ENERGY_TOL = 1e-12


def kinetic_energy(coeffs: np.ndarray, mass: np.ndarray) -> float:
    return 0.5 * float(coeffs @ mass @ coeffs)


@dataclass(frozen=True)
class MomentumSystem:
    """The part of one step's momentum system that the new density does
    not touch."""
    basis: StreamBasis
    fixed: np.ndarray     # M_old/2 + dt (A + B)
    rhs: np.ndarray       # M_old c_old
    e_old: float          # kinetic energy of c_old under M_old


def momentum_system(coeffs_old: np.ndarray, rho_old: ScalarField,
                    M_old: np.ndarray, mu: ScalarField, basis: StreamBasis,
                    dt: float, eps: float, u_old: VectorField | None = None
                    ) -> MomentumSystem:
    """Assemble the per-step part of the system for viscosity field mu.

    M_old is the mass matrix of rho_old and is only read.  u_old is the
    velocity of coeffs_old; it is reconstructed when not given."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rho_old.min() <= 0:
        raise ValueError("density must be bounded away from zero")
    if eps < 0 or (eps == 0.0 and mu.min() <= 0.0):
        raise ValueError("need eps > 0 or a strictly positive viscosity field")
    if u_old is None:
        u_old = reconstruct_velocity(basis, coeffs_old)

    A = assemble_viscous(basis, mu, eps)
    B = assemble_advection_matrix(basis, rho_old, u_old)
    return MomentumSystem(basis=basis, fixed=0.5 * M_old + dt * (A + B),
                          rhs=M_old @ coeffs_old,
                          e_old=kinetic_energy(coeffs_old, M_old))


def step_momentum(system: MomentumSystem, rho_new: ScalarField
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the step for the advected density rho_new; returns c_new and
    the mass matrix M_new of rho_new."""
    if rho_new.min() <= 0:
        raise ValueError("density must be bounded away from zero")
    M_new = assemble_weighted_gram(system.basis, rho_new)
    try:
        coeffs_new = np.linalg.solve(system.fixed + 0.5 * M_new, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise StepError(f"momentum system is singular: {exc}") from exc

    e_new = kinetic_energy(coeffs_new, M_new)
    if e_new > system.e_old * (1.0 + ENERGY_TOL) + 1e-300:
        raise SchemeError(
            f"kinetic energy increased: {system.e_old!r} -> {e_new!r}")
    return coeffs_new, M_new
