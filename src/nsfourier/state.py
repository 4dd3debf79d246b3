"""Solution state containers shared by the coupler and the diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import StreamBasis, reconstruct_velocity
from .coefficients import eval_viscosity
from .config import Laws
from .grid import Grid, ScalarField, VectorField


@dataclass
class FluidState:
    rho: ScalarField
    coeffs: np.ndarray
    theta: ScalarField
    t: float

    def velocity(self, basis: StreamBasis) -> VectorField:
        return reconstruct_velocity(basis, self.coeffs)

    def viscosity(self, laws: Laws) -> ScalarField:
        """mu(theta) at the nodes."""
        return ScalarField(self.theta.grid, np.asarray(
            eval_viscosity(laws.viscosity, self.theta.values)))


@dataclass
class Trajectory:
    grid: Grid
    basis: StreamBasis
    laws: Laws
    eps: float
    delta: float
    states: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def require_params(self, **given) -> None:
        """Raise ValueError for a given delta, eps or laws other than this
        trajectory's own: a verifier run with it would certify another
        problem."""
        for name, value in given.items():
            if value != getattr(self, name):
                raise ValueError(f"{name} = {value!r} differs from the "
                                 f"trajectory's {getattr(self, name)!r}")

    def append(self, state: FluidState) -> None:
        if self.states and state.t <= self.states[-1].t:
            raise ValueError("time stamps must be strictly increasing")
        self.states.append(state)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def initial(self) -> FluidState:
        return self.states[0]

    @property
    def final(self) -> FluidState:
        return self.states[-1]

    def min_theta(self) -> float:
        return min(s.theta.min() for s in self.states)
