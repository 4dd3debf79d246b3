"""Incompressible flow solver with temperature-dependent transport
coefficients and a verification harness for its structural inequalities."""

from .config import (Laws, RunConfig, parse_config, parse_config_text,
                     serialize_config)
from .coupler import continuation_sweep, fixed_point_step, run_simulation
from .errors import (CapabilityError, ConfigError, DegenerateInputError,
                     ResolutionError, RunError, SchemeError, SolverError,
                     StepError)
from .grid import Grid, ScalarField, VectorField
from .state import FluidState, Trajectory

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "ConfigError", "DegenerateInputError", "FluidState",
    "Grid", "Laws", "ResolutionError", "RunConfig", "RunError", "ScalarField",
    "SchemeError", "SolverError", "StepError", "Trajectory", "VectorField",
    "continuation_sweep", "fixed_point_step", "parse_config",
    "parse_config_text", "run_simulation", "serialize_config", "__version__",
]
