"""Exception hierarchy for the solver."""


class SolverError(Exception):
    """Base class for all solver-specific failures."""


class ConfigError(SolverError):
    """Configuration file is malformed or violates an invariant; carries
    the list of problems found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CapabilityError(SolverError):
    """An operation was requested that the object cannot support."""


class ResolutionError(SolverError):
    """Requested modes exceed what the grid can resolve."""


class DegenerateInputError(SolverError):
    """Input is degenerate for the requested diagnostic."""


class StepError(SolverError):
    """A single time step failed; the caller may retry with a smaller dt."""


class SchemeError(SolverError):
    """The discrete scheme violated one of its structural guarantees."""


class RunError(SolverError):
    """A simulation run failed after exhausting retries."""

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory
