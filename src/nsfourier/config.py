"""Run configuration: plain ``key = value`` text with section headers.

The parser validates every invariant at parse time and reports all
problems at once, each with its line number.  ``serialize_config``
round-trips: ``parse_config_text(serialize_config(c)) == c``;
``parse_config`` reads the same format from a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .basis import resolution_problem
from .coefficients import ConductivityLaw, ViscosityLaw
from .errors import ConfigError


@dataclass(frozen=True)
class Laws:
    viscosity: ViscosityLaw
    conductivity: ConductivityLaw


@dataclass
class RunConfig:
    # grid
    nx: int = 64
    ny: int = 64
    Lx: float = 1.0
    Ly: float = 1.0
    # basis
    n_modes: int = 16
    # time
    t_final: float = 0.5
    dt: float = 0.01
    output_every: int = 10
    # regularization
    eps: float = 1e-3
    delta: float = 1e-2
    # picard
    picard_tol: float = 1e-8
    picard_max: int = 30
    # viscosity law
    visc_slope: float = 1.0
    visc_theta_bar: float = 1.0
    # conductivity law
    kappa_lo: float = 1.0
    # initial data
    rho_base: float = 1.0
    rho_amp: float = 0.05
    rho_bar: float = 2.0
    theta_base: float = 0.2
    theta_amp: float = 1e-4
    theta_floor: float = 0.1
    m0_mode: int = 1
    m0_amplitude: float = 1e-4

    def validate(self) -> list[str]:
        # every comparison below is False for NaN, and an infinite length
        # or time passes them, so each float is first checked to be finite
        problems = [f"{name} must be finite" for name, attr in _FLOAT_KEYS
                    if not math.isfinite(getattr(self, attr))]
        if self.nx < 4 or self.ny < 4:
            problems.append("grid.nx and grid.ny must be at least 4")
        if self.Lx <= 0 or self.Ly <= 0:
            problems.append("grid.Lx and grid.Ly must be positive")
        if self.n_modes < 1:
            problems.append("basis.n_modes must be at least 1")
        elif problem := resolution_problem(self.nx, self.ny, self.n_modes):
            problems.append(f"basis.n_modes: {problem}")
        if self.t_final < 0:
            problems.append("time.t_final must be non-negative")
        if self.dt <= 0:
            problems.append("time.dt must be positive")
        if self.output_every < 1:
            problems.append("time.output_every must be at least 1")
        if self.eps < 0:
            problems.append("regularization.eps must be non-negative")
        if not (0.0 < self.delta < 1.0):
            problems.append("regularization.delta must lie in the open interval (0, 1)")
        if self.picard_tol <= 0:
            problems.append("picard.tol must be positive")
        if self.picard_max < 1:
            problems.append("picard.max_iter must be at least 1")
        if self.visc_slope <= 0 or self.visc_theta_bar <= 0:
            problems.append("viscosity.slope and viscosity.theta_bar must be positive")
        if self.kappa_lo <= 0:
            problems.append("conductivity.kappa_lo must be positive")
        if self.theta_floor <= 0:
            problems.append("initial.theta_floor must be positive (theta_0 >= theta_floor > 0)")
        if self.theta_base - abs(self.theta_amp) < self.theta_floor:
            problems.append("initial temperature dips below theta_floor")
        if self.rho_bar < self.delta:
            problems.append("initial.rho_bar must be at least delta")
        if self.rho_base - abs(self.rho_amp) < self.delta:
            problems.append("initial density dips below delta")
        if self.rho_base + abs(self.rho_amp) > self.rho_bar:
            problems.append("initial density exceeds rho_bar")
        if self.m0_mode < 1:
            problems.append("initial.m0_mode must be at least 1")
        if self.m0_mode > self.n_modes:
            problems.append("initial.m0_mode exceeds basis.n_modes")
        return problems

    def laws(self) -> Laws:
        return Laws(
            viscosity=ViscosityLaw(slope=self.visc_slope, theta_bar=self.visc_theta_bar),
            conductivity=ConductivityLaw(kappa_lo=self.kappa_lo, kappa_hi=self.kappa_lo),
        )


# section -> key -> (attribute, type)
_SCHEMA = {
    "grid": {"nx": ("nx", int), "ny": ("ny", int),
             "Lx": ("Lx", float), "Ly": ("Ly", float)},
    "basis": {"n_modes": ("n_modes", int)},
    "time": {"t_final": ("t_final", float), "dt": ("dt", float),
             "output_every": ("output_every", int)},
    "regularization": {"eps": ("eps", float), "delta": ("delta", float)},
    "picard": {"tol": ("picard_tol", float), "max_iter": ("picard_max", int)},
    "viscosity": {"slope": ("visc_slope", float), "theta_bar": ("visc_theta_bar", float)},
    "conductivity": {"kappa_lo": ("kappa_lo", float)},
    "initial": {"rho_base": ("rho_base", float), "rho_amp": ("rho_amp", float),
                "rho_bar": ("rho_bar", float), "theta_base": ("theta_base", float),
                "theta_amp": ("theta_amp", float), "theta_floor": ("theta_floor", float),
                "m0_mode": ("m0_mode", int), "m0_amplitude": ("m0_amplitude", float)},
}
# (section.key, attribute) of every float field
_FLOAT_KEYS = [(f"{section}.{key}", attr) for section, keys in _SCHEMA.items()
               for key, (attr, typ) in keys.items() if typ is float]


def read_text(path) -> str:
    """The file's text; an OS error becomes a ConfigError carrying the OS
    message."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError([str(exc)]) from exc


def parse_config(path) -> RunConfig:
    """Parse the config file at `path` (a str or a Path); an unreadable
    file is a ConfigError carrying the OS message."""
    return parse_config_text(read_text(path))


def parse_config_text(text: str) -> RunConfig:
    """Parse config text."""
    problems: list[str] = []
    values: dict[str, object] = {}
    seen: set[str] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if section is None:
            problems.append(f"line {lineno}: key {key!r} outside any known section")
            continue
        entry = _SCHEMA[section].get(key)
        if entry is None:
            problems.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        attr, typ = entry
        if attr in seen:
            problems.append(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            continue
        seen.add(attr)
        try:
            values[attr] = typ(val)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse {val!r} as {typ.__name__} for {key!r}")
    if problems:
        raise ConfigError(problems)
    cfg = RunConfig(**values)
    invariant_problems = cfg.validate()
    if invariant_problems:
        raise ConfigError(invariant_problems)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    fields = asdict(cfg)
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            lines.append(f"{key} = {fields[attr]!r}")
        lines.append("")
    return "\n".join(lines)
