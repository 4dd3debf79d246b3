"""Per-step and per-run verification of the analytical inequalities.

Everything here is read-only over a computed trajectory: the total
energy budget, the renormalized temperature inequality against a
separable test-function family, and the a priori bound monitors.  The
energy check and the monitors read the run's records; the renormalized
inequality reads each state's dissipation field (`FluidState.diss`), the
source the scheme itself fed the temperature step, and builds each
state's u and v without gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .basis import velocity_values
from .coefficients import (RenormFunction, check_h_admissible,
                           eval_conductivity, eval_renorm)
from .grid import grad_values, h1_sq_values, integrate_values, norm_H1
from .state import Trajectory

ENERGY_SLACK_FACTOR = 1e-10
# a priori monitor: the density threshold omega of the dense set
# {rho >= omega} in the sink bound
DENSE_SET_OMEGA = 0.1


@dataclass
class DiagnosticsRecord:
    """One row of diagnostics.csv; the field order is the column order."""
    time: float
    kinetic_energy: float
    thermal_energy: float
    cum_dissipation: float
    cum_eps_dissipation: float
    cum_sink: float
    rho_min: float
    rho_max: float
    theta_min: float
    theta_max: float
    u_H1: float
    theta_H1: float
    theta_L3: float
    energy_slack: float

    def row(self) -> str:
        return ",".join(repr(getattr(self, c)) for c in CSV_COLUMNS)


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def diagnostics_csv_text(records) -> str:
    """Fixed column order, one row per step; byte-deterministic."""
    lines = [",".join(CSV_COLUMNS)] + [rec.row() for rec in records]
    return "\n".join(lines) + "\n"


def write_diagnostics_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(diagnostics_csv_text(records))


def energy_report(traj: Trajectory, state, u) -> dict:
    """Pointwise energies and norms of one state of the trajectory, whose
    velocity is u."""
    grid = traj.grid
    speed2 = u.speed_sq()
    return {
        "kinetic_energy": 0.5 * integrate_values(grid, state.rho.values * speed2),
        "thermal_energy": integrate_values(
            grid, (traj.delta + state.rho.values) * state.theta.values),
        "rho_min": state.rho.min(),
        "rho_max": state.rho.max(),
        "theta_min": state.theta.min(),
        "theta_max": state.theta.max(),
        "u_H1": float(np.sqrt(max(integrate_values(grid, speed2 + u.grad_sq()), 0.0))),
        "theta_H1": norm_H1(state.theta),
        "theta_L3": integrate_values(grid, state.theta.values ** 3) ** (1.0 / 3.0),
    }


def step_sinks(traj: Trajectory, m: int, u1, diss) -> dict:
    """Dissipation/sink integrals of step m -> m+1, matching the scheme's
    own quadrature: u1 is the velocity of state m+1 and diss the
    dissipation field 2 mu(theta_m)|D(u1)|^2 (viscosity lagged at
    theta_m, fields at t_{m+1})."""
    grid = traj.grid
    old, new = traj.states[m], traj.states[m + 1]
    dt = new.t - old.t
    diss_integral = integrate_values(grid, diss.values)
    return {
        "dissipation": dt * diss_integral,
        "eps_dissipation": dt * traj.eps * integrate_values(grid, u1.grad_sq()),
        "sink": dt * traj.delta * integrate_values(grid, new.theta.values ** 3),
        "delta_dissipation": dt * traj.delta * diss_integral,
    }


def energy_slack(total_new: float, total_old: float, sinks: dict) -> float:
    """E_new + dt [eps |grad u|^2 + delta theta^3 + delta S:grad u] - E_old
    for the `step_sinks` of the step; the scheme keeps it <= 0 up to
    round-off."""
    return (total_new + sinks["eps_dissipation"] + sinks["sink"]
            + sinks["delta_dissipation"] - total_old)


def _records(traj: Trajectory) -> list:
    """The run's `DiagnosticsRecord`s, the one source of the per-state
    energies and norms the verifiers read; raises ValueError unless there
    is exactly one record per stored state, at that state's time."""
    if not traj.states:
        raise ValueError("empty trajectory")
    records = traj.records
    if len(records) != len(traj.states) or any(
            rec.time != s.t for rec, s in zip(records, traj.states)):
        raise ValueError(
            f"{len(records)} records do not match the trajectory's "
            f"{len(traj.states)} states one to one in time")
    return records


def check_energy_inequality(traj: Trajectory, delta: float, eps: float) -> dict:
    """Total energy inequality per step:

        E(t_{m+1}) + dt [ eps |grad u|^2 + delta theta^3 + delta S:grad u ]
            <= E(t_m) + threshold.

    The left side minus E(t_m) is each step's record's `energy_slack`.
    delta and eps must be the trajectory's own; the check reads those.
    """
    records = _records(traj)
    traj.require_params(delta=delta, eps=eps)
    worst = -np.inf
    worst_step = -1
    for m, rec in enumerate(records[1:]):
        if rec.energy_slack > worst:
            worst = rec.energy_slack
            worst_step = m
    threshold = ENERGY_SLACK_FACTOR * (records[0].kinetic_energy
                                       + records[0].thermal_energy)
    return {
        "max_violation": float(worst),
        "worst_step": worst_step,
        "threshold": threshold,
        "passes": bool(worst <= threshold),
    }


class SeparableTestFunction:
    """phi(t, x) = psi(t) chi(x) with psi(T) = 0, phi >= 0 and flat walls.

    chi = 1 + amp cos(kx pi x/Lx) cos(ky pi y/Ly) and its derivatives are
    products of 1-D profiles along x and y.  Only the profiles are kept;
    chi, grad chi and lap chi are formed on the grid each time they are
    read, and `renorm_report` reads each once per call, so a test
    function holds no field between reports."""

    def __init__(self, grid, T, time_power=1, amp=0.5, kx=1, ky=1):
        if not (0 <= amp < 1):
            raise ValueError("amp must lie in [0, 1) to keep phi non-negative")
        self.grid = grid
        self.T = T
        self.time_power = time_power
        self.amp = amp
        self.kx = kx
        self.ky = ky
        # x profiles as columns and y profiles as rows, so each product
        # broadcasts to the nodal grid
        ax = kx * np.pi * grid.x / grid.Lx
        ay = ky * np.pi * grid.y / grid.Ly
        self._cx, self._sx = np.cos(ax)[:, None], np.sin(ax)[:, None]
        self._cy, self._sy = np.cos(ay)[None, :], np.sin(ay)[None, :]

    @property
    def chi(self) -> np.ndarray:
        return 1.0 + self.amp * self._cx * self._cy

    @property
    def grad_chi(self) -> tuple[np.ndarray, np.ndarray]:
        grid, amp, kx, ky = self.grid, self.amp, self.kx, self.ky
        return (-amp * (kx * np.pi / grid.Lx) * self._sx * self._cy,
                -amp * (ky * np.pi / grid.Ly) * self._cx * self._sy)

    @property
    def lap_chi(self) -> np.ndarray:
        grid, amp, kx, ky = self.grid, self.amp, self.kx, self.ky
        return -amp * ((kx * np.pi / grid.Lx) ** 2
                       + (ky * np.pi / grid.Ly) ** 2) * self._cx * self._cy

    def psi(self, t: float) -> float:
        if self.T == 0:
            return 0.0
        return max(1.0 - t / self.T, 0.0) ** self.time_power


def renorm_report(traj: Trajectory, h: RenormFunction, phi, delta: float,
                  laws) -> dict:
    """Signed residual LHS - RHS of the renormalized temperature
    inequality for test function phi; certified when residual <= tol with
    tol = 1e-6 * (scale of the largest term).

    Time quadrature is aligned with the backward-Euler stepping (flux,
    source and sink terms at the right endpoint), so the residual
    measures genuine inequality defect rather than quadrature mismatch.
    The source term reads each state's `diss`, so every state after the
    first must carry it; a state without it raises ValueError.  delta and
    laws must be the trajectory's own; the report reads those.
    """
    traj.require_params(delta=delta, laws=laws)
    for m, s in enumerate(traj.states[1:], start=1):
        if s.diss is None:
            raise ValueError(f"state {m} (t = {s.t!r}) has no dissipation "
                             f"field")
    if h.dh is None:
        raise ValueError("renorm function needs derivative data")
    theta_max = max(s.theta.max() for s in traj.states)
    adm = check_h_admissible(h, max(theta_max, 1.0), 200)
    if not adm["passes"]:
        raise ValueError("renorm function fails the admissibility conditions")
    T = traj.states[-1].t
    if abs(phi.psi(T)) > 1e-14:
        raise ValueError("test function must vanish at the final time")

    grid = traj.grid
    law = traj.laws.conductivity
    # phi = psi(t) chi(x) enters every term linearly: the trapezoid weights
    # times chi, grad chi and lap chi are formed once, and each term of
    # each step is one dot product with them, scaled by psi
    w = grid.quad_weights()
    w_chi, w_chi_x, w_chi_y, w_lap_chi = (
        (w * f).ravel() for f in (phi.chi, *phi.grad_chi, phi.lap_chi))

    def weighted(w_f, values):
        return float(w_f @ values.ravel())

    psi = [phi.psi(s.t) for s in traj.states]
    init = traj.states[0]
    # int (delta + rho) H chi of the state before the step, the time term's
    # integrand without psi
    mass_old = weighted(w_chi, (traj.delta + init.rho.values)
                        * eval_renorm(h, law, init.theta.values).H)
    r3 = -psi[0] * mass_old
    t1 = t2 = t3 = t4 = r1 = r2 = 0.0
    for m in range(len(traj.states) - 1):
        old, new = traj.states[m], traj.states[m + 1]
        theta = new.theta.values
        t1 += (psi[m + 1] - psi[m]) * mass_old
        dt_psi = (new.t - old.t) * psi[m + 1]
        hv = eval_renorm(h, law, theta)
        # each field is dropped after its last term, so no state's fields
        # are alive together with the next state's
        r1 += dt_psi * (traj.delta - 1.0) * weighted(w_chi,
                                                     new.diss.values * hv.h)
        u, v = velocity_values(traj.basis, new.coeffs)
        rho_H = new.rho.values * hv.H
        t2 += dt_psi * (weighted(w_chi_x, rho_H * u)
                       + weighted(w_chi_y, rho_H * v))
        del u, v, rho_H
        t3 += dt_psi * weighted(w_lap_chi, hv.K_h)
        t4 -= dt_psi * traj.delta * weighted(w_chi, theta * theta * theta * hv.h)
        tgx, tgy = grad_values(grid, theta)
        grad_sq = tgx ** 2 + tgy ** 2
        del tgx, tgy
        r2 += dt_psi * weighted(w_chi, hv.dh * eval_conductivity(law, theta)
                                * grad_sq)
        del grad_sq
        mass_old = weighted(w_chi, (traj.delta + new.rho.values) * hv.H)
        del hv

    lhs = t1 + t2 + t3 + t4
    rhs = r1 + r2 + r3
    terms = {"time": t1, "advection": t2, "diffusion": t3, "sink": t4,
             "source": r1, "gradient": r2, "initial": r3}
    scale = max(abs(v) for v in terms.values())
    residual = lhs - rhs
    tol = 1e-6 * scale
    return {"residual": residual, "scale": scale, "tol": tol,
            "passes": bool(residual <= tol), "terms": terms}


def apriori_monitor(traj: Trajectory) -> dict:
    """Maxima over the run of the a priori bound quantities.  The velocity
    and energy quantities come from the run's records; only the theta/rho
    integrals the records lack are computed here.  The theta^((3-l)/2) H1
    bounds are taken at l = 1, where the power is theta itself and the
    records' theta_H1 gives it, and at l = 0.5."""
    records = _records(traj)
    grid = traj.grid
    times = traj.times
    pow_sq, sink_dense = [], []
    rho_theta_l1 = 0.0
    for s in traj.states:
        rho_theta_l1 = max(rho_theta_l1,
                           integrate_values(grid, s.rho.values * s.theta.values))
        # theta^((3-l)/2) at l = 0.5
        pow_sq.append(h1_sq_values(grid, s.theta.values ** 1.25))
        sink_dense.append(integrate_values(
            grid, s.theta.values ** 3 * (s.rho.values >= DENSE_SET_OMEGA)))

    def time_l2(series):
        return float(np.sqrt(max(np.trapezoid(series, times), 0.0)))

    out = {
        "rho_Linf": max(rec.rho_max for rec in records),
        "u_L2H1": time_l2([rec.u_H1 ** 2 for rec in records]),
        "theta_L2H1": time_l2([rec.theta_H1 ** 2 for rec in records]),
        "theta_L3_spacetime": float(np.trapezoid(
            [rec.theta_L3 ** 3 for rec in records], times)) ** (1.0 / 3.0),
        # kinetic_energy is half the integral of rho |u|^2, so doubling
        # it is exact
        "sqrt_rho_u_LinfL2": float(np.sqrt(2.0 * max(
            0.0, *(rec.kinetic_energy for rec in records)))),
        "rho_theta_LinfL1": rho_theta_l1,
        "sink_on_dense_set": float(np.trapezoid(sink_dense, times)),
    }
    out["theta_pow_L2H1_l=1"] = out["theta_L2H1"]
    out["theta_pow_L2H1_l=0.5"] = time_l2(pow_sq)
    return out
