"""Fixed-point coupling of the transport, momentum and temperature
sub-solvers, the outer time loop, and the continuation sweep driver.

Each time step runs a Picard iteration: the density is advected with the
current velocity iterate, the momentum system is re-solved with that
density, and the loop repeats until the Galerkin coefficients stop
moving.  Each sweep builds one interpolation stencil at its
characteristic feet; the last sweep's stencil, which carried rho_new,
also carries the temperature step's (delta+rho) theta, so one velocity
moves both.  Only the new-density mass matrix changes between sweeps,
so the rest of the momentum system, and mu(theta_old) with it, is built
once per step.  The temperature step closes the step once, after
convergence, because the momentum step sees only the previous step's
temperature through the lagged viscosity; re-running it inside the loop
would change nothing.  On step failure the time loop halves dt and
retries, up to five halvings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import StreamBasis, build_basis, reconstruct_velocity
from .config import RunConfig
from .diagnostics import (ENERGY_SLACK_FACTOR, DiagnosticsRecord,
                          apriori_monitor, energy_report, energy_slack,
                          step_sinks)
from .errors import RunError, SolverError, StepError
from .grid import Grid, ScalarField, VectorField, integrate_values
from .momentum import momentum_system, step_momentum
from .state import FluidState, Trajectory
from .thermal import dissipation_field, step_temperature
from .transport import advect_density

MAX_DT_HALVINGS = 5
# time samples of the sweep's space-time differences
DIFFERENCE_SAMPLES = 33


def build_grid(config: RunConfig) -> Grid:
    return Grid(nx=config.nx, ny=config.ny, Lx=config.Lx, Ly=config.Ly)


def initial_state(config: RunConfig, grid: Grid, basis: StreamBasis) -> FluidState:
    """Initial fields: single-cosine bumps for density and temperature,
    one stream-function mode for the momentum."""
    X, Y = grid.nodes()
    bump = np.cos(np.pi * X / grid.Lx) * np.cos(np.pi * Y / grid.Ly)
    rho0 = ScalarField(grid, config.rho_base + config.rho_amp * bump)
    theta0 = ScalarField(grid, config.theta_base + config.theta_amp * bump)
    if rho0.min() < config.delta or rho0.max() > config.rho_bar:
        raise ValueError("initial density violates its stated bounds")
    if theta0.min() < config.theta_floor:
        raise ValueError("initial temperature dips below theta_floor")
    coeffs = np.zeros(basis.n_modes)
    coeffs[config.m0_mode - 1] = config.m0_amplitude
    return FluidState(rho=rho0, coeffs=coeffs, theta=theta0, t=0.0)


@dataclass(frozen=True)
class Step:
    """One converged time step: the new state, its velocity, the
    dissipation field 2 mu(theta_old)|D(u_new)|^2 the temperature step
    was fed (None for the initial state), and the relative coefficient
    change of each Picard sweep."""
    state: FluidState
    u_new: VectorField
    diss: ScalarField | None
    sweeps: tuple[float, ...]


def fixed_point_step(prev: Step, config: RunConfig, basis: StreamBasis,
                     dt: float) -> Step:
    """One converged time step of size dt from `prev.state`, whose
    velocity is `prev.u_new`."""
    state = prev.state
    laws = config.laws()
    mu_old = state.viscosity(laws)

    # coeffs_k is state.coeffs on the first sweep, so its velocity is the
    # transport velocity u_old of the advection matrix
    u_k = prev.u_new
    system = momentum_system(state.coeffs, state.rho, mu_old, basis, dt,
                             config.eps, u_k)
    coeffs_k = state.coeffs
    sweeps = []
    for sweep in range(config.picard_max):
        if sweep:
            u_k = reconstruct_velocity(basis, coeffs_k)
        rho_new, stencil = advect_density(state.rho, u_k, dt)
        coeffs_new = step_momentum(system, rho_new)
        scale = max(float(np.linalg.norm(coeffs_new)),
                    float(np.linalg.norm(coeffs_k)), 1e-300)
        sweeps.append(float(np.linalg.norm(coeffs_new - coeffs_k)) / scale)
        coeffs_k = coeffs_new
        if sweeps[-1] <= config.picard_tol:
            break
    else:
        raise StepError(
            f"fixed-point iteration did not converge in {config.picard_max} "
            f"sweeps (last change {sweeps[-1]:.3g})")

    u_new = reconstruct_velocity(basis, coeffs_k)
    diss = dissipation_field(mu_old, u_new)
    # (delta + rho) theta moves through the stencil that carried rho_new
    theta_new = step_temperature(state.theta, rho_new, state.rho, stencil,
                                 diss, dt, config.delta, laws)
    new = FluidState(rho=rho_new, coeffs=coeffs_k, theta=theta_new,
                     t=state.t + dt)
    return Step(state=new, u_new=u_new, diss=diss, sweeps=tuple(sweeps))


def _advance(prev: Step, config: RunConfig, basis: StreamBasis,
             dt: float, depth: int = 0) -> list:
    """Advance by dt, halving on failure; returns the substeps' `Step`s."""
    try:
        return [fixed_point_step(prev, config, basis, dt)]
    except StepError:
        if depth >= MAX_DT_HALVINGS:
            raise
        half = 0.5 * dt
        first = _advance(prev, config, basis, half, depth + 1)
        second = _advance(first[-1], config, basis, half, depth + 1)
        return first + second


def _record(traj: Trajectory, prev_record: DiagnosticsRecord | None,
            u: VectorField, diss: ScalarField | None) -> DiagnosticsRecord:
    """Diagnostics for the most recently appended state, whose velocity is
    u; diss is the dissipation field of the step that reached it (None for
    the initial state)."""
    state = traj.final
    rep = energy_report(traj, state, u)
    if prev_record is None:
        cum_diss = cum_eps = cum_sink = 0.0
        slack = 0.0
    else:
        sinks = step_sinks(traj, len(traj.states) - 2, u, diss)
        cum_diss = prev_record.cum_dissipation + sinks["dissipation"]
        cum_eps = prev_record.cum_eps_dissipation + sinks["eps_dissipation"]
        cum_sink = prev_record.cum_sink + sinks["sink"]
        slack = energy_slack(
            rep["kinetic_energy"] + rep["thermal_energy"],
            prev_record.kinetic_energy + prev_record.thermal_energy, sinks)
    # energy_report's keys are the record's other field names
    return DiagnosticsRecord(time=state.t, cum_dissipation=cum_diss,
                             cum_eps_dissipation=cum_eps, cum_sink=cum_sink,
                             energy_slack=slack, **rep)


def run_simulation(config: RunConfig) -> Trajectory:
    problems = config.validate()
    if problems:
        raise ValueError("; ".join(problems))
    grid = build_grid(config)
    basis = build_basis(grid, config.n_modes)
    laws = config.laws()
    traj = Trajectory(grid=grid, basis=basis, laws=laws,
                      eps=config.eps, delta=config.delta)
    state = initial_state(config, grid, basis)
    step = Step(state=state, u_new=state.velocity(basis), diss=None,
                sweeps=())
    traj.append(state)
    traj.records.append(_record(traj, None, step.u_new, None))

    rho_lo, rho_hi = state.rho.min(), state.rho.max()
    e0 = traj.records[0].kinetic_energy + traj.records[0].thermal_energy
    while state.t < config.t_final - 1e-12 * max(config.t_final, 1.0):
        dt = min(config.dt, config.t_final - state.t)
        try:
            steps = _advance(step, config, basis, dt)
        except (SolverError, ValueError) as exc:
            # a ValueError here comes from inside the time loop (the config
            # was validated above), so it is a run failure like any other
            raise RunError(f"step from t = {state.t!r} failed: {exc}",
                           partial_trajectory=traj) from exc
        for step in steps:
            state = step.state
            traj.append(state)
            traj.records.append(
                _record(traj, traj.records[-1], step.u_new, step.diss))
            if state.rho.min() < rho_lo - 1e-12 or state.rho.max() > rho_hi + 1e-12:
                raise RunError("density left its initial bounds",
                               partial_trajectory=traj)
            if traj.records[-1].energy_slack > ENERGY_SLACK_FACTOR * e0:
                raise RunError(
                    f"energy inequality violated at t = {state.t!r} "
                    f"(slack {traj.records[-1].energy_slack!r})",
                    partial_trajectory=traj)
        # free the other substeps' fields before the next step; the last
        # one's velocity is the next step's u_old
        del steps
    return traj


def _field_l2_difference(traj_a: Trajectory, traj_b: Trajectory) -> dict:
    """Space-time L2 differences of u and theta on common time samples.

    Fields are interpolated linearly in time; basis coefficients of
    different sizes compare through the reconstructed nodal velocities.
    """
    grid = traj_a.grid
    if traj_b.grid != grid:
        raise ValueError("trajectories must share a grid")
    T = min(traj_a.final.t, traj_b.final.t)
    samples = np.linspace(0.0, T, DIFFERENCE_SAMPLES)

    def at(traj, t):
        times = traj.times
        i = int(np.searchsorted(times, t, side="right") - 1)
        i = min(max(i, 0), len(times) - 2) if len(times) > 1 else 0
        if len(times) == 1:
            s = traj.states[0]
            u = s.velocity(traj.basis)
            return u.u, u.v, s.theta.values
        w = (t - times[i]) / (times[i + 1] - times[i])
        w = min(max(w, 0.0), 1.0)
        s0, s1 = traj.states[i], traj.states[i + 1]
        u0, u1 = s0.velocity(traj.basis), s1.velocity(traj.basis)
        return ((1 - w) * u0.u + w * u1.u,
                (1 - w) * u0.v + w * u1.v,
                (1 - w) * s0.theta.values + w * s1.theta.values)

    du_sq, dth_sq = [], []
    for t in samples:
        ua, va, tha = at(traj_a, t)
        ub, vb, thb = at(traj_b, t)
        du_sq.append(integrate_values(grid, (ua - ub) ** 2 + (va - vb) ** 2))
        dth_sq.append(integrate_values(grid, (tha - thb) ** 2))
    return {
        "u": float(np.sqrt(max(np.trapezoid(du_sq, samples), 0.0))),
        "theta": float(np.sqrt(max(np.trapezoid(dth_sq, samples), 0.0))),
    }


def schedule_config(base_config: RunConfig, n, eps, delta) -> RunConfig:
    """The config of one (n_modes, eps, delta) entry of a sweep schedule."""
    return replace(base_config, n_modes=int(n), eps=float(eps),
                   delta=float(delta))


def continuation_sweep(base_config: RunConfig, schedule) -> dict:
    """Run the schedule of (n_modes, eps, delta) overrides and report the
    successive Cauchy differences; a failed run truncates the report."""
    if not schedule:
        raise ValueError("schedule must be non-empty")
    runs = []
    error = None
    for entry in schedule:
        try:
            runs.append(run_simulation(schedule_config(base_config, *entry)))
        except SolverError as exc:
            error = str(exc)
            break

    differences = [_field_l2_difference(a, b) for a, b in zip(runs, runs[1:])]
    monitors = [apriori_monitor(traj) for traj in runs]
    bands = {}
    if monitors:
        for key in monitors[0]:
            vals = [m[key] for m in monitors]
            lo, hi = min(vals), max(vals)
            bands[key] = hi / lo if lo > 0 else (1.0 if hi == 0 else float("inf"))
    flags = {
        "u_decreasing": all(differences[i + 1]["u"] < differences[i]["u"]
                            for i in range(len(differences) - 1)),
        "theta_decreasing": all(
            differences[i + 1]["theta"] < differences[i]["theta"]
            for i in range(len(differences) - 1)),
    }
    return {
        "completed": len(runs),
        "differences": differences,
        "band_ratios": bands,
        "flags": flags,
        "error": error,
    }
