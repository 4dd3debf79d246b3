from dataclasses import replace

import numpy as np
import pytest

from nsfourier import diagnostics
from nsfourier.basis import build_basis
from nsfourier.coefficients import RenormFunction, ViscosityLaw, eval_H
from nsfourier.config import Laws, RunConfig
from nsfourier.coupler import run_simulation
from nsfourier.diagnostics import (CSV_COLUMNS, ENERGY_SLACK_FACTOR,
                                   SeparableTestFunction, apriori_monitor,
                                   check_energy_inequality,
                                   diagnostics_csv_text, energy_report,
                                   energy_slack, renorm_report, step_sinks)
from nsfourier.errors import CapabilityError
from nsfourier.grid import Grid, ScalarField, h1_sq_values, integrate_values
from nsfourier.state import FluidState, Trajectory
from nsfourier.thermal import dissipation_field


@pytest.fixture(scope="module")
def small_run():
    config = RunConfig(nx=24, ny=24, n_modes=6, t_final=0.05, dt=0.01,
                       m0_amplitude=0.01)
    return config, run_simulation(config)


def make_static_trajectory(theta=0.5, rho=1.0, coeffs_scale=0.0, n_states=4,
                           delta=0.0):
    grid = Grid(nx=16, ny=16)
    basis = build_basis(grid, 3)
    config = RunConfig()
    laws = config.laws()
    traj = Trajectory(grid=grid, basis=basis, laws=laws, eps=1e-3, delta=delta)
    for i in range(n_states):
        traj.append(FluidState(
            rho=ScalarField.constant(grid, rho),
            coeffs=coeffs_scale * np.ones(3),
            theta=ScalarField.constant(grid, theta), t=0.05 * i))
    return traj


def test_energy_report_zero_state():
    traj = make_static_trajectory(theta=0.0, delta=0.5)
    rep = energy_report(traj, traj.initial, traj.initial.velocity(traj.basis))
    assert rep["kinetic_energy"] == 0.0
    assert rep["thermal_energy"] == 0.0
    assert rep["u_H1"] == 0.0


def test_energy_report_thermal_value():
    traj = make_static_trajectory(theta=2.0, rho=1.0, delta=0.5)
    rep = energy_report(traj, traj.initial, traj.initial.velocity(traj.basis))
    assert rep["thermal_energy"] == pytest.approx(3.0, rel=1e-12)


def test_kinetic_energy_quadratic():
    t1 = make_static_trajectory(coeffs_scale=0.1)
    t2 = make_static_trajectory(coeffs_scale=0.2)
    e1, e2 = (energy_report(t, t.initial, t.initial.velocity(t.basis))
              ["kinetic_energy"] for t in (t1, t2))
    assert e2 == pytest.approx(4.0 * e1, rel=1e-12)


def test_equilibrium_energy_check(replay_records):
    traj = make_static_trajectory()
    traj.records = replay_records(traj)
    report = check_energy_inequality(traj, 0.0, traj.eps)
    assert report["passes"]
    assert report["max_violation"] <= 1e-13


def test_injected_energy_detected(replay_records):
    grid = Grid(nx=16, ny=16)
    basis = build_basis(grid, 3)
    laws = RunConfig().laws()
    traj = Trajectory(grid=grid, basis=basis, laws=laws, eps=1e-3, delta=0.0)
    for i, scale in enumerate((0.0, 1.0)):
        traj.append(FluidState(rho=ScalarField.constant(grid, 1.0),
                               coeffs=scale * np.ones(3),
                               theta=ScalarField.constant(grid, 0.5),
                               t=0.05 * i))
    traj.records = replay_records(traj)
    report = check_energy_inequality(traj, 0.0, traj.eps)
    assert not report["passes"]
    assert report["max_violation"] > 0


def test_verifiers_reject_records_that_do_not_match_the_states(small_run):
    config, run = small_run
    empty = Trajectory(grid=run.grid, basis=run.basis, laws=run.laws,
                       eps=run.eps, delta=run.delta)
    missing = replace(run, records=run.records[:-1])
    shifted = replace(run, records=run.records[:1] + [
        replace(rec, time=rec.time + 1e-3) for rec in run.records[1:]])
    for traj in (empty, missing, shifted):
        with pytest.raises(ValueError):
            check_energy_inequality(traj, config.delta, config.eps)
        with pytest.raises(ValueError):
            apriori_monitor(traj)


@pytest.fixture(scope="module")
def moving_run():
    # strong flow: theta heats from 0.2 to about 22 and the slack is
    # far from zero
    config = RunConfig(nx=24, ny=24, n_modes=6, t_final=0.02, dt=0.002,
                       m0_amplitude=1.0)
    return config, run_simulation(config)


def energy_check_from_states(traj):
    """The energy check re-derived from the stored states alone, each
    state's velocity rebuilt from its coefficients."""
    def total(state, u):
        rep = energy_report(traj, state, u)
        return rep["kinetic_energy"] + rep["thermal_energy"]

    states = traj.states
    total_old = total_0 = total(states[0], states[0].velocity(traj.basis))
    worst = -np.inf
    worst_step = -1
    for m in range(len(states) - 1):
        u1 = states[m + 1].velocity(traj.basis)
        total_new = total(states[m + 1], u1)
        diss = dissipation_field(states[m].viscosity(traj.laws), u1)
        violation = energy_slack(total_new, total_old,
                                 step_sinks(traj, m, u1, diss))
        if violation > worst:
            worst = violation
            worst_step = m
        total_old = total_new
    threshold = ENERGY_SLACK_FACTOR * total_0
    return {"max_violation": float(worst), "worst_step": worst_step,
            "threshold": threshold, "passes": bool(worst <= threshold)}


def test_energy_check_matches_the_check_rederived_from_the_states(moving_run):
    config, traj = moving_run
    report = check_energy_inequality(traj, config.delta, config.eps)
    assert repr(report) == repr(energy_check_from_states(traj))
    assert report["max_violation"] < -1e-3


def test_apriori_monitor_matches_the_velocity_terms_of_the_states(moving_run):
    _, traj = moving_run
    grid, times = traj.grid, traj.times
    rho_u, u_h1_sq, th_h1_sq, th_l3 = [], [], [], []
    for s in traj.states:
        u = s.velocity(traj.basis)
        rho_u.append(float(np.sqrt(integrate_values(
            grid, s.rho.values * u.speed_sq()))))
        u_h1_sq.append(integrate_values(grid, u.speed_sq() + u.grad_sq()))
        th_h1_sq.append(h1_sq_values(grid, s.theta.values))
        th_l3.append(integrate_values(grid, s.theta.values ** 3))
    report = apriori_monitor(traj)
    assert report["rho_Linf"] == max(s.rho.max() for s in traj.states)
    assert report["sqrt_rho_u_LinfL2"] == max(rho_u)
    assert report["u_L2H1"] == pytest.approx(
        np.sqrt(np.trapezoid(u_h1_sq, times)), rel=1e-15)
    assert report["theta_L2H1"] == pytest.approx(
        np.sqrt(np.trapezoid(th_h1_sq, times)), rel=1e-15)
    assert report["theta_L3_spacetime"] == pytest.approx(
        np.trapezoid(th_l3, times) ** (1.0 / 3.0), rel=1e-15)


def test_run_energy_check(small_run):
    config, traj = small_run
    report = check_energy_inequality(traj, config.delta, config.eps)
    assert report["passes"]


def test_verifiers_reject_parameters_other_than_the_trajectorys(small_run):
    config, traj = small_run
    with pytest.raises(ValueError, match="eps"):
        check_energy_inequality(traj, config.delta, 100.0)
    with pytest.raises(ValueError, match="delta"):
        check_energy_inequality(traj, 0.5, config.eps)
    phi = SeparableTestFunction(traj.grid, traj.final.t)
    h = RenormFunction.power(1.0)
    with pytest.raises(ValueError, match="delta"):
        renorm_report(traj, h, phi, 0.5, traj.laws)
    other = Laws(viscosity=ViscosityLaw(slope=2.0, theta_bar=1.0),
                 conductivity=traj.laws.conductivity)
    with pytest.raises(ValueError, match="laws"):
        renorm_report(traj, h, phi, config.delta, other)


def test_test_function_preconditions():
    grid = Grid(nx=16, ny=16)
    with pytest.raises(ValueError):
        SeparableTestFunction(grid, 1.0, amp=1.2)
    phi = SeparableTestFunction(grid, 1.0, amp=0.5)
    assert phi.psi(1.0) == 0.0
    assert np.all(phi.at(0.0) >= 0.0)


def test_renorm_rejects_phi_not_vanishing_at_T(small_run):
    config, traj = small_run
    phi = SeparableTestFunction(traj.grid, 2.0 * traj.final.t)
    with pytest.raises(ValueError):
        renorm_report(traj, RenormFunction.power(1.0), phi, config.delta,
                      traj.laws)["residual"]


def test_renorm_rejects_inadmissible_h(small_run):
    config, traj = small_run
    phi = SeparableTestFunction(traj.grid, traj.final.t)
    with pytest.raises(ValueError):
        renorm_report(traj, RenormFunction.power(1.5), phi, config.delta,
                      traj.laws)["residual"]


def test_renorm_flat_h_on_equilibrium():
    # on the constant-theta state grad theta = 0, so every term with h'
    # vanishes and the time-boundary terms cancel against the data term
    traj = make_static_trajectory(theta=0.5)
    phi = SeparableTestFunction(traj.grid, traj.final.t, amp=0.4)
    for l in (1.0, 0.5):
        rep = renorm_report(traj, RenormFunction.power(l), phi, traj.delta,
                            traj.laws)
        assert abs(rep["residual"]) <= 1e-10 * rep["scale"]


def test_renorm_rejects_h_without_closed_form_transforms():
    # admissible, but H and K_h of a custom h have no closed form
    traj = make_static_trajectory(theta=0.5)
    custom = RenormFunction.from_callables(
        h=lambda z: 1.0 / (1.0 + np.asarray(z, dtype=float)),
        dh=lambda z: -1.0 / (1.0 + np.asarray(z, dtype=float)) ** 2,
        d2h=lambda z: 2.0 / (1.0 + np.asarray(z, dtype=float)) ** 3)
    phi = SeparableTestFunction(traj.grid, traj.final.t, amp=0.4)
    with pytest.raises(CapabilityError):
        renorm_report(traj, custom, phi, traj.delta, traj.laws)


def test_renorm_residual_within_tolerance(small_run):
    config, traj = small_run
    phi = SeparableTestFunction(traj.grid, traj.final.t, amp=0.5)
    for l in (1.0, 0.5, 0.25):
        rep = renorm_report(traj, RenormFunction.power(l), phi, config.delta,
                            traj.laws)
        assert rep["passes"]


def test_apriori_monitor_uniform_run():
    config = RunConfig(nx=24, ny=24, n_modes=6, t_final=0.03, dt=0.01,
                       m0_amplitude=0.0, theta_amp=0.0, rho_amp=0.0)
    traj = run_simulation(config)
    report = apriori_monitor(traj)
    assert report["rho_Linf"] == pytest.approx(config.rho_base)
    assert report["sqrt_rho_u_LinfL2"] == 0.0
    assert np.isfinite(report["theta_L3_spacetime"])


def test_apriori_monitor_finite(small_run):
    _, traj = small_run
    report = apriori_monitor(traj)
    for value in report.values():
        assert type(value) is float
        assert np.isfinite(value)


def test_renorm_report_evaluates_H_once_per_state(small_run, monkeypatch):
    config, traj = small_run
    phi = SeparableTestFunction(traj.grid, traj.final.t)
    h = RenormFunction.power(0.5)
    before = renorm_report(traj, h, phi, config.delta, traj.laws)
    calls = []

    def counted(h, theta):
        calls.append(theta)
        return eval_H(h, theta)

    monkeypatch.setattr(diagnostics, "eval_H", counted)
    after = renorm_report(traj, h, phi, config.delta, traj.laws)
    assert len(calls) == len(traj.states)
    assert repr(after) == repr(before)


def test_csv_format(small_run):
    _, traj = small_run
    text = diagnostics_csv_text(traj.records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(traj.records)
    assert lines[1].startswith("0.0,")


def test_csv_deterministic(small_run):
    _, traj = small_run
    assert diagnostics_csv_text(traj.records) == diagnostics_csv_text(traj.records)
