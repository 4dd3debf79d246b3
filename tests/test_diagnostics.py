import numpy as np
import pytest

from nsfourier import diagnostics
from nsfourier.basis import build_basis
from nsfourier.coefficients import RenormFunction, ViscosityLaw, eval_H
from nsfourier.config import Laws, RunConfig
from nsfourier.coupler import run_simulation
from nsfourier.diagnostics import (CSV_COLUMNS, SeparableTestFunction,
                                   apriori_monitor, check_energy_inequality,
                                   diagnostics_csv_text, energy_report,
                                   renorm_report)
from nsfourier.errors import CapabilityError
from nsfourier.grid import Grid, ScalarField
from nsfourier.state import FluidState, Trajectory


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


def test_equilibrium_energy_check():
    traj = make_static_trajectory()
    report = check_energy_inequality(traj, 0.0, traj.eps)
    assert report["passes"]
    assert report["max_violation"] <= 1e-13


def test_injected_energy_detected():
    grid = Grid(nx=16, ny=16)
    basis = build_basis(grid, 3)
    laws = RunConfig().laws()
    traj = Trajectory(grid=grid, basis=basis, laws=laws, eps=1e-3, delta=0.0)
    for i, scale in enumerate((0.0, 1.0)):
        traj.append(FluidState(rho=ScalarField.constant(grid, 1.0),
                               coeffs=scale * np.ones(3),
                               theta=ScalarField.constant(grid, 0.5),
                               t=0.05 * i))
    report = check_energy_inequality(traj, 0.0, traj.eps)
    assert not report["passes"]
    assert report["max_violation"] > 0


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
