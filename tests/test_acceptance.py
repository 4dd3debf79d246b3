"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite output doubles as a
checklist. The default run shared by several checks is a 64x64 grid with 16
stream modes, eps 1e-3, delta 1e-2, final time 0.5.
"""

import numpy as np
import pytest
from scipy import integrate as sint
from scipy.optimize import brentq

from nsfourier.basis import (assemble_viscous, build_basis,
                             reconstruct_velocity)
from nsfourier.coefficients import (ConductivityLaw, RenormFunction,
                                    ViscosityLaw, check_h_admissible,
                                    eval_renorm, kirchhoff_K,
                                    kirchhoff_K_inverse)
from nsfourier.config import Laws, RunConfig
from nsfourier.coupler import continuation_sweep, run_simulation
from nsfourier.degiorgi import (Lemma62Params, ladder_run, lemma62_iterate,
                                lemma62_threshold)
from nsfourier.diagnostics import (SeparableTestFunction,
                                   check_energy_inequality,
                                   diagnostics_csv_text, renorm_report)
from nsfourier.grid import Grid, ScalarField, VectorField, integrate_values
import nsfourier.thermal as thermal
from nsfourier.thermal import step_temperature
from nsfourier.transport import (advect_density, compute_feet,
                                 level_set_measure)


def report(name, ok):
    print(f"acceptance: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="session")
def default_run():
    config = RunConfig()
    assert (config.nx, config.ny, config.n_modes) == (64, 64, 16)
    assert (config.eps, config.delta, config.t_final) == (1e-3, 1e-2, 0.5)
    assert config.theta_floor == 0.1
    return config, run_simulation(config)


def canonical_conductivity():
    return ConductivityLaw(kappa_lo=1.0)


def test_criterion_1_coefficient_suite():
    cond = canonical_conductivity()
    ok = True

    for l in [round(0.1 * k, 1) for k in range(1, 11)]:
        ok &= check_h_admissible(RenormFunction.power(l), 20.0, 400)["passes"]
    ok &= not check_h_admissible(RenormFunction.power(1.5), 20.0, 400)["passes"]
    exp_h = RenormFunction.from_callables(
        h=lambda z: np.exp(-np.asarray(z, dtype=float)),
        dh=lambda z: -np.exp(-np.asarray(z, dtype=float)),
        d2h=lambda z: np.exp(-np.asarray(z, dtype=float)))
    ok &= not check_h_admissible(exp_h, 20.0, 400)["passes"]

    for theta in np.linspace(0.0, 20.0, 81):
        back = kirchhoff_K_inverse(cond, kirchhoff_K(cond, theta))
        ok &= abs(back - theta) <= 1e-8

    for l in (1.0, 0.5, 0.3):
        h = RenormFunction.power(l)
        for theta in (0.5, 2.0, 10.0):
            ref, _ = sint.quad(lambda z: (1.0 + z ** 2) * (1.0 + z) ** (-l),
                               0.0, theta, epsabs=1e-14, epsrel=1e-13)
            ok &= abs(eval_renorm(h, cond, theta).K_h - ref) <= 1e-10 * abs(ref)

    report("1 coefficient suite", ok)


def test_criterion_2_basis_suite():
    ok = True
    grid = Grid(nx=64, ny=64)
    basis = build_basis(grid, 16)

    for j in range(basis.n_modes):
        for comp in (basis.eta[j, 0], basis.eta[j, 1]):
            wall_max = max(np.max(np.abs(comp[0, :])),
                           np.max(np.abs(comp[-1, :])),
                           np.max(np.abs(comp[:, 0])),
                           np.max(np.abs(comp[:, -1])))
            ok &= wall_max == 0.0

    rng = np.random.default_rng(0)
    for _ in range(100):
        u = reconstruct_velocity(basis, rng.standard_normal(basis.n_modes))
        scale = max(np.max(np.abs(u.du_dx)), np.max(np.abs(u.dv_dy)), 1e-300)
        ok &= np.max(np.abs(u.du_dx + u.dv_dy)) <= 1e-10 * scale

    # the quadratic form c' A c is the trapezoid quadrature of the
    # dissipation integrand; with a non-trigonometric viscosity field its
    # distance to a fine-grid reference must shrink at second order in h
    c = rng.standard_normal(16)
    eps = 0.3
    vals = {}
    for n in (32, 64, 128, 1024):
        g = Grid(nx=n, ny=n)
        b = build_basis(g, 16)
        mu = ScalarField.from_function(
            g, lambda x, y: 0.5 + 0.4 * np.exp(x) * np.exp(-y))
        A = assemble_viscous(b, mu, eps)
        vals[n] = float(c @ A @ c)
    errs = [abs(vals[n] - vals[1024]) for n in (32, 64, 128)]
    ok &= np.log2(errs[0] / errs[1]) >= 1.9
    ok &= np.log2(errs[1] / errs[2]) >= 1.9

    report("2 basis suite", ok)


def test_criterion_3_transport_suite():
    ok = True

    def blob(grid, cx=0.5, cy=0.5, width=0.1):
        return ScalarField.from_function(
            grid, lambda x, y: 1.0 + np.exp(-((x - cx) ** 2 + (y - cy) ** 2)
                                            / (2 * width ** 2)))

    # half-cell shift at each resolution keeps the fractional-offset
    # prefactor of the interpolation error fixed
    errs = []
    for n in (32, 64, 128):
        grid = Grid(nx=n, ny=n)
        shift = 0.5 / n
        flow = VectorField(grid, np.ones(grid.shape), np.zeros(grid.shape))
        out, _ = advect_density(blob(grid), flow, shift)
        exact = ScalarField.from_function(
            grid, lambda x, y: 1.0 + np.exp(-((x - shift - 0.5) ** 2
                                              + (y - 0.5) ** 2) / 0.02))
        interior = np.s_[n // 4: -n // 4, n // 4: -n // 4]
        errs.append(np.max(np.abs(out.values[interior]
                                  - exact.values[interior])))
    ok &= np.log2(errs[0] / errs[1]) >= 1.9
    ok &= np.log2(errs[1] / errs[2]) >= 1.9

    grid = Grid(nx=24, ny=24)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        rho = ScalarField(grid, rng.random(grid.shape))
        u = VectorField(grid, 0.5 * rng.standard_normal(grid.shape),
                        0.5 * rng.standard_normal(grid.shape))
        out, _ = advect_density(rho, u, 0.05)
        ok &= out.min() >= rho.min() and out.max() <= rho.max()

    n = 128
    grid = Grid(nx=n, ny=n)
    rho = blob(grid, cx=0.5, cy=0.65, width=0.15)
    omega = 2.0 * np.pi
    X, Y = grid.nodes()
    u = VectorField(grid, -omega * (Y - 0.5), omega * (X - 0.5))
    measure0 = level_set_measure(rho, 1.2, np.inf)
    f = rho
    for _ in range(n):
        f, _ = advect_density(f, u, 1.0 / n)
    drift = abs(level_set_measure(f, 1.2, np.inf) - measure0) / measure0
    ok &= drift <= 0.02

    report("3 transport suite", ok)


def test_criterion_4_thermal_suite(monkeypatch):
    ok = True
    laws = Laws(viscosity=ViscosityLaw(slope=1.0, theta_bar=1.0),
                conductivity=canonical_conductivity())

    delta, dt = 0.5, 0.1
    grid = Grid(nx=32, ny=32)
    rho = ScalarField.constant(grid, 1.0)
    out = step_temperature(ScalarField.constant(grid, 1.0), rho, rho,
                           compute_feet(grid, VectorField.zero(grid), dt),
                           ScalarField.constant(grid, 0.0), dt, delta, laws)
    oracle = brentq(lambda t: (delta + 1.0) * (t - 1.0) / dt + delta * t ** 3,
                    0.0, 1.0, xtol=1e-15)
    ok &= np.max(np.abs(out.values - oracle)) <= 1e-10

    n = 64
    grid = Grid(nx=n, ny=n)
    amp = 0.1
    theta = ScalarField.from_function(
        grid, lambda x, y: 1.0 + amp * np.cos(np.pi * x))
    rho = ScalarField.constant(grid, 1.0)
    kappa = 1.0
    dt, steps = 1e-3, 50
    zero_src = ScalarField.constant(grid, 0.0)
    rest = compute_feet(grid, VectorField.zero(grid), dt)
    with monkeypatch.context() as mp:
        # a constant conductivity, which no ConductivityLaw gives
        mp.setattr(thermal, "eval_conductivity",
                   lambda law, theta: np.full(np.shape(theta), kappa))
        for _ in range(steps):
            theta = step_temperature(theta, rho, rho, rest, zero_src, dt,
                                     0.0, laws)
    rate = kappa * np.pi ** 2
    measured = (theta.max() - theta.min()) / 2.0
    expected = amp * np.exp(-rate * dt * steps)
    ok &= abs(measured - expected) <= 5.0 * amp * (dt * rate + (1.0 / n) ** 2)

    grid = Grid(nx=32, ny=32)
    rng = np.random.default_rng(2)
    rho = ScalarField(grid, 1.0 + 0.3 * rng.random(grid.shape))
    theta = ScalarField.from_function(
        grid, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y))
    before = integrate_values(grid, rho.values * theta.values)
    out = step_temperature(theta, rho, rho,
                           compute_feet(grid, VectorField.zero(grid), 0.05),
                           ScalarField.constant(grid, 0.0), 0.05, 0.0, laws)
    after = integrate_values(grid, rho.values * out.values)
    ok &= abs(after - before) <= 1e-10 * abs(before)

    report("4 thermal suite", ok)


def test_criterion_5_energy_inequality(default_run):
    config, traj = default_run
    rep = check_energy_inequality(traj, config.delta, config.eps)
    report("5 energy inequality", rep["passes"])


def test_criterion_6_degiorgi_certificate(default_run):
    config, traj = default_run
    ok = True

    cert = ladder_run(traj, theta_floor=config.theta_floor, k_max=8,
                      delta=config.delta, laws=traj.laws)
    U = cert["U_sequence"]
    ok &= all(b <= a + 1e-14 for a, b in zip(U, U[1:]))
    ok &= U[-1] <= 1e-6 * max(U[0], 1e-30)
    ok &= cert["observed_min_theta"] >= np.exp(-cert["M"])
    ok &= cert["decay_ok"]

    seq = lemma62_iterate(Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0,
                                        K=100.0, U0=1.0), 10)["sequence"]
    ok &= abs(seq[1] - 0.04) <= 1e-12 * 0.04
    ok &= abs(seq[2] - 6.656e-5) <= 1e-12 * 6.656e-5

    K0 = lemma62_threshold(1.0, 2.0, 2.0, 3.0, 1.0)
    for factor in (1.01, 2.0, 10.0):
        p = Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0,
                          K=factor * K0, U0=1.0)
        ok &= lemma62_iterate(p, 200)["converged"]

    report("6 degiorgi certificate", ok)


def test_criterion_7_renormalized_inequality(default_run):
    config, traj = default_run
    ok = True
    T = traj.final.t
    phis = [SeparableTestFunction(traj.grid, T),
            SeparableTestFunction(traj.grid, T, time_power=2.0, amp=0.5),
            SeparableTestFunction(traj.grid, T, amp=0.3, kx=2, ky=1)]
    for l in (1.0, 0.5):
        for phi in phis:
            rep = renorm_report(traj, RenormFunction.power(l), phi,
                                config.delta, traj.laws)
            ok &= rep["passes"]
    report("7 renormalized inequality", ok)


@pytest.mark.parametrize("name,schedule", [
    ("eps", [(16, 1e-2, 1e-2), (16, 5e-3, 1e-2), (16, 2.5e-3, 1e-2)]),
    ("delta", [(16, 1e-3, 4e-2), (16, 1e-3, 2e-2), (16, 1e-3, 1e-2)]),
])
def test_criterion_8_continuation(name, schedule):
    rep = continuation_sweep(RunConfig(), schedule)
    ok = rep["completed"] == len(schedule)
    ok &= rep["flags"]["u_decreasing"] and rep["flags"]["theta_decreasing"]
    ok &= all(r <= 4.0 for r in rep["band_ratios"].values())
    report(f"8 continuation ({name} sweep)", ok)


def test_criterion_9_determinism(default_run):
    config, traj = default_run
    again = run_simulation(config)
    ok = (diagnostics_csv_text(traj.records)
          == diagnostics_csv_text(again.records))
    report("9 determinism", ok)
