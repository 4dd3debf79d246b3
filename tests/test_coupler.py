import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

import nsfourier.coupler as coupler
import nsfourier.momentum as momentum
import nsfourier.state as state_module
from nsfourier.basis import assemble_weighted_gram, build_basis
from nsfourier.config import RunConfig
from nsfourier.coupler import (Step, build_grid, continuation_sweep,
                               fixed_point_step, initial_state,
                               run_simulation)
from nsfourier.diagnostics import (apriori_monitor, check_energy_inequality,
                                   diagnostics_csv_text)
from nsfourier.errors import RunError
from nsfourier.grid import ScalarField, integrate_values
from nsfourier.momentum import momentum_system
from nsfourier.thermal import dissipation_field


def small_config(**overrides):
    base = dict(nx=24, ny=24, n_modes=6, t_final=0.05, dt=0.01)
    base.update(overrides)
    return RunConfig(**base)


def initial_step(config):
    """The basis and the initial `Step` a run starts from."""
    grid = build_grid(config)
    basis = build_basis(grid, config.n_modes)
    state = initial_state(config, grid, basis)
    return basis, Step(state=state, u_new=state.velocity(basis),
                       mass=assemble_weighted_gram(basis, state.rho),
                       sweeps=())


def test_equilibrium_is_fixed_point():
    config = small_config(delta=0.0, theta_amp=0.0, m0_amplitude=0.0,
                          rho_amp=0.0)
    basis, prev = initial_step(config)
    state = prev.state
    step = fixed_point_step(prev, config, basis, config.dt)
    out = step.state
    assert len(step.sweeps) == 1
    assert np.array_equal(out.coeffs, state.coeffs)
    assert np.array_equal(out.rho.values, state.rho.values)
    assert np.allclose(out.theta.values, state.theta.values, atol=1e-12)


def test_picard_contraction():
    config = small_config(dt=0.005, m0_amplitude=0.05, picard_tol=1e-12)
    basis, prev = initial_step(config)
    history = fixed_point_step(prev, config, basis, config.dt).sweeps
    assert len(history) >= 2
    for a, b in zip(history[1:], history[2:]):
        assert b < a


def test_step_computes_one_set_of_feet_per_sweep(monkeypatch):
    import nsfourier.transport as transport

    config = small_config(dt=0.005, m0_amplitude=0.05, picard_tol=1e-12)
    basis, prev = initial_step(config)
    calls = []
    compute_feet = transport.compute_feet

    def counted(*args):
        calls.append(args)
        return compute_feet(*args)

    monkeypatch.setattr(transport, "compute_feet", counted)
    step = fixed_point_step(prev, config, basis, config.dt)
    assert len(step.sweeps) >= 2
    assert len(calls) == len(step.sweeps)


def test_momentum_invariants_assembled_once_per_step(monkeypatch):
    import nsfourier.momentum as momentum

    config = small_config(dt=0.005, m0_amplitude=0.05, picard_tol=1e-12)
    basis, prev = initial_step(config)
    calls = {}
    for name in ("assemble_weighted_gram", "assemble_viscous",
                 "assemble_advection_matrix"):
        def counted(*args, _fn=getattr(momentum, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(momentum, name, counted)
    sweeps = len(fixed_point_step(prev, config, basis, config.dt).sweeps)
    assert sweeps >= 2
    # the old density's mass matrix rides on prev; each sweep assembles
    # the new density's
    assert calls == {"assemble_weighted_gram": sweeps,
                     "assemble_viscous": 1, "assemble_advection_matrix": 1}


def test_run_assembles_one_mass_matrix_per_sweep_and_the_initial_one(
        monkeypatch):
    steps = []

    def kept_step(*args, **kwargs):
        steps.append(fixed_point_step(*args, **kwargs))
        return steps[-1]

    calls = []
    for module in (coupler, momentum):
        def counted(*args, _fn=module.assemble_weighted_gram):
            calls.append(1)
            return _fn(*args)
        monkeypatch.setattr(module, "assemble_weighted_gram", counted)
    monkeypatch.setattr(coupler, "fixed_point_step", kept_step)
    traj = run_simulation(small_config(dt=0.005, m0_amplitude=0.05))
    assert len(steps) == len(traj.states) - 1 == 10
    sweeps = sum(len(s.sweeps) for s in steps)
    assert sweeps > len(steps)
    assert len(calls) == sweeps + 1


def test_strong_flow_run_takes_few_pcg_iterations_per_thermal_solve(
        monkeypatch):
    import scipy.sparse.linalg as spla

    iters = []
    cg = spla.cg

    def counted(*args, **kwargs):
        iters.append(0)

        def count(xk):
            iters[-1] += 1

        return cg(*args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counted)
    # the `stressed` workload's data on a small grid: theta heats from 0.2
    # to about 22, so kappa(theta) grows about 500-fold, and the
    # preconditioner's sqrt(kappa) scaling follows it from solve to solve
    traj = run_simulation(small_config(t_final=0.02, dt=0.002,
                                       m0_amplitude=1.0))
    assert len(traj.states) == 11
    assert len(iters) >= 10
    assert max(iters) <= 40
    # the run's whole thermal work: each Newton system is solved only to
    # the step's tolerance, and Newton stops at the first residual within
    # it (30 solves and 317 iterations with every solve to 1e-12 relative)
    assert len(iters) <= 28
    assert sum(iters) <= 240


def test_unconverged_cg_halves_the_step(monkeypatch):
    import scipy.sparse.linalg as spla

    cg = spla.cg
    calls = []
    prevs = []

    def fails_once(*args, **kwargs):
        calls.append(1)
        sol, info = cg(*args, **kwargs)
        return sol, (1 if len(calls) == 1 else info)

    def kept_prev(prev, *args):
        prevs.append(prev)
        return fixed_point_step(prev, *args)

    monkeypatch.setattr(spla, "cg", fails_once)
    monkeypatch.setattr(coupler, "fixed_point_step", kept_prev)
    traj = run_simulation(small_config(t_final=0.02))
    assert traj.times.tolist() == [0.0, 0.005, 0.01, 0.02]
    # the first step failed and was retried in halves from the same prev;
    # the second half read the first half's step as the step returned it
    assert len(prevs) == 4
    assert prevs[1] is prevs[0]
    assert prevs[2].state is traj.states[1]
    # the time loop carries u and v on, and not the gradients the record
    # read
    for prev in (prevs[0], prevs[3]):
        u = prev.u_new
        assert all(g is None for g in (u.du_dx, u.du_dy, u.dv_dx, u.dv_dy))
        assert u.u.shape == u.v.shape == traj.grid.shape
    assert prevs[3].state is traj.states[2]
    # every stored state, substeps included, holds the dissipation field
    # of the step that reached it: mu at the state before it, the state's
    # own velocity
    assert traj.initial.diss is None
    for old, new in zip(traj.states, traj.states[1:]):
        diss = dissipation_field(old.viscosity(traj.laws),
                                 new.velocity(traj.basis))
        assert np.array_equal(new.diss.values, diss.values)


def test_halved_steps_start_from_the_carried_mass_matrix(monkeypatch):
    import scipy.sparse.linalg as spla

    cg = spla.cg
    calls = []
    prevs = []
    masses = []

    def fails_once(*args, **kwargs):
        calls.append(1)
        sol, info = cg(*args, **kwargs)
        return sol, (1 if len(calls) == 1 else info)

    def kept_prev(prev, *args):
        prevs.append(prev)
        return fixed_point_step(prev, *args)

    def kept_mass(coeffs_old, rho_old, M_old, *args):
        masses.append(M_old)
        return momentum_system(coeffs_old, rho_old, M_old, *args)

    monkeypatch.setattr(spla, "cg", fails_once)
    monkeypatch.setattr(coupler, "fixed_point_step", kept_prev)
    monkeypatch.setattr(coupler, "momentum_system", kept_mass)
    traj = run_simulation(small_config(t_final=0.02))
    assert traj.times.tolist() == [0.0, 0.005, 0.01, 0.02]
    # the failed step and its first half both start from the initial
    # step's mass; every step reads the mass its prev carries, bitwise a
    # fresh assembly of that state's density
    assert len(prevs) == len(masses) == 4
    assert masses[1] is masses[0] is prevs[0].mass
    for prev, mass in zip(prevs, masses):
        assert mass is prev.mass
        assert np.array_equal(
            mass, assemble_weighted_gram(traj.basis, prev.state.rho))


def count_reconstructions(monkeypatch) -> list:
    """Patch every module that binds `reconstruct_velocity`; the returned
    list grows by one entry per call."""
    calls = []
    for module in (coupler, momentum, state_module):
        def counted(*args, _fn=module.reconstruct_velocity):
            calls.append(1)
            return _fn(*args)
        monkeypatch.setattr(module, "reconstruct_velocity", counted)
    return calls


def test_run_builds_each_velocity_once_per_sweep(monkeypatch):
    steps = []

    def kept_step(*args, **kwargs):
        steps.append(fixed_point_step(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(coupler, "fixed_point_step", kept_step)
    calls = count_reconstructions(monkeypatch)
    traj = run_simulation(small_config(dt=0.005, m0_amplitude=0.05))
    assert len(steps) == len(traj.states) - 1 == 10
    # one velocity per later sweep and u_new per step, plus the initial
    # state's; each step's u_old is the previous step's u_new
    assert len(calls) == sum(len(s.sweeps) for s in steps) + 1
    assert sum(len(s.sweeps) for s in steps) > len(steps)


def test_run_rows_match_rows_rebuilt_from_the_states(replay_records):
    traj = run_simulation(small_config(dt=0.005, m0_amplitude=0.05))
    assert [r.row() for r in traj.records] == [r.row() for r in replay_records(traj)]
    assert traj.records[-1].cum_dissipation > 0.0


def test_energy_check_and_apriori_monitor_build_no_velocity(monkeypatch):
    traj = run_simulation(small_config(m0_amplitude=0.01))
    calls = count_reconstructions(monkeypatch)
    assert check_energy_inequality(traj, traj.delta, traj.eps)["passes"]
    apriori_monitor(traj)
    assert calls == []


def test_run_working_set_stays_within_its_field_budget():
    # a two-step run on a 64^2 grid, traced after a warm-up run has filled
    # the per-grid caches: the peak counts the grid, the trajectory's
    # states, each with its dissipation field, and each step's live
    # fields.  It reads about 42 fields of (nx+1)(ny+1) doubles; holding
    # each step's dead temporaries (the last sweep's velocity, the momentum
    # system, mu(theta_old)) and the carried step's gradients raises it to
    # about 53
    config = small_config(nx=64, ny=64, n_modes=16, t_final=0.02)
    run_simulation(config)
    tracemalloc.start()
    try:
        run_simulation(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = 8 * (config.nx + 1) * (config.ny + 1)
    assert peak <= 46 * field


def test_zero_t_final_gives_initial_state_only():
    traj = run_simulation(small_config(t_final=0.0))
    assert len(traj.states) == 1
    assert traj.final.t == 0.0


def test_zero_momentum_uniform_theta_reduces_to_ode():
    config = small_config(m0_amplitude=0.0, theta_amp=0.0, rho_amp=0.0,
                          theta_base=1.0, t_final=0.03, dt=0.01)
    traj = run_simulation(config)
    for state in traj.states:
        assert np.all(state.coeffs == 0.0)
    delta = config.delta
    theta = 1.0
    for state in traj.states[1:]:
        theta = brentq(
            lambda t, prev=theta: (delta + 1.0) * (t - prev) / config.dt
            + delta * t ** 3, 0.0, max(theta, 1.0), xtol=1e-15)
        assert np.max(np.abs(state.theta.values - theta)) <= 1e-9


def test_run_preserves_density_bounds_and_time_order():
    traj = run_simulation(small_config(m0_amplitude=0.01))
    times = traj.times
    assert np.all(np.diff(times) > 0)
    rho0 = traj.initial.rho
    for state in traj.states:
        assert state.rho.min() >= rho0.min() - 1e-12
        assert state.rho.max() <= rho0.max() + 1e-12


def test_energy_slack_within_threshold():
    traj = run_simulation(small_config(m0_amplitude=0.01))
    e0 = traj.records[0].kinetic_energy + traj.records[0].thermal_energy
    assert max(r.energy_slack for r in traj.records) <= 1e-10 * e0


@pytest.mark.parametrize("grid", [{}, dict(nx=12, ny=20, Lx=2.0, Ly=0.7,
                                           n_modes=6)])
def test_still_fluid_keeps_the_thermal_energy_budget(grid):
    # with u = 0 every Newton residual within tol has one sign, so N of
    # them would add up to the energy guard; the uniform shift at the
    # Newton stop takes their sum out
    traj = run_simulation(RunConfig(m0_amplitude=0.0, theta_amp=0.05,
                                    rho_amp=0.3, t_final=0.15, **grid))
    assert traj.final.t == pytest.approx(0.15)
    e0 = traj.records[0].kinetic_energy + traj.records[0].thermal_energy
    assert max(r.energy_slack for r in traj.records) <= 1e-12 * e0


def test_determinism_byte_identical():
    config = small_config(m0_amplitude=0.01)
    a = diagnostics_csv_text(run_simulation(config).records)
    b = diagnostics_csv_text(run_simulation(config).records)
    assert a == b


def test_retry_exhaustion_yields_partial_trajectory():
    config = small_config(m0_amplitude=0.05, picard_max=1, picard_tol=1e-14)
    with pytest.raises(RunError) as err:
        run_simulation(config)
    partial = err.value.partial_trajectory
    assert partial is not None
    assert len(partial.states) >= 1


def fail_in_the_time_loop(monkeypatch):
    """Make every step raise the ValueError a degenerate state raises."""
    def failing_step(*args, **kwargs):
        raise ValueError("need eps > 0 where mu vanishes")

    monkeypatch.setattr(coupler, "fixed_point_step", failing_step)


def test_value_error_in_a_step_is_a_run_error(monkeypatch):
    fail_in_the_time_loop(monkeypatch)
    with pytest.raises(RunError, match="need eps > 0") as err:
        run_simulation(small_config())
    assert len(err.value.partial_trajectory.states) == 1


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        run_simulation(small_config(delta=1.5))


def test_initial_state_bounds_checked():
    config = small_config(rho_amp=0.0)
    grid = build_grid(config)
    basis = build_basis(grid, config.n_modes)
    config.rho_base = config.delta / 2
    with pytest.raises(ValueError):
        initial_state(config, grid, basis)


def test_sweep_identical_configs_zero_difference():
    config = small_config(m0_amplitude=0.01)
    schedule = [(config.n_modes, config.eps, config.delta)] * 2
    report = continuation_sweep(config, schedule)
    assert report["completed"] == 2
    assert report["differences"][0]["u"] == 0.0
    assert report["differences"][0]["theta"] == 0.0


def mixed_fields_difference(traj_a, traj_b):
    """Space-time L2 differences of u and theta with the two states'
    reconstructed fields mixed in time, and the L2 norms of the fields
    themselves: the form that reconstructed twice per sample."""
    grid = traj_a.grid
    samples = np.linspace(0.0, min(traj_a.final.t, traj_b.final.t),
                          coupler.DIFFERENCE_SAMPLES)

    def at(traj, t):
        times = traj.times
        i = min(max(int(np.searchsorted(times, t, side="right") - 1), 0),
                len(times) - 2)
        w = min(max((t - times[i]) / (times[i + 1] - times[i]), 0.0), 1.0)
        s0, s1 = traj.states[i], traj.states[i + 1]
        u0, u1 = s0.velocity(traj.basis), s1.velocity(traj.basis)
        return ((1 - w) * u0.u + w * u1.u, (1 - w) * u0.v + w * u1.v,
                (1 - w) * s0.theta.values + w * s1.theta.values)

    def l2(values):
        return float(np.sqrt(np.trapezoid(
            [integrate_values(grid, v) for v in values], samples)))

    fa = [at(traj_a, t) for t in samples]
    fb = [at(traj_b, t) for t in samples]
    du = l2((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for a, b in zip(fa, fb))
    dth = l2((a[2] - b[2]) ** 2 for a, b in zip(fa, fb))
    norm_u = sum(l2(f[0] ** 2 + f[1] ** 2 for f in fs) for fs in (fa, fb))
    norm_th = sum(l2(f[2] ** 2 for f in fs) for fs in (fa, fb))
    return {"u": du, "theta": dth}, {"u": norm_u, "theta": norm_th}


def test_sweep_difference_reconstructs_once_per_sample(monkeypatch):
    # reconstruction is linear in the coefficients, so interpolating them
    # in time and reconstructing once per sample matches mixing the two
    # states' fields up to round-off on the fields' own scale
    traj_a = run_simulation(small_config(m0_amplitude=0.01))
    traj_b = run_simulation(small_config(m0_amplitude=0.01, n_modes=10,
                                         dt=0.0125, eps=5e-4))
    want, norms = mixed_fields_difference(traj_a, traj_b)
    calls = []
    reconstruct = coupler.reconstruct_velocity

    def counted(*args):
        calls.append(1)
        return reconstruct(*args)

    monkeypatch.setattr(coupler, "reconstruct_velocity", counted)
    got = coupler._field_l2_difference(traj_a, traj_b)
    assert len(calls) == 2 * coupler.DIFFERENCE_SAMPLES
    for key in ("u", "theta"):
        assert want[key] > 0.0
        assert abs(got[key] - want[key]) <= 1e-12 * norms[key]


def test_sweep_keeps_only_the_previous_trajectory(monkeypatch):
    # each run's monitor and difference are taken as the run completes,
    # so a run starts with at most the run before it alive
    config = small_config(t_final=0.02, m0_amplitude=0.01)
    schedule = [(6, 1e-3, 1e-2), (6, 5e-4, 1e-2), (6, 2.5e-4, 1e-2)]
    runs = [run_simulation(coupler.schedule_config(config, *entry))
            for entry in schedule]
    expected = [coupler._field_l2_difference(a, b)
                for a, b in zip(runs, runs[1:])]
    monitors = [apriori_monitor(traj) for traj in runs]
    del runs
    live_at_start = []
    refs = []

    def counted(run_config):
        gc.collect()
        live_at_start.append(sum(ref() is not None for ref in refs))
        traj = run_simulation(run_config)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(coupler, "run_simulation", counted)
    report = continuation_sweep(config, schedule)
    assert live_at_start == [0, 1, 1]
    assert report["completed"] == 3
    assert report["differences"] == expected
    assert report["band_ratios"] == {
        key: max(m[key] for m in monitors) / min(m[key] for m in monitors)
        for key in monitors[0]}


def test_sweep_empty_schedule_rejected():
    with pytest.raises(ValueError):
        continuation_sweep(small_config(), [])


def test_sweep_partial_report_on_failure():
    config = small_config(m0_amplitude=0.05, picard_max=1, picard_tol=1e-14)
    report = continuation_sweep(config, [(6, 1e-3, 1e-2), (6, 5e-4, 1e-2)])
    assert report["completed"] == 0
    assert report["error"] is not None


def test_sweep_truncates_on_a_value_error_in_a_step(monkeypatch):
    fail_in_the_time_loop(monkeypatch)
    config = small_config()
    report = continuation_sweep(config, [(6, 1e-3, 1e-2), (6, 5e-4, 1e-2)])
    assert report["completed"] == 0
    assert "need eps > 0" in report["error"]
