import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

import nsfourier.coupler as coupler
import nsfourier.momentum as momentum
import nsfourier.state as state_module
from nsfourier.basis import build_basis
from nsfourier.config import RunConfig
from nsfourier.coupler import (Step, build_grid, continuation_sweep,
                               fixed_point_step, initial_state,
                               run_simulation)
from nsfourier.diagnostics import (apriori_monitor, check_energy_inequality,
                                   diagnostics_csv_text)
from nsfourier.errors import RunError
from nsfourier.grid import ScalarField


def small_config(**overrides):
    base = dict(nx=24, ny=24, n_modes=6, t_final=0.05, dt=0.01)
    base.update(overrides)
    return RunConfig(**base)


def initial_step(config):
    """The basis and the initial `Step` a run starts from."""
    grid = build_grid(config)
    basis = build_basis(grid, config.n_modes)
    state = initial_state(config, grid, basis)
    return basis, Step(state=state, u_new=state.velocity(basis), diss=None,
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
    assert calls == {"assemble_weighted_gram": sweeps + 1,
                     "assemble_viscous": 1, "assemble_advection_matrix": 1}


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
    # the time loop carries u and v on, and nothing the record read
    for prev in (prevs[0], prevs[3]):
        assert prev.diss is None
        u = prev.u_new
        assert all(g is None for g in (u.du_dx, u.du_dy, u.dv_dx, u.dv_dy))
        assert u.u.shape == u.v.shape == traj.grid.shape
    assert prevs[3].state is traj.states[2]


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
    # states and each step's live fields.  It reads about 43 fields of
    # (nx+1)(ny+1) doubles; holding each step's dead temporaries and the
    # carried step's gradients and dissipation field raises it to about 62
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
