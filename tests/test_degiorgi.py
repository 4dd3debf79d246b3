import numpy as np
import pytest

from nsfourier import degiorgi
from nsfourier.basis import build_basis
from nsfourier.config import Laws
from nsfourier.coefficients import (ConductivityLaw, ViscosityLaw,
                                    eval_conductivity)
from nsfourier.degiorgi import (DeGiorgiLadder, Lemma62Params, build_ladder,
                                ladder_run, lemma62_iterate, lemma62_threshold,
                                level_energy, rung_integrals,
                                truncation_phi, certificate_text)
from nsfourier.errors import DegenerateInputError
from nsfourier.grid import Grid, ScalarField, grad_values, integrate_values
from nsfourier.state import FluidState, Trajectory


def make_trajectory(theta_values, rho_value=1.0, n_states=3, delta=1e-2):
    grid = Grid(nx=16, ny=16)
    basis = build_basis(grid, 2)
    laws = Laws(viscosity=ViscosityLaw(slope=1.0, theta_bar=1.0),
                conductivity=ConductivityLaw(kappa_lo=1.0))
    traj = Trajectory(grid=grid, basis=basis, laws=laws, eps=1e-3, delta=delta)
    for i in range(n_states):
        theta = (ScalarField.constant(grid, theta_values)
                 if np.isscalar(theta_values)
                 else ScalarField(grid, np.asarray(theta_values)))
        traj.append(FluidState(rho=ScalarField.constant(grid, rho_value),
                               coeffs=np.zeros(2), theta=theta,
                               t=0.1 * i))
    return traj


def test_truncation_basic_values():
    assert truncation_phi(0.5, 1.0) == pytest.approx(np.log(2.0), rel=1e-14)
    assert truncation_phi(0.0, 0.2, omega=0.1) == pytest.approx(np.log(2.0),
                                                                rel=1e-14)


def test_truncation_clamps_to_zero():
    assert truncation_phi(2.0, 1.0) == 0.0
    assert truncation_phi(1.0, 1.0) == 0.0


def test_truncation_degenerate_input():
    with pytest.raises(DegenerateInputError):
        truncation_phi(0.0, 1.0, omega=0.0)


def test_truncation_monotone_in_omega():
    values = [truncation_phi(0.1, 1.0, omega=w) for w in (0.0, 0.1, 0.5)]
    assert values[0] >= values[1] >= values[2]


def test_ladder_levels_consistency():
    ladder = DeGiorgiLadder(M=3.0, k_max=10)
    assert ladder.levels[0] == 1.0
    assert np.all(np.diff(ladder.levels) < 0)
    for k in range(1, 11):
        ratio = np.log(ladder.levels[k - 1] / ladder.levels[k])
        assert ratio == pytest.approx(3.0 * 2.0 ** (-k), rel=1e-12)


def test_ladder_invalid_params():
    for kwargs in ({"M": 0.0}, {"M": np.nan}, {"M": np.inf},
                   {"M": 2.0, "omega": np.nan}, {"M": 2.0, "omega": np.inf}):
        with pytest.raises(ValueError):
            DeGiorgiLadder(**kwargs)


@pytest.mark.parametrize("theta_floor", [0.0, np.nan, np.inf])
def test_build_ladder_rejects_a_bad_floor(theta_floor):
    with pytest.raises(ValueError, match="theta_floor"):
        build_ladder(theta_floor)


def moving_trajectory(thetas):
    """States with a moving velocity and the given temperature fields."""
    grid = Grid(nx=16, ny=16)
    X, Y = grid.nodes()
    base = make_trajectory(0.1)
    traj = Trajectory(grid=grid, basis=base.basis, laws=base.laws,
                      eps=1e-3, delta=0.1)
    for i, theta in enumerate(thetas):
        traj.append(FluidState(rho=ScalarField(grid, 1.0 + 0.2 * Y),
                               coeffs=np.array([0.3, -0.1 * i]),
                               theta=ScalarField(grid, theta), t=0.1 * i))
    return traj


def live_rung_thetas():
    """Four temperature fields from 0.05 up, with several live rungs at
    M = 3, omega = 0.01."""
    X, Y = Grid(nx=16, ny=16).nodes()
    return [0.05 + 0.3 * X * (1.0 + Y) + 0.01 * i for i in range(4)]


def test_level_energy_constant_state_hand_value():
    c = 0.3
    delta = 0.1
    traj = make_trajectory(c, delta=delta)
    ladder = DeGiorgiLadder(M=2.0, omega=0.05, k_max=4)
    U0 = level_energy(traj, 0, ladder, integrals=rung_integrals(traj, ladder))
    expected = (delta + 1.0) * 1.0 * np.log(1.0 / (c + 0.05))
    assert U0 == pytest.approx(expected, rel=1e-12)


def test_level_energy_empty_level_sets():
    traj = make_trajectory(1.5, delta=0.1)
    ladder = DeGiorgiLadder(M=2.0, k_max=4)
    assert level_energy(traj, 0, ladder,
                        integrals=rung_integrals(traj, ladder)) == 0.0


@pytest.mark.parametrize("k", [-1, 5])
def test_level_energy_rejects_a_rung_outside_the_ladder(k):
    # a negative k would otherwise index the top rung from the end
    traj = make_trajectory(0.3, delta=0.1)
    ladder = DeGiorgiLadder(M=0.5, k_max=4)
    with pytest.raises(ValueError, match="outside the ladder"):
        level_energy(traj, k, ladder, integrals=rung_integrals(traj, ladder))


def test_level_energy_monotone_in_k():
    traj = make_trajectory(0.05, delta=0.1)
    ladder = DeGiorgiLadder(M=3.0, k_max=6)
    integrals = rung_integrals(traj, ladder)
    energies = [level_energy(traj, k, ladder, integrals=integrals)
                for k in range(7)]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-14


def test_ladder_run_trivial_certificate():
    traj = make_trajectory(1.5, delta=0.1)
    cert = ladder_run(traj, theta_floor=1.0, k_max=6, delta=0.1,
                      laws=traj.laws)
    assert all(u == 0.0 for u in cert["U_sequence"])
    assert cert["decay_ok"]
    assert cert["lower_bound"] == pytest.approx(np.exp(-cert["M"]))


def test_ladder_run_detects_cold_trajectory():
    # constant temperature below the bottom level: energies cannot decay
    cert = ladder_run(make_trajectory(1e-4, delta=0.1), theta_floor=0.1,
                      k_max=6)
    assert not cert["decay_ok"]


def test_ladder_run_builds_each_state_once(monkeypatch):
    import nsfourier.state as state

    traj = moving_trajectory(live_rung_thetas())
    calls = []
    reconstruct = state.reconstruct_velocity

    def counted(*args):
        calls.append(1)
        return reconstruct(*args)

    monkeypatch.setattr(state, "reconstruct_velocity", counted)
    cert = ladder_run(traj, theta_floor=0.05, k_max=5, omega=0.01, delta=0.1,
                      laws=traj.laws, M=3.0)
    assert len(calls) == len(traj.states)
    ladder = DeGiorgiLadder(M=3.0, omega=0.01, k_max=5)
    integrals = rung_integrals(traj, ladder)
    per_rung = [level_energy(traj, k, ladder, integrals=integrals)
                for k in range(6)]
    assert sum(u > 0.0 for u in per_rung) >= 3
    assert cert["U_sequence"] == per_rung


def oracle_rung_integrals(traj, ladder):
    """The per-rung loop `rung_integrals` replaced, kept as an oracle: every
    rung of every state evaluated, through `truncation_phi`."""
    grid = traj.grid
    out = np.empty((ladder.k_max + 1, len(traj.states), 3))
    for j, s in enumerate(traj.states):
        shifted = s.theta.values + ladder.omega
        dsq = s.velocity(traj.basis).strain_sq()
        mu = s.viscosity(traj.laws).values
        tgx, tgy = grad_values(grid, s.theta.values)
        grad_sq = tgx ** 2 + tgy ** 2
        kap = np.asarray(eval_conductivity(traj.laws.conductivity,
                                           s.theta.values))
        for k, C_k in enumerate(ladder.levels):
            phi = truncation_phi(s.theta.values, C_k, ladder.omega)
            mask = shifted <= C_k
            out[k, j] = (
                integrate_values(grid, (traj.delta + s.rho.values) * phi),
                integrate_values(grid, mask * mu / shifted * dsq),
                integrate_values(grid, mask * kap / shifted ** 2 * grad_sq))
    return out


def assert_matches_the_per_rung_oracle(traj, monkeypatch, **kwargs):
    ladder = build_ladder(kwargs["theta_floor"], kwargs["k_max"],
                          kwargs["omega"], kwargs["M"])
    integrals = rung_integrals(traj, ladder)
    assert np.array_equal(integrals, oracle_rung_integrals(traj, ladder))
    cert = ladder_run(traj, **kwargs)
    monkeypatch.setattr(degiorgi, "rung_integrals", oracle_rung_integrals)
    assert repr(cert) == repr(ladder_run(traj, **kwargs))
    return integrals


def test_rung_integrals_match_the_per_rung_oracle_on_live_rungs(monkeypatch):
    traj = moving_trajectory(live_rung_thetas())
    integrals = assert_matches_the_per_rung_oracle(
        traj, monkeypatch, theta_floor=0.05, k_max=5, omega=0.01, M=3.0)
    live = np.any(integrals != 0.0, axis=(1, 2))
    assert 3 <= live.sum() < len(live)


def test_a_rung_whose_level_equals_the_minimum_is_live(monkeypatch):
    # min(theta + omega) == C_k exactly: the sub-level set {theta + omega
    # <= C_k} holds that node, so rung k is evaluated, not skipped
    k = 3
    ladder = build_ladder(0.05, k_max=5, omega=0.0, M=3.0)
    grid = Grid(nx=16, ny=16)
    X, Y = grid.nodes()
    # minimum at an interior node, where the velocity strain and the
    # centred y difference of theta are non-zero
    dx, dy = X - X[5, 7], Y - Y[5, 7]
    theta = ladder.levels[k] + 0.5 * dx ** 2 + np.where(dy > 0, 0.6, 0.2) * dy ** 2
    assert theta.min() == ladder.levels[k]
    assert np.count_nonzero(theta == ladder.levels[k]) == 1
    traj = moving_trajectory([theta, theta + 0.5])
    integrals = assert_matches_the_per_rung_oracle(
        traj, monkeypatch, theta_floor=0.05, k_max=5, omega=0.0, M=3.0)
    assert integrals[k, 0, 0] == 0.0
    assert integrals[k, 0, 1] > 0.0 and integrals[k, 0, 2] > 0.0
    assert np.all(integrals[k + 1:, 0] == 0.0)


def test_a_state_with_every_rung_empty_builds_no_velocity(monkeypatch):
    import nsfourier.state as state

    grid = Grid(nx=16, ny=16)
    X, Y = grid.nodes()
    # the second state lies above C_0 = 1 everywhere
    traj = moving_trajectory([0.3 + 0.2 * X * Y, 1.5 + 0.2 * X * Y,
                              0.4 + 0.1 * Y])
    calls = []
    reconstruct = state.reconstruct_velocity

    def counted(*args):
        calls.append(args[1])
        return reconstruct(*args)

    monkeypatch.setattr(state, "reconstruct_velocity", counted)
    ladder_run(traj, theta_floor=0.2, k_max=6)
    assert [c.tolist() for c in calls] == [
        traj.states[j].coeffs.tolist() for j in (0, 2)]
    integrals = assert_matches_the_per_rung_oracle(
        traj, monkeypatch, theta_floor=0.2, k_max=6, omega=0.0, M=None)
    assert np.all(integrals[:, 1] == 0.0)


def test_ladder_run_reads_the_trajectorys_delta_and_laws():
    traj = make_trajectory(0.3)
    cert = ladder_run(traj, theta_floor=0.2)
    assert cert["U_sequence"][0] > 0.0
    assert repr(cert) == repr(ladder_run(traj, theta_floor=0.2,
                                         delta=traj.delta, laws=traj.laws))
    with pytest.raises(ValueError, match="delta"):
        ladder_run(traj, theta_floor=0.2, delta=0.5)
    other = Laws(viscosity=ViscosityLaw(slope=2.0, theta_bar=1.0),
                 conductivity=traj.laws.conductivity)
    with pytest.raises(ValueError, match="laws"):
        ladder_run(traj, theta_floor=0.2, laws=other)


def test_certificate_text_fields():
    traj = make_trajectory(1.5, delta=0.1)
    cert = ladder_run(traj, theta_floor=1.0, k_max=3, delta=0.1,
                      laws=traj.laws)
    text = certificate_text(cert)
    assert text.startswith("[degiorgi-certificate]\n")
    for key in ("M = ", "omega = ", "k_max = ", "U_k = ", "decay_ok = ",
                "lower_bound = ", "observed_min_theta = "):
        assert key in text


def test_lemma62_hand_iteration():
    p = Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0, K=100.0, U0=1.0)
    result = lemma62_iterate(p, 10)
    seq = result["sequence"]
    assert seq[1] == pytest.approx(0.04, rel=1e-12)
    assert seq[2] == pytest.approx(6.656e-5, rel=1e-12)
    assert result["converged"]


def test_lemma62_zero_start():
    p = Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0, K=100.0, U0=0.0)
    result = lemma62_iterate(p, 5)
    assert all(u == 0.0 for u in result["sequence"])
    assert result["converged"]


def test_lemma62_divergence():
    p = Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0, K=1e-6, U0=1.0)
    result = lemma62_iterate(p, 50)
    assert not result["converged"]


def test_lemma62_param_validation():
    with pytest.raises(ValueError):
        Lemma62Params(C=1.0, A=0.5, beta1=2.0, beta2=3.0, K=1.0, U0=1.0)
    with pytest.raises(ValueError):
        Lemma62Params(C=1.0, A=2.0, beta1=3.0, beta2=2.0, K=1.0, U0=1.0)
    with pytest.raises(ValueError):
        Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0, K=0.0, U0=1.0)
    good = dict(C=1.0, A=2.0, beta1=2.0, beta2=3.0, K=1.0, U0=1.0)
    for name in good:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                Lemma62Params(**{**good, name: bad})


def test_lemma62_threshold_finite():
    K0 = lemma62_threshold(1.0, 2.0, 2.0, 3.0, 1.0)
    assert 0.0 < K0 < 100.0
    for factor in (1.01, 2.0, 10.0):
        p = Lemma62Params(C=1.0, A=2.0, beta1=2.0, beta2=3.0,
                          K=factor * K0, U0=1.0)
        assert lemma62_iterate(p, 200)["converged"]


def test_lemma62_threshold_homogeneous_in_C():
    K1 = lemma62_threshold(1.0, 2.0, 2.0, 3.0, 1.0)
    K2 = lemma62_threshold(2.0, 2.0, 2.0, 3.0, 1.0)
    assert K2 == pytest.approx(2.0 * K1, rel=1e-6)


def test_lemma62_threshold_zero_start_returns_range_min():
    assert lemma62_threshold(1.0, 2.0, 2.0, 3.0, 0.0,
                             K_range=(0.5, 10.0)) == 0.5
