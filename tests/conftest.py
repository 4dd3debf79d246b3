import pytest

from nsfourier import coupler
from nsfourier.state import Trajectory
from nsfourier.thermal import dissipation_field


def _replay_records(traj: Trajectory) -> list:
    """The records `run_simulation` appends, rebuilt by replaying
    `coupler._record` over the trajectory's stored states: each state's
    velocity from its coefficients, and each step's dissipation field at
    the viscosity of the state before it."""
    partial = Trajectory(grid=traj.grid, basis=traj.basis, laws=traj.laws,
                         eps=traj.eps, delta=traj.delta)
    records = []
    for m, state in enumerate(traj.states):
        partial.append(state)
        u = state.velocity(traj.basis)
        diss = None if m == 0 else dissipation_field(
            traj.states[m - 1].viscosity(traj.laws), u)
        records.append(coupler._record(partial, records[-1] if records else None,
                                       u, diss))
    return records


@pytest.fixture
def replay_records():
    """`_replay_records`, for tests that build a trajectory by hand and
    need its records."""
    return _replay_records
