from dataclasses import replace

import pytest

from nsfourier import coupler
from nsfourier.state import Trajectory
from nsfourier.thermal import dissipation_field


def _replay_records(traj: Trajectory) -> list:
    """The records `run_simulation` appends, rebuilt by replaying
    `coupler._record` over copies of the trajectory's stored states: each
    state's velocity from its coefficients, and each step's dissipation
    field recomputed at the viscosity of the state before it, in place of
    any field the state holds."""
    partial = Trajectory(grid=traj.grid, basis=traj.basis, laws=traj.laws,
                         eps=traj.eps, delta=traj.delta)
    records = []
    for m, state in enumerate(traj.states):
        u = state.velocity(traj.basis)
        diss = None if m == 0 else dissipation_field(
            traj.states[m - 1].viscosity(traj.laws), u)
        partial.append(replace(state, diss=diss))
        records.append(coupler._record(partial, records[-1] if records else None,
                                       u))
    return records


@pytest.fixture
def replay_records():
    """`_replay_records`, for tests that build a trajectory by hand and
    need its records."""
    return _replay_records
