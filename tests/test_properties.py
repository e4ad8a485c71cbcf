"""Property tests for the physical invariants of the plant, controller and pedestrian,
and for the lockstep batch engine's bitwise equality with scalar trials.

Examples are derived from a fixed seed and no example database is kept, so
every run checks the same cases.
"""

import os
import tempfile
from dataclasses import replace
from pathlib import Path

# Hypothesis also caches the constants it finds in local source files under its
# storage directory, ``.hypothesis/`` in the working directory by default.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "crosswalk-sim-hypothesis")
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crosswalk_sim.core import ControllerParams, EntrySide, PedestrianState, VehicleState, WorldGeometry
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import GapAcceptanceModel, PedestrianAgent, Phase, pedestrian_tick
from crosswalk_sim.pomdp import PomdpController
from crosswalk_sim.simulator import Lane, Scenario, make_delay_buffer, plant_tick, run_batch, run_trial

PARAMS = ControllerParams()
GEOMETRY = WorldGeometry()
PHASE_ORDER = {Phase.WAITING: 0, Phase.CROSSING: 1, Phase.DONE: 2}

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


commands = finite(-PARAMS.a_max, PARAMS.a_cmf)
sides = st.sampled_from(list(EntrySide))


@deterministic
@given(
    d=finite(-100.0, 100.0),
    v=finite(0.0, 30.0),
    dt=finite(0.001, 0.5),
    pending=st.lists(commands, max_size=10),
    a=commands,
)
def test_plant_never_reverses_and_respects_braking_authority(d, v, dt, pending, a):
    buffer = make_delay_buffer(0.0, dt)
    buffer.extend(pending)
    vehicle = VehicleState(d=d, v=v, x_v=1.75)
    plant_tick(vehicle, a, dt, buffer)
    assert vehicle.v >= 0.0
    assert vehicle.d <= d
    assert abs(vehicle.v - v) <= PARAMS.a_max * dt + 1e-9


@deterministic
@given(
    params=st.sampled_from([PARAMS, ControllerParams(k_s=1.0, t_delay=0.5, v_speedlimit=7.0)]),
    states=st.lists(
        st.tuples(finite(-20.0, 60.0), finite(0.0, 15.0), finite(-2.0, 16.0),
                  finite(-2.0, 2.0), sides),
        min_size=1, max_size=20,
    ),
)
def test_hybrid_command_stays_in_envelope(params, states):
    controller = HybridController(params, GEOMETRY)
    for d, v, x_p, xdot_p, side in states:
        vehicle = VehicleState(d=d, v=v, x_v=1.75)
        a = controller.step(vehicle, PedestrianState(x_p=x_p, xdot_p=xdot_p, entry_side=side))
        assert -params.a_max <= a <= params.a_cmf


@deterministic
@given(
    side=sides,
    accepted_gap=finite(0.5, 12.0),
    d0=finite(0.0, 80.0),
    v0=finite(0.0, 10.0),
    segments=st.lists(commands, min_size=1, max_size=30),
)
def test_pedestrian_phases_only_move_forward(side, accepted_gap, d0, v0, segments):
    dt = 0.05
    agent = PedestrianAgent.spawn(GapAcceptanceModel(), GEOMETRY, side, accepted_gap)
    vehicle = VehicleState(d=d0, v=v0, x_v=1.75)
    buffer = make_delay_buffer(0.0, dt)
    rank = PHASE_ORDER[agent.phase]
    for a in segments:
        for _ in range(20):
            plant_tick(vehicle, a, dt, buffer)
            pedestrian_tick(agent, vehicle, dt)
            assert PHASE_ORDER[agent.phase] >= rank
            rank = PHASE_ORDER[agent.phase]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    params=st.sampled_from([PARAMS, ControllerParams(k_s=1.0, t_delay=0.5, v_speedlimit=7.0)]),
    lane=st.sampled_from(list(Lane)),
    side=sides,
    initial_d=finite(-10.0, 80.0),
    initial_v=finite(0.0, 12.0),
    dt=st.sampled_from([0.05, 0.125, 0.25]),
    delay_ticks=st.integers(0, 4),
    max_sim_time=finite(1.0, 20.0),
    collision_radius=finite(0.5, 3.0),
    gaps=st.lists(finite(0.5, 12.0), min_size=1, max_size=6),
    policy=st.booleans(),
)
def test_lockstep_batch_matches_scalar_trials(pomdp_model, solved_policy, params, lane, side,
                                              initial_d, initial_v, dt, delay_ticks, max_sim_time,
                                              collision_radius, gaps, policy):
    # Start states the presets never reach: stopped, already past the stop
    # point, coarse ticks, short horizons.
    sc = Scenario(geometry=GEOMETRY, params=params, gap_model=GapAcceptanceModel(), lane=lane,
                  entry_side=side, initial_d=initial_d, initial_v=initial_v, dt=dt,
                  t_delay_plant=delay_ticks * dt, max_sim_time=max_sim_time,
                  collision_radius=collision_radius)
    if policy:
        controller = PomdpController(pomdp_model, solved_policy, sim_dt=dt)
    else:
        controller = HybridController(params, GEOMETRY, dt=dt)
    assert run_batch(sc, gap_sweep=gaps, controller=controller) == [
        run_trial(replace(sc, seed=i), g, controller) for i, g in enumerate(gaps)
    ]
