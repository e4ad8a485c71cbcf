"""Property tests for the physical invariants of the plant, controller and pedestrian,
for the lockstep batch engine's bitwise equality with scalar trials, for the gap
classes it runs, and for the QMDP solver against the dense Bellman backup and
value iteration.

Examples are derived from a fixed seed and no example database is kept, yet
runs that load different modules check different cases: Hypothesis (6.155)
mixes into its draws the literal constants it mines from every local source
module loaded so far (``_get_local_constants`` in
``hypothesis/internal/conjecture/providers.py``), so a ``-k`` run, a run of
this file alone and a full-suite run each draw their own examples, with
``derandomize=True`` and ``database=None`` alike. A case that must run every
time is a plain test: ``tests/test_simulator.py``'s ``OVERRIDES`` holds the
one-tick run (``max_sim_time`` 0.05 s) that only a full-suite run drew here.
"""

import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

# Hypothesis also caches the constants it finds in local source files under its
# storage directory, ``.hypothesis/`` in the working directory by default.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "crosswalk-sim-hypothesis")
)

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from crosswalk_sim.core import EntrySide
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import WAITING_CODE, pedestrian_tick
from crosswalk_sim.pomdp import PomdpController, qmdp_solve
from crosswalk_sim.simulator import (Lane, class_edges, gap_classes, plant_tick, run_batch,
                                     run_trial)

from qmdp_reference import assert_near_value_iteration, backup_change
from states import CONFIG, SCENARIO, config_with, set_fields, trial_state

PARAMS = SCENARIO.params
GEOMETRY = SCENARIO.geometry
# The controller sections of the default and the experiment preset.
PRESET_PARAMS = [PARAMS, config_with("experiment").controller_params()]
TOL = CONFIG.pomdp["tol"]

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
    tick=st.integers(0, 100),
)
def test_plant_never_reverses_and_respects_braking_authority(d, v, dt, pending, a, tick):
    vehicle = trial_state(d=d, v=v)
    plant_tick(vehicle, a, dt, pending, tick)
    assert vehicle.v >= 0.0
    assert vehicle.d <= d
    assert abs(vehicle.v - v) <= PARAMS.a_max * dt + 1e-9


@deterministic
@given(
    params=st.sampled_from(PRESET_PARAMS),
    states=st.lists(
        st.tuples(finite(-20.0, 60.0), finite(0.0, 15.0), finite(-2.0, 16.0),
                  finite(-2.0, 2.0), sides),
        min_size=1, max_size=20,
    ),
)
def test_hybrid_command_stays_in_envelope(params, states):
    # One trial per side, each carrying its mode and latched profile from state to state.
    controller = HybridController(params, GEOMETRY, dt=SCENARIO.dt)
    trials = {side: trial_state(GEOMETRY, side) for side in EntrySide}
    for tick, (d, v, x_p, xdot_p, side) in enumerate(states):
        s = set_fields(trials[side], GEOMETRY, d=d, v=v, x_p=x_p, xdot_p=xdot_p)
        a = controller.step(s, tick)
        assert type(a) is float
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
    model = SCENARIO.gap_model
    s = trial_state(GEOMETRY, side, accepted_gap, model, d=d0, v=v0)
    rank = s.phase
    for a in segments:
        for _ in range(20):
            plant_tick(s, a, dt, [], 0)
            pedestrian_tick(s, model, dt, *s.walking_line(GEOMETRY))
            assert s.phase >= rank  # the codes run Waiting < Crossing < Done
            rank = s.phase


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    params=st.sampled_from(PRESET_PARAMS),
    quadrants=st.lists(st.tuples(st.sampled_from(list(Lane)), sides), min_size=1, max_size=4),
    initial_d=finite(-10.0, 80.0),
    initial_v=finite(0.0, 12.0),
    dt=st.sampled_from([0.05, 0.125, 0.25]),
    delay_ticks=st.integers(0, 4),
    max_sim_time=finite(1.0, 20.0),
    collision_radius=finite(0.5, 3.0),
    gaps=st.lists(finite(0.5, 12.0), min_size=1, max_size=6),
    policy=st.booleans(),
    near_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    far_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    start_delay=st.one_of(st.just(0.0), finite(0.0, 3.0)),
    walk_speed=st.one_of(st.just(1e-300), finite(1e-300, 4.0)),
)
def test_lockstep_batch_matches_scalar_trials(pomdp_model, solved_policy, params, quadrants,
                                              initial_d, initial_v, dt, delay_ticks, max_sim_time,
                                              collision_radius, gaps, policy, near_setback,
                                              far_setback, start_delay, walk_speed):
    # Start states the presets never reach: stopped, already past the stop
    # point, coarse ticks, short horizons; one batch over a random mix of
    # quadrants. The pedestrian too, whose walk run_batch reads from a table:
    # waiting inside the span (a setback of 0 or below), stepping off at once
    # or after a delay that is no whole number of ticks, and a walk that
    # outlasts the trial (1e-300 m/s).
    gap_model = replace(SCENARIO.gap_model, near_setback=near_setback, far_setback=far_setback,
                        start_delay=start_delay, walk_speed=walk_speed)
    scenarios = [replace(SCENARIO, params=params, gap_model=gap_model, lane=lane, entry_side=side,
                         initial_d=initial_d, initial_v=initial_v, dt=dt,
                         t_delay_plant=delay_ticks * dt, max_sim_time=max_sim_time,
                         collision_radius=collision_radius)
                 for lane, side in quadrants]
    if policy:
        controller = PomdpController(pomdp_model, solved_policy, sim_dt=dt)
    else:
        controller = HybridController(params, GEOMETRY, dt=dt)
    # Every field but the trace, which only run_trial records.
    assert run_batch(scenarios, gaps, controller) == [
        replace(run_trial(sc, g, controller), trace=None) for sc in scenarios for g in gaps
    ]


def is_armed(s):
    return s.delay_left >= 0.0 or s.phase != WAITING_CODE


class ArmSpy:
    """``inner``, noting the first tick whose step sees the pedestrian armed."""

    def __init__(self, inner):
        self.inner, self.modes, self.armed_at, self.last = inner, inner.modes, None, None

    def step(self, s, tick):
        if self.armed_at is None and is_armed(s):
            self.armed_at = tick
        self.last = (s, tick)
        return self.inner.step(s, tick)

    def arm_tick(self):
        """The tick on which the pedestrian armed: the one before ``armed_at``,
        else the trial's last tick if its end state is armed (no step saw it),
        else None."""
        if self.armed_at is not None:
            return self.armed_at - 1
        s, tick = self.last
        return tick if is_armed(s) else None


@pytest.fixture(scope="module")
def preset_controllers():
    """Per preset: its config and its hybrid and POMDP controllers."""
    out = {}
    for preset in (None, "experiment"):
        config = config_with(preset)
        sc, model = config.scenario(), config.pomdp_model()
        out[preset] = (config, [
            HybridController(sc.params, sc.geometry, dt=sc.dt),
            PomdpController(model, qmdp_solve(model, tol=config.pomdp["tol"]), sim_dt=sc.dt),
        ])
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    preset=st.sampled_from([None, "experiment"]),
    policy=st.integers(0, 1),
    lane=st.sampled_from(list(Lane)),
    side=sides,
    max_sim_time=st.one_of(st.none(), finite(0.05, 20.0)),
    data=st.data(),
)
def test_gap_classes_are_exact(preset_controllers, preset, policy, lane, side, max_sim_time,
                               data):
    # A gap's class is the tick on which its trial's pedestrian arms, or None if
    # it never does (a short max_sim_time ends some trials first), and trials
    # whose gaps share a class have equal results (the trace is left out, as
    # everywhere).
    # The drawn gaps: an edge, the float below it, one more gap of the edge's class
    # unless it lies above max_trigger_gap, two of the top class (above
    # max_trigger_gap and below the lowest edge), and up to three anywhere.
    config, controllers = preset_controllers[preset]
    sc, controller = config.scenario(lane=lane.value, side=side.value), controllers[policy]
    if max_sim_time is not None:
        sc = replace(sc, max_sim_time=max_sim_time)
    edges = class_edges(sc, controller)
    cut = sc.gap_model.max_trigger_gap
    gaps = [math.nextafter(cut, math.inf), *data.draw(st.lists(finite(0.5, 12.0), max_size=3))]
    armable = [j for j, e in enumerate(edges) if e <= cut]
    if armable:
        j = data.draw(st.sampled_from(armable))
        upper = edges[j - 1] if j else math.inf
        edge_gaps = [edges[j], math.nextafter(edges[j], -math.inf),
                     data.draw(st.floats(edges[j], upper, exclude_max=True))]
        gaps = edge_gaps + [math.nextafter(edges[-1], -math.inf)] + gaps
    classes = gap_classes(sc, controller, gaps)
    if armable:
        assert classes[0] != classes[1]
        assert classes[2] == classes[0] or gaps[2] > cut
    runs = []
    for g, cls in zip(gaps, classes):
        spy = ArmSpy(controller)
        runs.append(replace(run_trial(sc, g, spy), trace=None))
        assert cls == spy.arm_tick()
    for a, ca in zip(runs, classes):
        for b, cb in zip(runs, classes):
            if ca == cb:
                assert a == b


def reference_edges(sc, controller):
    """The class edges by their definition, on the reference trial as it is: the
    whole ``run_trial`` with an infinite gap and the scenario's own pedestrian,
    cut at the first stop, and the record lows of the time gap ``line / v``."""
    edges = []
    for _, d, v, *_ in run_trial(sc, math.inf, controller).trace:
        if v <= 1e-9:  # a stopped vehicle arms every pedestrian
            break
        line = d + sc.geometry.delta
        least = line / v if line > 0.0 else math.inf
        if least < (edges[-1] if edges else math.inf):
            edges.append(least)
    return edges


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    preset=st.sampled_from([None, "experiment"]),
    policy=st.integers(0, 1),
    lane=st.sampled_from(list(Lane)),
    side=sides,
    near_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    far_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    initial_v=st.one_of(st.just(0.0), finite(0.0, 12.0)),
    collision_radius=finite(0.05, 5.0),
    max_sim_time=finite(0.05, 60.0),
)
def test_class_edges_match_the_whole_reference_trial(preset_controllers, preset, policy, lane,
                                                     side, near_setback, far_setback, initial_v,
                                                     collision_radius, max_sim_time):
    # class_edges ends its reference trial early, with a pedestrian that steps
    # off at once and crosses in one tick; the edges must not change.
    config, controllers = preset_controllers[preset]
    sc = config.scenario(lane=lane.value, side=side.value)
    sc = replace(sc, initial_v=initial_v, collision_radius=collision_radius,
                 max_sim_time=max_sim_time,
                 gap_model=replace(sc.gap_model, near_setback=near_setback,
                                   far_setback=far_setback))
    assert class_edges(sc, controllers[policy]) == reference_edges(sc, controllers[policy])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n_v_bins=st.integers(2, 4),
    n_d_bins=st.integers(2, 6),
    actions=st.lists(finite(-PARAMS.a_max, PARAMS.a_cmf), min_size=2, max_size=6, unique=True),
    discount=finite(0.0, 0.95),
    data=st.data(),
)
def test_qmdp_solve_matches_dense_reference(n_v_bins, n_d_bins, actions, discount, data):
    # Small random models with arbitrary reward tables: both signs, signed zeros,
    # ties and magnitudes from subnormal to 1e6, so policy iteration meets the ties
    # and near-ties the presets never reach.
    pomdp = {"gamma": discount, "n_v_bins": n_v_bins, "n_d_bins": n_d_bins,
             "actions": ",".join(map(repr, actions))}
    model = config_with(pomdp=pomdp).pomdp_model()
    rewards = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite(-1e6, 1e6))
    model.reward_table = data.draw(arrays(np.float64, model.reward_table.shape, elements=rewards))
    table = qmdp_solve(model, tol=TOL)
    # Q is a fixed point up to the improvement step's threshold, the rounding that
    # the evaluations of the largest layer (n unknowns) can leave in V, which
    # ``qmdp_solve`` states: n·2**-50·max|r|/(1 - gamma)**2.
    n = 2 * n_v_bins * len(actions)
    scale = np.abs(model.reward_table).max() / (1.0 - discount)
    assert table.residuals == [backup_change(model, table.q)]
    assert table.residuals[0] <= n * 2.0 ** -50 * scale / (1.0 - discount)
    assert_near_value_iteration(model, table, TOL)


@deterministic
@given(
    dt=finite(0.01, 2.0),
    n_d_bins=st.integers(2, 301),
    actions=st.lists(commands, min_size=1, max_size=6, unique=True),
)
def test_model_never_raises_the_distance_bin(dt, n_d_bins, actions):
    # The plant never reverses, so neither does the model: every layer of
    # ``qmdp_solve`` reads only itself and the layers below.
    pomdp = {"dt": dt, "n_d_bins": n_d_bins, "actions": ",".join(map(repr, actions))}
    model = config_with(pomdp=pomdp).pomdp_model()
    assert np.all(model._d_next_idx <= np.arange(n_d_bins)[:, None])
