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

from crosswalk_sim.config import ConfigError
from crosswalk_sim.core import EntrySide
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import DONE_CODE
from crosswalk_sim.pomdp import PomdpController, pomdp_step, qmdp_solve
from crosswalk_sim.simulator import (BatchState, Lane, TrialRun, TrialState,
                                     _reference_arming_gaps, gap_classes, pedestrian_walk,
                                     plant_step, plant_tick, run_batch, run_trial, tick_operands)

from edges import class_edges
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


def plant_rows():
    """A row of ``plant_step``, as ``(d, v, a)``: moving on, stopping inside the step
    (``0 < v < -a * dt`` at the default tick), or at rest (at 0.0 or -0.0, which
    the clamp at 0.0 maps to 0.0) under a braking, zero (either sign) or
    accelerating command."""
    dt = SCENARIO.dt
    d = finite(-100.0, 100.0)
    moving = st.tuples(d, finite(0.0, 30.0), st.one_of(st.sampled_from([0.0, -0.0]), commands))
    stopping = st.tuples(d, finite(0.01, 0.99), finite(-PARAMS.a_max, -0.1)).map(
        lambda row: (row[0], row[1] * -row[2] * dt, row[2]))
    resting = st.tuples(d, st.sampled_from([0.0, -0.0]),
                        st.one_of(st.sampled_from([-PARAMS.a_max, -1.0, 0.0, -0.0, 1.0]), commands))
    return st.one_of(moving, stopping, resting)


@deterministic
@given(rows=st.lists(plant_rows(), min_size=1, max_size=12))
def test_plant_step_matches_plant_tick(rows):
    # The lockstep's plant against the scalar one with no delay, row by row and bit
    # for bit (a zero's sign included), on batches that all move on and batches
    # where some row stops or stands.
    d, v, a = (np.array(column) for column in zip(*rows))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in run_batch
        v_next, d_next = plant_step(v, d, a, tick_operands(SCENARIO))
    for (d0, v0, a0), v1, d1 in zip(rows, v_next.tolist(), d_next.tolist()):
        vehicle = trial_state(d=d0, v=v0)
        plant_tick(vehicle, a0, SCENARIO.dt, [], 0)
        assert (v1.hex(), d1.hex()) == (vehicle.v.hex(), vehicle.d.hex()), (d0, v0, a0)


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


def hybrid_states():
    """An entry side, and the fields of a trial that ``HybridController.step`` reads
    or writes: every mode code, latched or not, overrun or not, the right of way
    either way, with ``d`` = ±0.0, ``v`` = 0.0 and ``d_o`` <= 0 among the draws."""
    zeros = st.sampled_from([0.0, -0.0])
    return st.tuples(sides, st.fixed_dictionaries(dict(
        d=st.one_of(zeros, finite(-20.0, 60.0)),
        v=st.one_of(st.just(0.0), finite(0.0, 15.0)), x_p=finite(-2.0, 16.0),
        xdot_p=st.one_of(zeros, finite(-2.0, 2.0)), right_of_way=st.booleans(),
        mode=st.integers(0, len(HybridController.modes) - 1),
        d_o=st.one_of(st.sampled_from([0.0, -0.0, -1.0]), finite(-20.0, 60.0)),
        v_o=st.one_of(st.just(0.0), finite(0.0, 15.0)), latched=st.booleans(),
        overrun=st.booleans())))


@deterministic
@given(params=st.sampled_from(PRESET_PARAMS),
       states=st.lists(hybrid_states(), min_size=1, max_size=20))
def test_hybrid_step_matches_step_batch(params, states):
    # One controller step on each state, row by row and bit for bit: the command and
    # every field that step or step_batch writes, for the scalar clamps and the
    # profiles' guards against the batch's _clip, np.maximum and masks.
    controller = HybridController(params, GEOMETRY, dt=SCENARIO.dt)
    def bits(values):
        return [x.hex() if type(x) is float else x for x in values]

    trials = []
    for side, fields in states:
        s = trial_state(GEOMETRY, side)
        for name, value in fields.items():
            setattr(s, name, value)
        trials.append(s)
    batch = BatchState(trials, range(len(trials)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in run_batch
        commands = controller.step_batch(batch, 1).tolist()
    written = ("mode", "d_o", "v_o", "latched", "overrun")
    for s, *row in zip(trials, commands, *(getattr(batch, name).tolist() for name in written)):
        a = controller.step(s, 1)
        assert bits(row) == bits([a, *(getattr(s, name) for name in written)])


@deterministic
@given(
    side=sides,
    near_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    far_setback=st.one_of(st.just(0.0), finite(-3.0, 8.0)),
    start_delay=st.one_of(st.just(0.0), finite(0.0, 3.0)),
    walk_speed=st.one_of(st.just(1e-300), finite(1e-300, 4.0)),
    dt=finite(0.01, 0.5),
    max_sim_time=finite(0.05, 20.0),
)
def test_pedestrian_walk_only_moves_forward(side, near_setback, far_setback, start_delay,
                                            walk_speed, dt, max_sim_time):
    # The walk, which both engines read: its phases never go back, it moves only
    # into the road at its one speed, and it ends on Done or after as many ticks
    # as a trial can run.
    gap_model = replace(SCENARIO.gap_model, near_setback=near_setback, far_setback=far_setback,
                        start_delay=start_delay, walk_speed=walk_speed)
    sc = replace(SCENARIO, entry_side=side, gap_model=gap_model, dt=dt, max_sim_time=max_sim_time)
    sgn = 1.0 if side is EntrySide.NEAR else -1.0
    walk = list(pedestrian_walk(sc))
    for (x0, _, phase0, _), (x1, xdot, phase1, _) in zip(walk, walk[1:]):
        assert phase0 <= phase1  # the codes run Waiting < Crossing < Done
        assert sgn * (x1 - x0) >= 0.0
        assert xdot in (0.0, sgn * walk_speed)
    ticks, t = 0, 0.0  # run_trial's clock, up to the timeout
    while t < max_sim_time:
        t += dt
        ticks += 1
    phases = [phase for _, _, phase, _ in walk]
    assert DONE_CODE not in phases[:-1] and len(walk) <= ticks + 1
    assert phases[-1] == DONE_CODE or len(walk) == ticks + 1


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


def grid_coordinates(grid):
    """Floats to bin on ``grid``: its half-bin points, where a bin's rounding ties,
    its ends and points beyond both, signed zeros, and floats far beyond both (not
    so far that the quotient overflows, which no trial reaches)."""
    lo, step = float(grid[0]), float(grid[1] - grid[0])
    return st.one_of(
        st.integers(-3, len(grid) + 2).map(lambda k: lo + (k + 0.5) * step),
        st.sampled_from([-0.0, 0.0, lo, float(grid[-1])]),
        finite(lo - 10.0 * step, float(grid[-1]) + 10.0 * step),
        finite(-1e300, 1e300),
    )


@deterministic
@given(preset=st.sampled_from([None, "experiment"]), data=st.data())
def test_scalar_decision_matches_the_batch_decision(preset_controllers, preset, data):
    # pomdp_step bins one state in Python floats, step_batch a batch through
    # _snap's NumPy calls: both must pick the same action, ties to even included.
    controller = preset_controllers[preset][1][1]
    model = controller.model
    s = TrialState(preset_controllers[preset][0].scenario())
    s.v = data.draw(grid_coordinates(model.v_grid), label="v")
    s.d = data.draw(grid_coordinates(model.d_grid), label="d")
    for s.right_of_way in (False, True):
        for s.a_prev_idx in range(model.n_actions):
            batch = BatchState([s], [0])
            controller.step_batch(batch, controller.hold_ticks)  # a decision tick after 0
            assert pomdp_step(controller.greedy, model, s, s.a_prev_idx) == batch.a_prev_idx[0]


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
        run = TrialRun(sc, g, controller)
        runs.append(replace(run.advance() or run.advance(), trace=None))  # on from its arm tick
        assert cls == run.arm
    for a, ca in zip(runs, classes):
        for b, cb in zip(runs, classes):
            if ca == cb:
                assert a == b


@pytest.mark.parametrize("preset", [None, "experiment"])
def test_reference_trial_ends_on_its_first_minus_inf(preset_controllers, preset):
    # After the first tick that arms every pedestrian no class can change, so
    # gap_classes' reference trace ends on it, also where the vehicle stops and
    # never passes: the experiment preset's POMDP stops on tick 294 and would
    # otherwise run to its 1201-tick timeout.
    config, controllers = preset_controllers[preset]
    for controller in controllers:
        for side in EntrySide:
            least = _reference_arming_gaps(config.scenario(side=side.value), controller)
            assert least[-1] == -math.inf and np.count_nonzero(least == -math.inf) == 1
            if preset == "experiment" and isinstance(controller, PomdpController):
                assert len(least) == 295


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


@deterministic
@given(
    dt=finite(0.01, 60.0),
    n_lanes=st.integers(1, 6),
    lane_width=finite(0.5, 10.0),
    walk_speed=finite(0.1, 10.0),
)
def test_model_kernel_is_a_distribution(dt, n_lanes, lane_width, walk_speed):
    # A pedestrian in the crosswalk stays there with probability 1 - dt / the
    # crossing time, so a decision period longer than the crossing is rejected,
    # naming dt, and every model accepted weighs each transition in [0, 1].
    config = config_with(world={"n_lanes": n_lanes, "lane_width": lane_width},
                         pedestrian={"walk_speed": walk_speed}, pomdp={"dt": dt})
    try:
        model = config.pomdp_model()
    except ConfigError as exc:
        assert str(exc).startswith("dt = ") and dt > n_lanes * lane_width / walk_speed
        return
    assert np.all((model._p_c1 >= 0.0) & (model._p_c1 <= 1.0))
