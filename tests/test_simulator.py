import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from crosswalk_sim import simulator
from crosswalk_sim.config import load_config
from crosswalk_sim.core import EntrySide
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import (CROSSING_CODE, DONE_CODE, in_crosswalk, pedestrian_tick,
                                     sample_accepted_gap)
from crosswalk_sim.pomdp import PomdpController, qmdp_solve
from crosswalk_sim.simulator import (
    BatchState,
    Lane,
    TrialResult,
    TrialRun,
    TrialState,
    pedestrian_walk,
    plan_batch,
    plant_step,
    plant_tick,
    run_batch,
    run_trial,
    seeded_gaps,
    sweep_gaps,
    tick_operands,
    vehicle_pedestrian_distance,
)

from edges import class_edges
from states import SCENARIO, config_with, trial_state

ALLOWED_TRANSITIONS = {
    ("Driving", "Yielding"),
    ("Driving", "HardBraking"),
    ("Driving", "SpeedUp"),
    ("Yielding", "Driving"),
    ("HardBraking", "Driving"),
    ("SpeedUp", "Driving"),
}


def vehicle(d, v):
    return trial_state(d=d, v=v)


class TestPlantTick:
    def test_euler_arithmetic(self):
        v = vehicle(10.0, 4.5)
        plant_tick(v, -2.0, 0.05, [0.0], 0)
        assert v.v == pytest.approx(4.4, abs=1e-12)
        assert 10.0 - v.d == pytest.approx(0.2225, abs=1e-12)

    def test_no_reverse_motion(self):
        v = vehicle(10.0, 0.0)
        plant_tick(v, -5.0, 0.05, [0.0], 0)
        assert v.v == 0.0 and v.d == 10.0

    def test_stops_exactly_within_step(self):
        v = vehicle(10.0, 0.05)
        plant_tick(v, -2.0, 0.05, [0.0], 0)
        assert v.v == 0.0
        assert 10.0 - v.d == pytest.approx(0.05**2 / (2 * 2.0), abs=1e-12)

    def test_zero_delay_applies_same_tick(self):
        v = vehicle(10.0, 4.0)
        plant_tick(v, 2.0, 0.05, [0.0], 0)
        assert v.v == pytest.approx(4.1)

    def test_delay_buffer_postpones_commands(self, scenario_factory):
        ring = [0.0] * (scenario_factory(t_delay_plant=0.5).delay_ticks() + 1)
        assert len(ring) == 11
        v = vehicle(100.0, 4.0)
        for tick in range(10):
            plant_tick(v, 2.0, 0.05, ring, tick)
        assert v.v == pytest.approx(4.0)  # still coasting on the zero backlog
        plant_tick(v, 2.0, 0.05, ring, 10)
        assert v.v == pytest.approx(4.1)

    def test_kinematic_consistency(self):
        rng = np.random.default_rng(5)
        dt, a_max = 0.05, 9.0
        v = vehicle(50.0, 4.5)
        for tick in range(2000):
            d0, v0 = v.d, v.v
            plant_tick(v, float(rng.uniform(-a_max, 2.0)), dt, [0.0], tick)
            assert abs(v.v - v0) <= a_max * dt + 1e-12
            assert abs(v.d - d0) <= (v0 + a_max * dt) * dt + 1e-12


class TestDistance:
    @staticmethod
    def distance(geometry, d, x_p):
        s = trial_state(geometry, d=d, x_p=x_p)
        return vehicle_pedestrian_distance(s, s.walking_line(geometry)[0])

    def test_vehicle_at_stop_point(self, geometry):
        assert self.distance(geometry, 0.0, 1.75) == 5.0

    def test_coincident_points(self, geometry):
        assert self.distance(geometry, -5.0, 1.75) == 0.0

    def test_lateral_offset_only(self, geometry):
        assert self.distance(geometry, -5.0, 5.25) == 3.5


class TestRunTrial:
    def test_gentle_gap_lane_b(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.B, entry_side=EntrySide.NEAR)
        r = run_trial(sc, 7.0, hybrid_for(sc))
        assert not r.collision and not r.timed_out
        assert r.min_distance > 4.0

    def test_tiny_gap_lane_a_no_collision(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, 1.0, hybrid_for(sc))
        assert not r.collision
        assert r.avg_velocity > 4.0  # passes through at speed

    def test_speed_up_band_engages(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, 1.5, hybrid_for(sc))
        assert "SpeedUp" in r.visited_modes()
        assert not r.collision

    def test_above_horizon_no_trigger(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, 10.0, hybrid_for(sc))
        assert r.visited_modes() == {"Driving"}
        assert r.avg_velocity == pytest.approx(4.5, rel=0.01)

    def test_mode_graph_soundness(self, scenario_factory, hybrid_for):
        for lane in (Lane.A, Lane.B):
            for side in (EntrySide.NEAR, EntrySide.FAR):
                sc = scenario_factory(lane=lane, entry_side=side)
                for g in sweep_gaps(0.5, 0.5, 10.0):
                    r = run_trial(sc, g, hybrid_for(sc))
                    modes = list(r.mode_trace)
                    for pair in zip(modes, modes[1:]):
                        assert pair in ALLOWED_TRANSITIONS, pair

    def test_no_pedestrian_baseline_holds_speed_limit(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, initial_v=3.0)
        r = run_trial(sc, 50.0, hybrid_for(sc))
        assert r.visited_modes() == {"Driving"}
        settled = [row[2] for row in r.trace if row[0] > 2.0 and row[1] > -5.0]
        assert all(abs(v - 4.5) <= 0.045 for v in settled)

    def test_result_invariants(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        for g in (1.0, 2.0, 4.0, 8.0):
            r = run_trial(sc, g, hybrid_for(sc))
            assert r.min_distance >= 0.0
            assert 0.0 <= r.avg_velocity <= 4.5 + 0.5
            assert r.peak_accel <= 9.0 + 1e-9

    def test_timeout_flagging(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, max_sim_time=1.0)
        r = run_trial(sc, 8.0, hybrid_for(sc))
        assert r.timed_out

    def test_controller_protocol(self, scenario_factory):
        class Constant:
            modes = ("fake", "overrun")

            def __init__(self):
                self.ticks = []

            def step(self, s, tick):
                self.ticks.append(tick)
                s.overrun = True
                return 0.0

        ctrl = Constant()
        r = run_trial(scenario_factory(), 10.0, ctrl)
        assert ctrl.ticks == list(range(len(ctrl.ticks)))  # one call per tick, from 0
        assert not r.timed_out and not r.collision
        assert r.mode_trace == ("fake",)
        assert len(r.trace) == len(ctrl.ticks) and {row[6] for row in r.trace} == {"fake"}
        assert r.overrun and not r.timed_out


class TestSeededGaps:
    def test_trial_i_draws_from_seed_plus_i(self, gap_model):
        gaps = seeded_gaps(gap_model, 123, 10)
        assert gaps == [sample_accepted_gap(gap_model, np.random.default_rng(123 + i))
                        for i in range(10)]
        assert all(type(g) is float for g in gaps)
        assert seeded_gaps(gap_model, 127, 6) == gaps[4:]


class TestSweepGaps:
    def test_stops_at_hi(self):
        assert sweep_gaps(1.0, 0.6, 2.0) == [1.0, 1.6]
        assert sweep_gaps(1.0, 0.6, 2.1999) == [1.0, 1.6]
        assert sweep_gaps(1.0, 0.6, 2.2) == [1.0, 1.6, 2.2]

    @pytest.mark.parametrize("lo,step,hi,n", [
        (0.5, 0.05, 10.0, 191), (0.5, 0.1, 10.0, 96), (0.5, 0.5, 10.0, 20), (1.0, 0.05, 1.4, 9),
        (1.0, 1.0, 1.0, 1), (7.1, 0.1, 10.0, 30), (0.1, 0.1, 0.3, 3),
    ])
    def test_step_that_divides_the_range_ends_on_hi(self, lo, step, hi, n):
        # (0.3 - 0.1) / 0.1 is 1.9999999999999998 in floats.
        values = sweep_gaps(lo, step, hi)
        assert len(values) == n and values[0] == lo and values[-1] == hi


class TestRunBatch:
    def test_deterministic_given_seed(self, scenario_factory, hybrid_for):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        gaps = seeded_gaps(sc.gap_model, 123, 40)
        a = run_batch([sc], gaps, hybrid_for(sc))
        b = run_batch([sc], seeded_gaps(sc.gap_model, 123, 40), hybrid_for(sc))
        assert len(a) == len(gaps) and a == b

    def test_seed_offsets_vary_gaps(self, scenario_factory, hybrid_for):
        sc = scenario_factory()
        gaps = seeded_gaps(sc.gap_model, 0, 10)
        rs = run_batch([sc], gaps, hybrid_for(sc))
        assert len(set(gaps)) > 1 and len({r.min_distance for r in rs}) > 1

    def test_sweep_values_exact(self, scenario_factory, hybrid_for):
        # run_batch holds no gap; the gap column of trials.csv is these values.
        sc = scenario_factory()
        values = sweep_gaps(0.5, 0.1, 10.0)
        assert values == [k / 10 for k in range(5, 101)]
        assert len(run_batch([sc], values, hybrid_for(sc))) == 96

    @pytest.mark.parametrize("side", [EntrySide.NEAR, EntrySide.FAR])
    @pytest.mark.parametrize("max_sim_time", [60.0, 5.0])
    def test_reused_controller_matches_fresh(self, scenario_factory, hybrid_for, side,
                                             max_sim_time):
        # The CLI runs every trial of a run on one controller, so it must carry
        # nothing from one batch to the next, also after trials that timed out mid-mode.
        sc = scenario_factory(entry_side=side, max_sim_time=max_sim_time)
        shared = hybrid_for(sc)
        gaps = sweep_gaps(0.5, 0.25, 8.0)
        first = run_batch([sc], gaps, shared)
        assert run_batch([sc], gaps, shared) == first == run_batch([sc], gaps, hybrid_for(sc))

    def test_batch_argument_validation(self, scenario_factory, hybrid_for):
        sc = scenario_factory()
        with pytest.raises(ValueError, match="gap"):
            run_batch([sc], [], hybrid_for(sc))
        with pytest.raises(ValueError, match="scenario"):
            run_batch([], [1.0], hybrid_for(sc))

    @pytest.mark.parametrize("change", [
        {"dt": 0.1},
        {"initial_d": 40.0},
        {"gap_model": replace(SCENARIO.gap_model, mu_gap=3.0)},
        {"t_delay_plant": 0.5},
        {"max_sim_time": 5.0},
    ])
    def test_scenarios_differ_only_in_quadrant(self, scenario_factory, hybrid_for, change):
        # One batch has one clock, one start, one gap model and one delay ring.
        sc = scenario_factory()
        other = replace(scenario_factory(lane=Lane.B, entry_side=EntrySide.FAR), **change)
        with pytest.raises(ValueError, match="lane and entry_side"):
            run_batch([sc, other], [2.0, 3.0, 4.0], hybrid_for(sc))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect, ROADMAP's Known limitation section: the hybrid "
                   "controller collides at gaps 1.05-1.3 s on the experiment preset, lane B, "
                   "far side")
def test_experiment_lane_b_far_side_sweep_has_no_collision(hybrid_for):
    sc = load_config(preset="experiment", env={}).scenario(lane="B", side="far")
    gaps = sweep_gaps(0.5, 0.05, 10.0)
    results = run_batch([sc], gaps, hybrid_for(sc))
    assert [g for g, r in zip(gaps, results, strict=True) if r.collision] == []


@pytest.fixture(scope="module", params=["default", "experiment"])
def preset_config(request):
    """The default preset, or the experiment one with its 10-tick plant delay
    and the controller's t_delay lead."""
    return load_config(preset=None if request.param == "default" else request.param, env={})


@pytest.fixture(scope="module")
def preset_policy(preset_config):
    model = preset_config.pomdp_model()
    return model, qmdp_solve(model, tol=preset_config.pomdp["tol"])


@pytest.fixture(scope="module")
def scalar_oracle():
    """The lockstep engine's oracle: one scalar trial per gap.

    Memoised per (scenario, controller kind, gaps), so the per-quadrant tests
    and the all-quadrant test run each scalar loop once. The scenario names the
    preset, and so the policy.
    """
    cache = {}

    def oracle(sc, gaps, controller):
        key = (sc, type(controller).__name__, tuple(gaps))
        if key not in cache:
            cache[key] = [run_trial(sc, g, controller) for g in gaps]
        return cache[key]

    return oracle


def assert_bitwise_equal(batch, scalar):
    """Every ``TrialResult`` field but ``trace``, which only run_trial records."""
    assert len(batch) == len(scalar)
    for i, (b, s) in enumerate(zip(batch, scalar)):
        for f in fields(TrialResult):
            if f.name != "trace":
                got, want = getattr(b, f.name), getattr(s, f.name)
                assert type(got) is type(want) and got == want, (i, f.name, got, want)


def assert_batch_matches_scalar(scenarios, gaps, controller, oracle):
    """One run_batch call over ``scenarios`` against each scenario's scalar oracle."""
    batch = run_batch(scenarios, gaps, controller)
    n = len(gaps)
    assert len(batch) == len(scenarios) * n
    for k, sc in enumerate(scenarios):
        assert_bitwise_equal(batch[k * n:(k + 1) * n], oracle(sc, gaps, controller))
    return batch


QUADRANTS = [("A", "near"), ("A", "far"), ("B", "near"), ("B", "far")]
SWEEP = sweep_gaps(0.5, 0.05, 10.0)
SEEDED = 25  # trials drawn by seeded_gaps from seed 17
COARSE = sweep_gaps(0.5, 0.5, 10.0)
# A 0.05 s run is one tick: every trial ends before any lockstep tick on the
# default preset, or on the lockstep's first tick on the experiment one, whose
# longest gaps arm on tick 0.
OVERRIDES = [{"max_sim_time": 5.0}, {"collision_radius": 4.0}, {"max_sim_time": 0.05}]
SHORT = sweep_gaps(0.05, 0.05, 1.0)  # below min_gap too: a trial takes any gap


class TestLockstepMatchesScalar:
    """run_batch's lockstep engine against a loop of scalar run_trial, with no tolerance."""

    @pytest.fixture(params=["hybrid", "pomdp"])
    def controller(self, request, preset_config, preset_policy, hybrid_for):
        sc = preset_config.scenario()
        if request.param == "hybrid":
            return hybrid_for(sc)
        return PomdpController(*preset_policy, sim_dt=sc.dt)

    @pytest.mark.parametrize("lane,side", QUADRANTS)
    def test_sweep_and_seeded_batch(self, preset_config, controller, scalar_oracle, lane, side):
        sc = preset_config.scenario(lane=lane, side=side)
        assert_batch_matches_scalar([sc], SWEEP, controller, scalar_oracle)
        assert_batch_matches_scalar([sc], seeded_gaps(sc.gap_model, 17, SEEDED), controller,
                                    scalar_oracle)

    def test_sweep_reaches_hard_braking_overrun(self, preset_config, hybrid_for):
        # So the test above covers HardBraking past the stop point (18 trials
        # on the default preset, 85 on the experiment one).
        scenarios = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        overruns = sum(r.overrun for r in run_batch(scenarios, SWEEP, hybrid_for(scenarios[0])))
        assert overruns > 0

    @pytest.mark.parametrize("override", OVERRIDES)
    def test_timeouts_and_collisions(self, preset_config, controller, scalar_oracle, override):
        # A timeout ends every live trial on the same tick; a collision ends a
        # trial before that tick's velocity and peak-acceleration updates.
        ended = 0
        for lane, side in QUADRANTS:
            sc = replace(preset_config.scenario(lane=lane, side=side), **override)
            batch = assert_batch_matches_scalar([sc], COARSE, controller, scalar_oracle)
            ended += sum(r.timed_out or r.collision for r in batch)
        assert ended > 0

    def test_all_quadrants_in_one_batch(self, preset_config, controller, scalar_oracle):
        # As the CLI runs them: every trial keeps its own entry side and lane
        # centre, on one clock, one delay ring and one set of gaps.
        quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        assert_batch_matches_scalar(quadrants, SWEEP, controller, scalar_oracle)
        assert_batch_matches_scalar(quadrants, seeded_gaps(quadrants[0].gap_model, 17, SEEDED),
                                    controller, scalar_oracle)
        # Above max_trigger_gap no gap of the default preset arms before the
        # vehicle has passed the waiting pedestrian, so the lockstep starts after
        # that, and each trial's min_distance is its quadrant's own prefix value.
        assert_batch_matches_scalar(quadrants, sweep_gaps(6.5, 0.5, 10.0), controller,
                                    scalar_oracle)
        for override in OVERRIDES:
            assert_batch_matches_scalar([replace(sc, **override) for sc in quadrants], COARSE,
                                        controller, scalar_oracle)

    def test_quadrants_whose_waiting_pedestrians_differ_in_right_of_way(
            self, preset_config, controller, scalar_oracle):
        # With no near setback a pedestrian waiting at the near curb holds the
        # right of way and one at the far curb does not. The POMDP reads it before
        # any pedestrian arms, so its near and far trials differ from the start,
        # and run_batch gives each right of way its own pre-arm run.
        quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        quadrants = [replace(sc, gap_model=replace(sc.gap_model, near_setback=0.0))
                     for sc in quadrants]
        assert [TrialState(sc).right_of_way for sc in quadrants] == [True, False, True, False]
        for gaps in (COARSE, seeded_gaps(quadrants[0].gap_model, 17, SEEDED)):
            assert_batch_matches_scalar(quadrants, gaps, controller, scalar_oracle)

    @pytest.mark.parametrize("override", [
        {}, {"t_delay_plant": 0.25}, {"t_delay_plant": 0.15}, {"max_sim_time": 30.12},
    ], ids=["own-ring", "5-tick-ring", "3-tick-ring", "timeout-mid-hold"])
    def test_pomdp_holds(self, preset_config, preset_policy, scalar_oracle, override):
        # The POMDP holds each command for 5 ticks. run_batch steps its rows on
        # every tick from the lockstep's first to the last row's end, and
        # step_batch returns the held commands on the ticks between decisions,
        # which reach the plant through the delay ring: its one slot with no
        # delay, the experiment preset's 10-tick delay, a 5-tick one or a 3-tick
        # one, whose 4-slot ring wraps inside a hold. The timeout at tick 603 of
        # 30.12 s cuts the hold from tick 600 to 3 ticks, and the experiment
        # preset's rows, at rest long before their timeout, are stepped through
        # tick 1200, their last.
        quadrants = [replace(preset_config.scenario(lane=lane, side=side), **override)
                     for lane, side in QUADRANTS]
        pomdp = PomdpController(*preset_policy, sim_dt=quadrants[0].dt)
        spy = SteppedTicks(pomdp)
        batch = run_batch(quadrants, COARSE, spy)
        n, scalar = len(COARSE), [scalar_oracle(sc, COARSE, pomdp) for sc in quadrants]
        for k, results in enumerate(scalar):
            assert_bitwise_equal(batch[k * n:(k + 1) * n], results)
        end = max(len(r.trace) for results in scalar for r in results)  # the last tick + 1
        assert spy.ticks == list(range(plan_batch(quadrants, COARSE, pomdp).start, end))
        if "max_sim_time" in override:
            assert end == 603 and any(r.timed_out for r in batch)
        elif any(r.timed_out for r in batch):  # the experiment preset's rows
            assert spy.ticks == list(range(0, 1201))

    @pytest.mark.parametrize("delay,start", [(0.5, 137), (0.15, 171)],
                             ids=["10-tick-ring", "3-tick-ring"])
    def test_pomdp_holds_from_a_start_off_the_hold(self, scalar_oracle, delay, start):
        # On the experiment preset the first class of the seed-17 gaps arms on tick
        # 137 (tick 171 with a 3-tick delay), so a POMDP-only lockstep starts inside
        # a hold: its first step_batch call returns the commands decided on tick 135
        # (170), which hold to tick 139 (174), and holds of 5 ticks follow.
        config = load_config(preset="experiment", env={})
        model = config.pomdp_model()
        quadrants = [replace(config.scenario(lane=lane, side=side), t_delay_plant=delay)
                     for lane, side in QUADRANTS]
        pomdp = PomdpController(model, qmdp_solve(model, tol=config.pomdp["tol"]),
                                sim_dt=quadrants[0].dt)
        gaps = seeded_gaps(quadrants[0].gap_model, 17, SEEDED)
        spy = SteppedTicks(pomdp)
        batch = assert_batch_matches_scalar(quadrants, gaps, spy, scalar_oracle)
        assert plan_batch(quadrants, gaps, pomdp).start == start
        assert spy.ticks == list(range(start, 1201))
        assert any(r.timed_out for r in batch)

    def test_a_collision_on_a_hold_s_first_tick(self, scenario_factory):
        # A held command of 1 m/s² on ticks 0-4, then 3 m/s² from tick 5, and a
        # 24.1 m radius that the vehicle, 25 m from the pedestrian at the start
        # and arming it at once, first reaches on tick 5: the colliding tick's
        # acceleration, the first at 3 m/s², counts in neither peak.
        class Scripted:
            modes = ("scripted",)

            def __init__(self):
                self.ticks = []

            def step(self, s, tick):
                return 1.0 if tick < 5 else 3.0

            def step_batch(self, s, tick):
                self.ticks.append(tick)
                return np.full(len(s.v), self.step(s, tick))

        sc = scenario_factory(initial_d=20.0, collision_radius=24.1)
        held = Scripted()
        scalar = run_trial(sc, 6.0, held)
        assert scalar.collision and len(scalar.trace) == 6
        assert scalar.peak_accel < 1.5 < scalar.trace[-1][4]
        assert_bitwise_equal(run_batch([sc], [6.0], held), [scalar])
        assert held.ticks == list(range(6))  # every tick, the colliding one included


@pytest.fixture(params=["hybrid", "pomdp"])
def preset_controller(request, preset_config, preset_policy, hybrid_for):
    sc = preset_config.scenario()
    if request.param == "hybrid":
        return hybrid_for(sc)
    return PomdpController(*preset_policy, sim_dt=sc.dt)


def edge_gaps(sc, controller, stride):
    """Every ``stride``-th class edge of ``sc`` at or below ``max_trigger_gap``, and
    the last one, each with the floats on either side of it."""
    edges = [e for e in class_edges(sc, controller) if e <= sc.gap_model.max_trigger_gap]
    return [g for e in edges[::stride] + edges[-1:]
            for g in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]


class TestLockstepClassEdges:
    """run_batch's gap classes against the scalar oracle where two classes meet."""

    @pytest.mark.parametrize("lane,side", QUADRANTS)
    def test_edges_and_trigger_cut(self, preset_config, preset_controller, scalar_oracle, lane,
                                   side):
        sc = preset_config.scenario(lane=lane, side=side)
        cut = sc.gap_model.max_trigger_gap
        gaps = edge_gaps(sc, preset_controller, 8) + [cut, math.nextafter(cut, math.inf)]
        assert_batch_matches_scalar([sc], gaps, preset_controller, scalar_oracle)

    @pytest.mark.parametrize("override", OVERRIDES)
    def test_zero_start_delay(self, preset_config, preset_controller, scalar_oracle, override):
        # The pedestrian moves on the tick it arms, before that tick's distance
        # check, so one that arms on the tick a reference trial collides escapes
        # that collision. The short gaps arm close to the vehicle. A radius of
        # 4 m reaches a waiting pedestrian in some quadrants only.
        for lane, side in QUADRANTS:
            sc = replace(preset_config.scenario(lane=lane, side=side), **override)
            sc = replace(sc, gap_model=replace(sc.gap_model, start_delay=0.0))
            gaps = edge_gaps(sc, preset_controller, 16) + SHORT + COARSE
            assert_batch_matches_scalar([sc], gaps, preset_controller, scalar_oracle)

    @pytest.mark.parametrize("override", OVERRIDES)
    def test_edges_under_timeouts_and_collisions(self, preset_config, preset_controller,
                                                 scalar_oracle, override):
        # A radius of 4 m reaches a waiting pedestrian, so a reference trial can
        # end in a collision before it arms; 5 s can end it in a timeout.
        for lane, side in QUADRANTS:
            sc = replace(preset_config.scenario(lane=lane, side=side), **override)
            gaps = edge_gaps(sc, preset_controller, 16) + COARSE[::4]  # 5 s may reach no edge
            assert_batch_matches_scalar([sc], gaps, preset_controller, scalar_oracle)

    def test_duplicate_gaps(self, preset_config, preset_controller, scalar_oracle):
        quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        edge = edge_gaps(quadrants[0], preset_controller, 1)[1]
        gaps = [3.0, 2.0, 3.0, edge, 3.0, edge, 11.0, 2.0, 11.0]
        batch = assert_batch_matches_scalar(quadrants, gaps, preset_controller, scalar_oracle)
        # One result per lockstep row, shared by its class's trials and immutable.
        n, total = len(gaps), 0
        for k, arms in enumerate(plan_batch(quadrants, gaps, preset_controller).classes):
            classes = len(set(arms))
            assert len({id(r) for r in batch[k * n:(k + 1) * n]}) == classes < n
            total += classes
        assert len({id(r) for r in batch}) == total
        with pytest.raises(FrozenInstanceError):
            batch[0].collision = True
        assert all(type(r.mode_trace) is tuple for r in batch)


@pytest.mark.parametrize("side", list(EntrySide))
def test_pedestrian_walk_ends_on_done_or_on_the_last_tick(scenario_factory, hybrid_for, side):
    # A walk reaches the far curb and ends on Done. At 1e-300 m/s it never does,
    # and ends after as many ticks as a trial that times out runs: no row reads
    # further, and an uncapped walk would never end.
    sc = scenario_factory(entry_side=side)
    walk = list(pedestrian_walk(sc))
    assert [phase for _, _, phase, _ in walk].index(DONE_CODE) == len(walk) - 1
    slow = replace(sc, max_sim_time=5.0, gap_model=replace(sc.gap_model, walk_speed=1e-300))
    trial = run_trial(slow, math.inf, hybrid_for(slow))
    assert trial.timed_out
    assert len(list(pedestrian_walk(slow))) == len(trial.trace) + 1 < len(walk)


class RightOfWaySpy:
    """``inner``, checking on every step that the trial's ``right_of_way`` is
    ``in_crosswalk`` of its pedestrian, and collecting the values it saw."""

    def __init__(self, inner, geometry):
        self.inner, self.modes, self.geometry, self.seen = inner, inner.modes, geometry, set()

    def step(self, s, tick):
        assert s.right_of_way is in_crosswalk(s, self.geometry), tick
        self.seen.add(s.right_of_way)
        return self.inner.step(s, tick)


@pytest.mark.parametrize("side", list(EntrySide))
def test_right_of_way_is_in_crosswalk_after_every_tick(scenario_factory, hybrid_for, pomdp_model,
                                                       solved_policy, side):
    # The engines set right_of_way wherever they write the pedestrian, and the
    # controllers read it: on every scalar tick (the trial's start and end
    # state included) and on every walk entry, which the lockstep reads. A
    # setback of 0 or below starts the pedestrian inside the span.
    seen = set()
    for setback, start_delay in [(2.5, 0.2), (0.0, 0.0), (-1.0, 0.2)]:
        model = replace(scenario_factory().gap_model, near_setback=setback, far_setback=setback,
                        start_delay=start_delay)
        sc = scenario_factory(entry_side=side, gap_model=model)
        for controller in (hybrid_for(sc), PomdpController(pomdp_model, solved_policy, sim_dt=sc.dt)):
            for gap in (1.0, 4.0, math.inf):
                spy = RightOfWaySpy(controller, sc.geometry)
                run = TrialRun(sc, gap, spy)
                run.advance() or run.advance()  # a second call runs on from its arm tick
                assert run.s.right_of_way is in_crosswalk(run.s, sc.geometry)
                seen |= spy.seen
        for x_p, xdot_p, _, right_of_way in pedestrian_walk(sc):
            s = TrialState(sc)
            s.x_p, s.xdot_p = x_p, xdot_p
            assert right_of_way is in_crosswalk(s, sc.geometry)
    assert seen == {False, True}


@pytest.mark.parametrize("side", list(EntrySide))
def test_scalar_tick_calls_each_per_tick_layer(monkeypatch, side):
    # perfbench's traced layers wrap these names where the scalar tick looks them up,
    # in the module or the class, so each must be called on every tick it serves:
    # inlined into the loop, a layer's traced count would read 0.
    sc = replace(config_with("experiment").scenario(), entry_side=side)
    calls = dict.fromkeys(["plant_tick", "step", "vehicle_pedestrian_distance",
                           "pedestrian_tick"], 0)
    for owner, name in ((simulator, "plant_tick"), (HybridController, "step"),
                        (simulator, "vehicle_pedestrian_distance"), (simulator, "pedestrian_tick")):
        def counted(*args, fn=getattr(owner, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    trace = run_trial(sc, 2.0, HybridController(sc.params, sc.geometry, dt=sc.dt)).trace
    # pedestrian_tick runs on the walk's crossing ticks, the ones on which the
    # pedestrian moves: after the step-off latency, up to and including Done.
    x_p = [TrialState(sc).x_p] + [row[5] for row in trace]
    crossing = sum(x1 != x0 for x0, x1 in zip(x_p, x_p[1:]))
    assert 0 < crossing < len(trace)
    assert calls == {"plant_tick": len(trace), "step": len(trace),
                     "vehicle_pedestrian_distance": len(trace) + 1, "pedestrian_tick": crossing}


def test_lockstep_runs_from_the_first_arm_tick_to_the_last_trial_end(
        monkeypatch, scenario_factory, hybrid_for, pomdp_model, solved_policy):
    # compare's batch on seed-1 gaps: both controllers, all quadrants, 250 gaps.
    # Before the first tick on which a class arms, every trial of a group is its
    # scalar prefix, so the lockstep ticks only from there to the longest trial's
    # end (its last tick + 1 - 124 = 586 ticks, not 710). The POMDP block is
    # stepped on each of them.
    # Each tick calls plant_step once on the live blocks' rows: every row while
    # a hybrid row is live, then the POMDP rows alone.
    quadrants = [scenario_factory(lane=Lane(lane), entry_side=EntrySide(side))
                 for lane, side in QUADRANTS]
    pomdp = PomdpController(pomdp_model, solved_policy, sim_dt=quadrants[0].dt)
    controllers = (hybrid_for(quadrants[0]), pomdp)
    stepped = SteppedTicks(pomdp)
    gaps = seeded_gaps(quadrants[0].gap_model, 1, 250)
    rows = []  # each plant_step call's row count
    monkeypatch.setattr(simulator, "plant_step",
                        lambda v, d, a, k: (rows.append(len(v)), plant_step(v, d, a, k))[1])
    run_batch(quadrants, gaps, controllers[0], stepped)
    plan = plan_batch(quadrants, gaps, *controllers)
    start, n = plan.start, len(quadrants)
    # Each controller's longest trial; one gap of each class stands for the class.
    hybrid_end, end = (max(len(run_trial(sc, gap, c).trace)
                           for sc, arms in zip(quadrants, plan.classes[j * n:(j + 1) * n])
                           for gap in {arm: g for g, arm in zip(gaps, arms)}.values())
                       for j, c in enumerate(controllers))
    pomdp_rows = sum(len(set(arms)) for arms in plan.classes[n:])
    n_ticks = hybrid_end - start  # the ticks on which a hybrid row is live
    assert stepped.ticks == list(range(start, end))
    assert rows == [max(rows)] * n_ticks + [pomdp_rows] * (end - hybrid_end)
    assert max(rows) > pomdp_rows
    assert (start, len(rows)) == (124, 586)
    assert (n_ticks, len(rows) - n_ticks) == (424, 162)


@pytest.mark.parametrize("max_sim_time, start", [(60.0, 235), (0.05, 0)])
def test_a_quadrant_that_ends_before_the_first_arm_tick(scenario_factory, hybrid_for, pomdp_model,
                                                        solved_policy, max_sim_time, start):
    # A pedestrian waiting 0.5 m before the near curb is within 3 m of the
    # hybrid's vehicle as it passes in lane A, so with gaps no time gap arms
    # that trial collides before its pedestrian arms, and before the pedestrians
    # of the other quadrants arm (the vehicle stopped or passed). The lockstep
    # starts on that trial's last tick, 235, so every group's prefix stops there
    # and every row starts live. With max_sim_time 0.05 s every trial times out
    # after tick 0, before any pedestrian arms, and the lockstep starts on tick 0.
    model = replace(scenario_factory().gap_model, near_setback=0.5)
    quadrants = [scenario_factory(lane=Lane(lane), entry_side=EntrySide(side), gap_model=model,
                                  collision_radius=3.0, max_sim_time=max_sim_time)
                 for lane, side in QUADRANTS]
    controllers = (hybrid_for(quadrants[0]),
                   PomdpController(pomdp_model, solved_policy, sim_dt=quadrants[0].dt))
    gaps = [10.5, 11.0, 12.0]
    plan = plan_batch(quadrants, gaps, *controllers)
    assert plan.start == start
    assert all(run.tick == plan.start for run in plan.prefixes)
    references = [run_trial(sc, math.inf, c) for c in controllers for sc in quadrants]
    last = [len(ref.trace) - 1 for ref in references]
    assert min(last) == start
    assert all(ref.collision if max_sim_time > 1 else ref.timed_out
               for ref, tick in zip(references, last) if tick == start)
    assert_bitwise_equal(run_batch(quadrants, gaps, *controllers),
                         [run_trial(sc, g, c) for c in controllers for sc in quadrants
                          for g in gaps])


@pytest.mark.parametrize("first", range(len(QUADRANTS)))
def test_a_quadrant_that_collides_before_it_arms_has_its_own_pre_arm_run(
        scenario_factory, hybrid_for, pomdp_model, solved_policy, first):
    # The batch above with each quadrant first in turn. run_batch runs the first
    # quadrant's reference trial for every quadrant whose waiting pedestrian has
    # the same right of way, so the lane-A near-side trial, which collides before
    # it arms, must get a run of its own whether it is that first quadrant or not.
    # The other three share one: its lead's reference does not collide, and none
    # of them comes within 3 m of its own pedestrian along it.
    model = replace(scenario_factory().gap_model, near_setback=0.5)
    quadrants = [scenario_factory(lane=Lane(lane), entry_side=EntrySide(side), gap_model=model,
                                  collision_radius=3.0)
                 for lane, side in QUADRANTS[first:] + QUADRANTS[:first]]
    controllers = (hybrid_for(quadrants[0]),
                   PomdpController(pomdp_model, solved_policy, sim_dt=quadrants[0].dt))
    gaps = [10.5, 11.0, 12.0]
    assert_bitwise_equal(run_batch(quadrants, gaps, *controllers),
                         [run_trial(sc, g, c) for c in controllers for sc in quadrants
                          for g in gaps])
    near_a = quadrants.index(scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR,
                                              gap_model=model, collision_radius=3.0))
    others = tuple(k for k in range(len(quadrants)) if k != near_a)
    groups = [(near_a,), others] if near_a == 0 else [others, (near_a,)]  # in their leads' order
    assert plan_batch(quadrants, gaps, *controllers).groups == tuple(
        (j, members) for j in range(len(controllers)) for members in groups)


def test_the_plan_groups_quadrants_by_the_right_of_way(preset_config, preset_policy, hybrid_for):
    # Until its pedestrian arms, a controller reads it only through right_of_way,
    # so under each controller the quadrants whose waiting pedestrians hold the
    # same one share one pre-arm run: on both presets, where no waiting pedestrian
    # holds it, all four; with no near setback, the near ones (A, B) and the far
    # ones. Were each quadrant its own group, every output would stay the same.
    quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
    controllers = (hybrid_for(quadrants[0]),
                   PomdpController(*preset_policy, sim_dt=quadrants[0].dt))
    assert plan_batch(quadrants, COARSE, *controllers).groups == (
        (0, (0, 1, 2, 3)), (1, (0, 1, 2, 3)))
    quadrants = [replace(sc, gap_model=replace(sc.gap_model, near_setback=0.0))
                 for sc in quadrants]
    assert plan_batch(quadrants, COARSE, *controllers).groups == (
        (0, (0, 2)), (0, (1, 3)), (1, (0, 2)), (1, (1, 3)))


def test_a_pedestrian_who_steps_away_on_the_first_lockstep_tick(scenario_factory):
    # A pedestrian waiting 3 m past the near curb, beyond lane A's centre, with no
    # step-off latency, and a vehicle that holds its speed: the 0.05 s gap arms
    # 0.1 m before the walking line, on the lockstep's first tick, and the
    # pedestrian steps away from the lane on that tick. Had it still been waiting,
    # its distance on that tick would be below the trial's min_distance, so the
    # pre-arm min_distance must stop at the tick before.
    class Cruise:
        modes = ("cruise",)

        def step(self, s, tick):
            return 0.0

        def step_batch(self, s, tick):
            return np.zeros(len(s.v))

    model = replace(scenario_factory().gap_model, near_setback=-3.0, start_delay=0.0)
    sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, gap_model=model)
    cruise = Cruise()
    scalar = run_trial(sc, 0.05, cruise)
    start = plan_batch([sc], [0.05], cruise).start
    waiting = TrialState(sc)
    waiting.d = scalar.trace[start][1]  # the vehicle after tick ``start``
    assert waiting.x_p > waiting.x_v and 0.0 < waiting.walking_line(sc.geometry)[0] < 0.2
    assert waiting.distance(waiting.walking_line(sc.geometry)[0]) < scalar.min_distance
    assert_bitwise_equal(run_batch([sc], [0.05], cruise), [scalar])


@pytest.mark.parametrize("lane,side", QUADRANTS)
def test_reference_trial_ends_as_the_vehicle_clears_the_stripe(monkeypatch, scenario_factory,
                                                               hybrid_for, pomdp_model,
                                                               solved_policy, lane, side):
    # On the default preset both controllers' vehicles pass, so plan_batch's
    # reference trial, the infinite-gap trial, arms once the vehicle has cleared
    # the stripe and stops on that tick: after 256 ticks (hybrid) and 432 (POMDP),
    # where run to its end, with the pedestrian walking, it takes 534 and 710.
    after_tick = []  # the vehicle's d after each plant tick
    monkeypatch.setattr(simulator, "plant_tick",
                        lambda s, *args: (plant_tick(s, *args), after_tick.append(s.d)))
    sc = scenario_factory(lane=Lane(lane), entry_side=EntrySide(side))
    for controller in (hybrid_for(sc), PomdpController(pomdp_model, solved_policy, sim_dt=sc.dt)):
        after_tick.clear()
        assert class_edges(sc, controller)
        passing = next(t for t, d in enumerate(after_tick, 1) if d + sc.geometry.delta <= 0.0)
        assert len(after_tick) - passing <= 15


@pytest.mark.parametrize("lane,side", QUADRANTS)
def test_a_run_stops_after_its_arm_tick(preset_config, preset_controller, lane, side):
    # A TrialRun stops after the tick its pedestrian arms on, the one its gap
    # decides, unless the trial ends first; a second advance resumes there and
    # gives run_trial's result, trace included. An ended run holds its last tick.
    sc = preset_config.scenario(lane=lane, side=side)
    stopped = 0
    for gap in COARSE + [math.inf]:
        run = TrialRun(sc, gap, preset_controller)
        result = run.advance()
        if result is None:
            stopped += 1
            assert run.arm is not None and run.tick == run.arm + 1 == len(run.trace)
            result = run.advance()
        assert run.tick == len(result.trace) and run.t == result.trace[-1][0]
        assert run.min_distance == result.min_distance
        want = run_trial(sc, gap, preset_controller)
        assert_bitwise_equal([result], [want])
        assert result.trace == want.trace
    assert stopped > len(COARSE) // 2


def test_quadrants_agree_until_the_pedestrian_arms(preset_config, preset_controller):
    # Until its pedestrian arms, a controller reads it only through right_of_way,
    # False for a pedestrian waiting on either side of the presets. So the four
    # quadrants' infinite-gap trials, which run_batch groups into one pre-arm run,
    # arm on one tick and agree up to it in every trace column but x_p: t, d, v,
    # a_cmd, a_actual and the mode. (A TrialRun's trace to its arm tick is
    # run_trial's; test_a_run_stops_after_its_arm_tick pins that.)
    runs = [TrialRun(preset_config.scenario(lane=lane, side=side), math.inf, preset_controller)
            for lane, side in QUADRANTS]
    for run in runs:
        assert not TrialState(run.scenario).right_of_way
        assert run.advance() is None  # stopped after its arm tick
    assert len({run.arm for run in runs}) == 1
    traces = [[row[:5] + row[6:] for row in run.trace] for run in runs]
    assert all(trace == traces[0] for trace in traces[1:])


class SteppedTicks:
    """``inner``, recording each tick at which ``run_batch`` steps its rows."""

    def __init__(self, inner):
        self.inner, self.modes, self.ticks = inner, inner.modes, []

    def step(self, s, tick):
        return self.inner.step(s, tick)

    def step_batch(self, s, tick):
        self.ticks.append(tick)
        return self.inner.step_batch(s, tick)


class TestOneCallForEveryController:
    """run_batch over several controllers against one call per controller, with no
    tolerance: one clock for every row must not couple the controllers' trials."""

    @pytest.fixture
    def hybrid_and_pomdp(self, preset_config, preset_policy, hybrid_for):
        sc = preset_config.scenario()
        return hybrid_for(sc), PomdpController(*preset_policy, sim_dt=sc.dt)

    @pytest.mark.parametrize("override", [{}, *OVERRIDES],
                             ids=["plain", "timeout", "collision", "one-tick"])
    def test_equals_one_call_per_controller(self, preset_config, hybrid_and_pomdp, override):
        # A timeout ends every block on one tick; a collision ends a row before
        # that tick's velocity and peak-acceleration updates.
        quadrants = [replace(preset_config.scenario(lane=lane, side=side), **override)
                     for lane, side in QUADRANTS]
        gaps = SWEEP + seeded_gaps(quadrants[0].gap_model, 17, SEEDED)
        alone = [run_batch(quadrants, gaps, c) for c in hybrid_and_pomdp]
        if override:
            ended = "timed_out" if "max_sim_time" in override else "collision"
            assert all(any(getattr(r, ended) for r in results) for results in alone)
        for order in ([0, 1], [1, 0]):
            merged = run_batch(quadrants, gaps, *(hybrid_and_pomdp[j] for j in order))
            assert_bitwise_equal(merged, [r for j in order for r in alone[j]])

    def test_a_finished_block_is_not_stepped(self, preset_config, hybrid_and_pomdp):
        # The hybrid rows finish long before the POMDP rows, so the merged call
        # runs ticks on which only the POMDP block is stepped. From the lockstep's
        # first tick, the first on which a class arms, each block, merged or
        # alone, is stepped on every tick to its own last row's end.
        quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        alone = [SteppedTicks(c) for c in hybrid_and_pomdp]
        expected = [r for c in alone for r in run_batch(quadrants, SWEEP, c)]
        merged = [SteppedTicks(c) for c in hybrid_and_pomdp]
        assert_bitwise_equal(run_batch(quadrants, SWEEP, *merged), expected)

        start = plan_batch(quadrants, SWEEP, *hybrid_and_pomdp).start
        own_starts = [plan_batch(quadrants, SWEEP, c).start for c in hybrid_and_pomdp]
        (hybrid_own, pomdp_own), (hybrid, pomdp) = ([c.ticks for c in spies]
                                                    for spies in (alone, merged))
        assert hybrid_own == list(range(own_starts[0], hybrid[-1] + 1))
        assert hybrid == list(range(start, hybrid[-1] + 1))
        assert pomdp_own == list(range(own_starts[1], pomdp[-1] + 1))
        assert pomdp == list(range(start, pomdp[-1] + 1))
        assert hybrid[-1] + 100 < pomdp[-1]

    def test_a_finished_block_between_two_live_ones(self, preset_config, hybrid_and_pomdp):
        # In the order (pomdp, hybrid, pomdp) the hybrid block finishes first, and
        # the ticks after it run a window with a finished block in its middle. Each
        # row's mode trace takes its own controller's labels.
        quadrants = [preset_config.scenario(lane=lane, side=side) for lane, side in QUADRANTS]
        gaps = SWEEP + seeded_gaps(quadrants[0].gap_model, 17, SEEDED)
        alone = [run_batch(quadrants, gaps, c) for c in hybrid_and_pomdp]
        order = [1, 0, 1]
        spies = [SteppedTicks(hybrid_and_pomdp[j]) for j in order]
        merged = run_batch(quadrants, gaps, *spies)
        assert_bitwise_equal(merged, [r for j in order for r in alone[j]])
        assert spies[1].ticks[-1] < spies[0].ticks[-1] == spies[2].ticks[-1]

    def test_rows_are_views(self, scenario_factory):
        s = BatchState([TrialState(scenario_factory())], [0] * 5)
        view = s.rows(1, 4)
        for name in TrialState.__slots__:
            field = getattr(view, name)
            assert field.base is not None and np.shares_memory(field, getattr(s, name)), name
            assert len(field) == 3
        view.mode[:] = 2
        assert s.mode.tolist() == [0, 2, 2, 2, 0]
        # run_batch writes the plant's d and v in place, so a view made before sees them.
        d, v = s.d.copy(), s.v.copy()
        s.v[:], s.d[:] = plant_step(s.v, s.d, np.full(5, -1.0), tick_operands(scenario_factory()))
        assert (s.d < d).all() and (s.v < v).all()
        assert view.d.tolist() == s.d[1:4].tolist() and view.v.tolist() == s.v[1:4].tolist()

    def test_needs_a_controller(self, scenario_factory):
        with pytest.raises(ValueError, match="controller"):
            run_batch([scenario_factory()], [2.0])


@pytest.mark.parametrize("scalar", [True, False], ids=["run_trial", "run_batch"])
def test_controllers_cannot_read_gap(scenario_factory, scalar):
    # run_batch's gap classes rely on it: only the engine's arm test reads a
    # trial's gap, and neither a TrialState nor a BatchState holds one.
    class Reader:
        """Holds the vehicle's speed, reading the gap in the engine's own step:
        run_batch's reference trials and prefixes call ``step`` too."""

        modes = ("reader",)

        def step(self, s, tick):
            return 0.0 * s.gap if scalar else 0.0

        def step_batch(self, s, tick):
            return 0.0 * s.gap

    sc = scenario_factory()
    with pytest.raises(AttributeError, match="gap"):
        run_trial(sc, 2.0, Reader()) if scalar else run_batch([sc], [2.0], Reader())


class TestBatchIdentities:
    """The exact rewrites that ``TrialState`` makes of the paper's per-side and
    vehicle-position tests, checked element by element against those tests as
    written here, in their branchy paper form: ``walking_line`` and the distance,
    which both engines run, on floats and on arrays; ``in_crosswalk`` and
    ``pedestrian_tick``'s done test, which only the walk runs, on floats."""

    SIDES = (EntrySide.NEAR, EntrySide.FAR)

    @pytest.fixture
    def batch(self, scenario_factory):
        # One element per (side, value): the near-side trials, then the far-side ones.
        def make(values):
            scenarios = [scenario_factory(entry_side=side) for side in self.SIDES]
            s = BatchState([TrialState(sc) for sc in scenarios],
                           [k for k in range(len(scenarios)) for _ in values])
            sides = [side for side in self.SIDES for _ in values]
            return s, sides, [*values, *values]

        return make

    @staticmethod
    def positions(width):
        return [0.0, 1e-300, -1e-300, width, np.nextafter(width, np.inf),
                np.nextafter(width, -np.inf), 7.0, -2.5, width + 0.25, 1.75]

    @staticmethod
    def scalar(geometry, side, **values):
        return trial_state(geometry, side, **values)

    @staticmethod
    def paper_in_crosswalk(geometry, side, x_p, xdot_p):
        # The progress from the entry-side curb and the speed into the road.
        near = side is EntrySide.NEAR
        c = x_p if near else geometry.roadway_width - x_p
        cdot = xdot_p if near else -xdot_p
        return 0.0 <= c <= geometry.x_f or (cdot > 0.0 and c < geometry.x_f)

    def test_in_crosswalk_span_coord(self, geometry):
        # 1.0 * x + 0.0 == x (near) and W + (-1.0 * x) == W - x (far): standing
        # still, a pedestrian holds the vehicle exactly while 0 <= c <= x_f.
        width = geometry.roadway_width
        cases = [(side, float(x), xdot) for side in self.SIDES
                 for x in self.positions(width) for xdot in (0.0, -0.0)]
        want = [self.paper_in_crosswalk(geometry, *case) for case in cases]
        assert [in_crosswalk(self.scalar(geometry, side, x_p=x, xdot_p=xdot), geometry)
                for side, x, xdot in cases] == want
        assert any(want) and not all(want)

    def test_in_crosswalk_span_speed(self, geometry):
        # Before the span (c < 0), only the speed into the road, sgn * xdot_p > 0,
        # decides: xdot_p near side and -xdot_p far side.
        width = geometry.roadway_width
        before = [(EntrySide.NEAR, -2.5), (EntrySide.NEAR, -1e-300), (EntrySide.FAR, width + 0.25),
                  (EntrySide.FAR, float(np.nextafter(width, np.inf)))]
        cases = [(side, x, xdot) for side, x in before
                 for xdot in (1.2, -1.2, 0.0, -0.0, 1e-300, -1e-300)]
        want = [self.paper_in_crosswalk(geometry, *case) for case in cases]
        assert [in_crosswalk(self.scalar(geometry, side, x_p=x, xdot_p=xdot), geometry)
                for side, x, xdot in cases] == want
        assert want == [(xdot if side is EntrySide.NEAR else -xdot) > 0.0
                        for side, x, xdot in cases]

    def test_done_test_of_pedestrian_tick(self, geometry, gap_model):
        # sgn * x_p > lim is x_p > W (near) and -x_p > 0.0, so x_p < 0.0 (far).
        # pedestrian_tick with xdot_p = 0.0 leaves x_p in place and applies its done test.
        width = geometry.roadway_width
        cases = [(side, float(x)) for side in self.SIDES for x in self.positions(width)]
        want = [x > width if side is EntrySide.NEAR else x < 0.0 for side, x in cases]
        assert any(want) and not all(want)
        done = []
        for side, x in cases:
            p = self.scalar(geometry, side, x_p=x, phase=CROSSING_CODE)
            pedestrian_tick(p, gap_model, 0.05)
            assert p.x_p == x
            done.append(p.phase == DONE_CODE)
        assert done == want

    def test_walking_line_matches_vehicle_is_past(self, batch, geometry):
        # The vehicle's y is -(d + delta), and it is past once y > depth / 2 + 1.
        edge = -(geometry.delta + geometry.crosswalk_depth / 2.0 + 1.0)
        ds = [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf), edge + 1e-15,
              edge - 1e-15, -geometry.delta, 0.0, -1e-300, 50.0, -100.0]
        s, sides, ds = batch(ds)
        s.d = np.array(ds)
        line, past = s.walking_line(geometry)
        want_past = [-(d + geometry.delta) > geometry.crosswalk_depth / 2.0 + 1.0 for d in ds]
        assert past.tolist() == want_past
        assert line.tolist() == [-(-(d + geometry.delta)) for d in ds]
        assert any(past) and not all(past)
        assert [self.scalar(geometry, side, d=float(d)).walking_line(geometry)
                for d, side in zip(ds, sides)] == list(zip(line.tolist(), want_past))

    def test_distance_matches_scalar(self, batch, geometry):
        s, sides, ds = batch([-geometry.delta, 0.0, 50.0, -7.5, 1e-300, 3.3])
        s.d = np.array(ds)
        s.x_p = np.linspace(-2.5, geometry.roadway_width + 0.25, len(ds))
        want = []
        for d, x_p, side in zip(ds, s.x_p.tolist(), sides):
            p = self.scalar(geometry, side, d=d, x_p=x_p)
            want.append(vehicle_pedestrian_distance(p, p.walking_line(geometry)[0]))
            dx, dy = x_p - p.x_v, 0.0 - (-(d + geometry.delta))  # the paper form
            assert want[-1] == math.sqrt(dx * dx + dy * dy)
        assert [x.hex() for x in s.distance(s.walking_line(geometry)[0]).tolist()] == \
            [x.hex() for x in want]


def test_scenario_validation(scenario_factory):
    with pytest.raises(ValueError):
        scenario_factory(dt=0.0)
