from dataclasses import fields, replace

import numpy as np
import pytest

from crosswalk_sim.config import load_config
from crosswalk_sim.core import EntrySide, PedestrianState, VehicleState
from crosswalk_sim.hybrid import HybridController, Mode
from crosswalk_sim.pomdp import PomdpController, qmdp_solve
from crosswalk_sim.simulator import (
    Lane,
    Scenario,
    TrialResult,
    make_delay_buffer,
    plant_tick,
    run_batch,
    run_trial,
    sweep_gaps,
    vehicle_pedestrian_distance,
)

ALLOWED_TRANSITIONS = {
    ("Driving", "Yielding"),
    ("Driving", "HardBraking"),
    ("Driving", "SpeedUp"),
    ("Yielding", "Driving"),
    ("HardBraking", "Driving"),
    ("SpeedUp", "Driving"),
}


class TestPlantTick:
    def test_euler_arithmetic(self):
        v = VehicleState(d=10.0, v=4.5, x_v=1.75)
        plant_tick(v, -2.0, 0.05, make_delay_buffer(0.0, 0.05))
        assert v.v == pytest.approx(4.4, abs=1e-12)
        assert 10.0 - v.d == pytest.approx(0.2225, abs=1e-12)

    def test_no_reverse_motion(self):
        v = VehicleState(d=10.0, v=0.0, x_v=1.75)
        plant_tick(v, -5.0, 0.05, make_delay_buffer(0.0, 0.05))
        assert v.v == 0.0 and v.d == 10.0

    def test_stops_exactly_within_step(self):
        v = VehicleState(d=10.0, v=0.05, x_v=1.75)
        plant_tick(v, -2.0, 0.05, make_delay_buffer(0.0, 0.05))
        assert v.v == 0.0
        assert 10.0 - v.d == pytest.approx(0.05**2 / (2 * 2.0), abs=1e-12)

    def test_zero_delay_applies_same_tick(self):
        v = VehicleState(d=10.0, v=4.0, x_v=1.75)
        plant_tick(v, 2.0, 0.05, make_delay_buffer(0.0, 0.05))
        assert v.v == pytest.approx(4.1)

    def test_delay_buffer_postpones_commands(self):
        buf = make_delay_buffer(0.5, 0.05)
        assert len(buf) == 10
        v = VehicleState(d=100.0, v=4.0, x_v=1.75)
        for _ in range(10):
            plant_tick(v, 2.0, 0.05, buf)
        assert v.v == pytest.approx(4.0)  # still coasting on the zero backlog
        plant_tick(v, 2.0, 0.05, buf)
        assert v.v == pytest.approx(4.1)

    def test_kinematic_consistency(self):
        rng = np.random.default_rng(5)
        dt, a_max = 0.05, 9.0
        v = VehicleState(d=50.0, v=4.5, x_v=1.75)
        buf = make_delay_buffer(0.0, dt)
        for _ in range(2000):
            d0, v0 = v.d, v.v
            plant_tick(v, float(rng.uniform(-a_max, 2.0)), dt, buf)
            assert abs(v.v - v0) <= a_max * dt + 1e-12
            assert abs(v.d - d0) <= (v0 + a_max * dt) * dt + 1e-12


class TestDistance:
    def test_vehicle_at_stop_point(self, geometry):
        v = VehicleState(d=0.0, v=0.0, x_v=1.75)
        p = PedestrianState(x_p=1.75, xdot_p=0.0)
        assert vehicle_pedestrian_distance(v, p, geometry) == 5.0

    def test_coincident_points(self, geometry):
        v = VehicleState(d=-5.0, v=1.0, x_v=1.75)
        p = PedestrianState(x_p=1.75, xdot_p=1.2)
        assert vehicle_pedestrian_distance(v, p, geometry) == 0.0

    def test_lateral_offset_only(self, geometry):
        v = VehicleState(d=-5.0, v=1.0, x_v=1.75)
        p = PedestrianState(x_p=5.25, xdot_p=0.0)
        assert vehicle_pedestrian_distance(v, p, geometry) == 3.5


class TestRunTrial:
    def test_gentle_gap_lane_b(self, scenario_factory):
        sc = scenario_factory(lane=Lane.B, entry_side=EntrySide.NEAR)
        r = run_trial(sc, accepted_gap_override=7.0)
        assert not r.collision and not r.timed_out
        assert r.min_distance > 4.0

    def test_tiny_gap_lane_a_no_collision(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, accepted_gap_override=1.0)
        assert not r.collision
        assert r.avg_velocity > 4.0  # passes through at speed

    def test_speed_up_band_engages(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, accepted_gap_override=1.5)
        assert "SpeedUp" in r.visited_modes()
        assert not r.collision

    def test_above_horizon_no_trigger(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        r = run_trial(sc, accepted_gap_override=10.0)
        assert r.visited_modes() == {"Driving"}
        assert r.avg_velocity == pytest.approx(4.5, rel=0.01)

    def test_mode_graph_soundness(self, scenario_factory):
        for lane in (Lane.A, Lane.B):
            for side in (EntrySide.NEAR, EntrySide.FAR):
                sc = scenario_factory(lane=lane, entry_side=side)
                for g in sweep_gaps(0.5, 0.5, 10.0):
                    r = run_trial(sc, accepted_gap_override=g)
                    modes = [m for _, m in r.mode_trace]
                    for pair in zip(modes, modes[1:]):
                        assert pair in ALLOWED_TRANSITIONS, pair

    def test_no_pedestrian_baseline_holds_speed_limit(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, initial_v=3.0)
        r = run_trial(sc, accepted_gap_override=50.0, record_trace=True)
        assert r.visited_modes() == {"Driving"}
        settled = [row[2] for row in r.trace if row[0] > 2.0 and row[1] > -5.0]
        assert all(abs(v - 4.5) <= 0.045 for v in settled)

    def test_result_invariants(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
        for g in (1.0, 2.0, 4.0, 8.0):
            r = run_trial(sc, accepted_gap_override=g)
            assert r.min_distance >= 0.0
            assert 0.0 <= r.avg_velocity <= 4.5 + 0.5
            assert r.peak_accel <= 9.0 + 1e-9

    def test_timeout_flagging(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, max_sim_time=1.0)
        r = run_trial(sc, accepted_gap_override=8.0)
        assert r.timed_out
        assert "timed_out" in r.safety_events

    def test_controller_protocol(self, scenario_factory):
        class Constant:
            label = "fake"
            safety_events = ("fake_event",)
            resets = 0

            def reset(self):
                self.resets += 1

            def step(self, vehicle, ped):
                return 0.0

        ctrl = Constant()
        r = run_trial(scenario_factory(), accepted_gap_override=10.0, controller=ctrl,
                      record_trace=True)
        assert ctrl.resets == 1
        assert not r.timed_out and not r.collision
        assert r.mode_trace == [(0.0, "fake")]
        assert {row[6] for row in r.trace} == {"fake"}
        assert r.safety_events == ["fake_event"]


class TestRunBatch:
    def test_deterministic_given_seed(self, scenario_factory):
        sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR, seed=123)
        a = run_batch(sc, n_trials=40)
        b = run_batch(sc, n_trials=40)
        assert [(r.accepted_gap, r.min_distance, r.avg_velocity) for r in a] == [
            (r.accepted_gap, r.min_distance, r.avg_velocity) for r in b
        ]

    def test_seed_offsets_vary_gaps(self, scenario_factory):
        sc = scenario_factory(seed=0)
        rs = run_batch(sc, n_trials=10)
        assert len({r.accepted_gap for r in rs}) > 1
        assert [r.seed for r in rs] == list(range(10))

    def test_sweep_values_exact(self, scenario_factory):
        sc = scenario_factory()
        values = sweep_gaps(0.5, 0.1, 10.0)
        assert len(values) == 96
        rs = run_batch(sc, gap_sweep=values)
        assert [r.accepted_gap for r in rs] == values

    @pytest.mark.parametrize("side", [EntrySide.NEAR, EntrySide.FAR])
    @pytest.mark.parametrize("max_sim_time", [60.0, 5.0])
    def test_reused_controller_matches_fresh(self, scenario_factory, params, geometry, side,
                                             max_sim_time):
        # The CLI runs every trial of a run on one controller, so reset() must
        # restore all per-trial state, also after a trial that timed out mid-mode.
        sc = scenario_factory(entry_side=side, max_sim_time=max_sim_time)
        shared = HybridController(params, geometry, dt=sc.dt)
        gaps = sweep_gaps(0.5, 0.25, 8.0)
        assert run_batch(sc, gap_sweep=gaps, controller=shared) == run_batch(sc, gap_sweep=gaps)

    def test_batch_argument_validation(self, scenario_factory):
        sc = scenario_factory()
        with pytest.raises(ValueError):
            run_batch(sc)
        with pytest.raises(ValueError):
            run_batch(sc, n_trials=5, gap_sweep=[1.0])


@pytest.fixture(scope="module", params=["default", "experiment"])
def preset_config(request):
    """The default preset, or the experiment one with its 10-tick plant delay
    and the controller's t_delay lead."""
    return load_config(preset=None if request.param == "default" else request.param, env={})


@pytest.fixture(scope="module")
def preset_policy(preset_config):
    model = preset_config.pomdp_model()
    return model, qmdp_solve(model)


def scalar_batch(sc, gaps, controller):
    """The lockstep engine's oracle: one scalar trial per seed, as run_batch seeds them."""
    return [run_trial(replace(sc, seed=sc.seed + i), g, controller) for i, g in enumerate(gaps)]


def assert_bitwise_equal(batch, scalar):
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        for f in fields(TrialResult):
            got, want = getattr(b, f.name), getattr(s, f.name)
            assert type(got) is type(want) and got == want, (s.seed, f.name, got, want)


QUADRANTS = [("A", "near"), ("A", "far"), ("B", "near"), ("B", "far")]


class TestLockstepMatchesScalar:
    """run_batch's lockstep engine against a loop of scalar run_trial, with no tolerance."""

    @pytest.fixture(params=["hybrid", "pomdp"])
    def controller(self, request, preset_config, preset_policy):
        sc = preset_config.scenario()
        if request.param == "hybrid":
            return HybridController(sc.params, sc.geometry, dt=sc.dt)
        return PomdpController(*preset_policy, sim_dt=sc.dt)

    @pytest.mark.parametrize("lane,side", QUADRANTS)
    def test_sweep_and_seeded_batch(self, preset_config, controller, lane, side):
        sc = preset_config.scenario(lane=lane, side=side)
        gaps = sweep_gaps(0.5, 0.05, 10.0)
        assert_bitwise_equal(run_batch(sc, gap_sweep=gaps, controller=controller),
                             scalar_batch(sc, gaps, controller))
        seeded = replace(sc, seed=17)
        assert_bitwise_equal(run_batch(seeded, n_trials=25, controller=controller),
                             scalar_batch(seeded, [None] * 25, controller))

    def test_sweep_reaches_hard_braking_overrun(self, preset_config):
        # So the test above covers HardBraking past the stop point (18 trials
        # on the default preset, 85 on the experiment one).
        overruns = sum("hard_braking_overrun" in r.safety_events
                       for lane, side in QUADRANTS
                       for r in run_batch(preset_config.scenario(lane=lane, side=side),
                                          gap_sweep=sweep_gaps(0.5, 0.05, 10.0)))
        assert overruns > 0

    @pytest.mark.parametrize("override", [{"max_sim_time": 5.0}, {"collision_radius": 4.0}])
    def test_timeouts_and_collisions(self, preset_config, controller, override):
        # A timeout ends every live trial on the same tick; a collision ends a
        # trial before that tick's velocity and peak-acceleration updates.
        gaps = sweep_gaps(0.5, 0.5, 10.0)
        ended = 0
        for lane, side in QUADRANTS:
            sc = replace(preset_config.scenario(lane=lane, side=side), **override)
            batch = run_batch(sc, gap_sweep=gaps, controller=controller)
            assert_bitwise_equal(batch, scalar_batch(sc, gaps, controller))
            ended += sum(r.timed_out or r.collision for r in batch)
        assert ended > 0


def test_scenario_validation(geometry, params, gap_model):
    with pytest.raises(ValueError):
        Scenario(geometry=geometry, params=params, gap_model=gap_model, dt=0.0)
