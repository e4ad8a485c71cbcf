from dataclasses import replace

import numpy as np
import pytest

from crosswalk_sim.core import EntrySide
from crosswalk_sim.pedestrian import (
    CROSSING_CODE,
    DONE_CODE,
    WAITING_CODE,
    pedestrian_tick,
    sample_accepted_gap,
)

from states import SCENARIO, trial_state

DT = 0.05


def spawn(geometry, side=EntrySide.NEAR, accepted_gap=4.0, model=SCENARIO.gap_model):
    """A pedestrian waiting at the curb of ``side``; the vehicle is in lane A."""
    return trial_state(geometry, side, accepted_gap, model)


def tick(s, geometry, d, v, dt=DT, model=SCENARIO.gap_model):
    """One pedestrian tick with the vehicle at distance ``d`` and speed ``v``."""
    s.d, s.v = d, v
    pedestrian_tick(s, model, dt, *s.walking_line(geometry))


def stationary_ego(d=50.0, v=4.5):
    return lambda t: (d, v)


def walk_until(s, geometry, ego_fn, dt=DT, t_max=60.0):
    """Advance the pedestrian against a scripted ego ``t -> (d, v)``; returns
    (time of first step, time done)."""
    t, t_start, t_done = 0.0, None, None
    while t < t_max:
        tick(s, geometry, *ego_fn(t), dt)
        t += dt
        if t_start is None and s.phase == CROSSING_CODE:
            t_start = t
        if s.phase == DONE_CODE:
            t_done = t
            break
    return t_start, t_done


class TestSampling:
    def test_floor_applies(self, gap_model):
        rng = np.random.default_rng(0)
        draws = [sample_accepted_gap(gap_model, rng) for _ in range(5000)]
        assert min(draws) >= gap_model.min_gap

    def test_tiny_sigma_concentrates_at_mean(self, gap_model):
        model = replace(gap_model, sigma_gap=1e-9)
        rng = np.random.default_rng(1)
        assert sample_accepted_gap(model, rng) == pytest.approx(4.0, abs=1e-6)

    def test_reproducible(self, gap_model):
        a = [sample_accepted_gap(gap_model, np.random.default_rng(42)) for _ in range(3)]
        b = [sample_accepted_gap(gap_model, np.random.default_rng(42)) for _ in range(3)]
        assert a == b

    def test_moments_track_the_floored_normal(self, gap_model):
        rng = np.random.default_rng(7)
        draws = np.array([sample_accepted_gap(gap_model, rng) for _ in range(10_000)])
        assert draws.mean() == pytest.approx(4.0, abs=0.05)
        assert draws.std(ddof=0) == pytest.approx(np.sqrt(2.5), abs=0.05)

    def test_invalid_model(self, gap_model):
        with pytest.raises(ValueError):
            replace(gap_model, sigma_gap=0.0)
        with pytest.raises(ValueError):
            replace(gap_model, min_gap=5.0)


class TestTrigger:
    def constant_ego(self, d0=50.0, v=4.5):
        return lambda t: (d0 - v * t, v)

    def test_starts_when_gap_reaches_accepted(self, gap_model, geometry):
        s = spawn(geometry, accepted_gap=4.0)
        t_start, _ = walk_until(s, geometry, self.constant_ego())
        # gap to the walking line = (d + delta)/v, hits 4.0 at t = 55/4.5 - 4
        expected = (50.0 + 5.0) / 4.5 - 4.0 + gap_model.start_delay
        assert t_start == pytest.approx(expected, abs=2 * DT)

    def test_smaller_gap_triggers_strictly_later(self, gap_model, geometry):
        starts = []
        for g in (5.0, 4.0, 3.0, 2.0, 1.0):
            s = spawn(geometry, accepted_gap=g)
            t_start, _ = walk_until(s, geometry, self.constant_ego())
            starts.append(t_start)
        assert starts == sorted(starts)
        assert all(b - a > DT / 2 for a, b in zip(starts, starts[1:]))

    def test_stopped_vehicle_yields_right_of_way(self, gap_model, geometry):
        s = spawn(geometry, accepted_gap=4.0)
        t_start, _ = walk_until(s, geometry, stationary_ego(d=20.0, v=0.0))
        assert t_start == pytest.approx(gap_model.start_delay + DT, abs=2 * DT)

    def test_gap_above_horizon_waits_for_passage(self, gap_model, geometry):
        s = spawn(geometry, accepted_gap=gap_model.max_trigger_gap + 0.5)
        seen_d = []

        def ego(t):
            d = 50.0 - 4.5 * t
            if s.phase == CROSSING_CODE:
                seen_d.append(d)
            return d, 4.5

        t_start, t_done = walk_until(s, geometry, ego)
        assert t_start is not None and t_done is not None
        # every crossing tick happened with the vehicle already past the stripe
        assert max(seen_d) < -(geometry.delta + geometry.crosswalk_depth / 2)

    def test_never_aborts_mid_crossing(self, gap_model, geometry):
        s = spawn(geometry, accepted_gap=4.0)

        def ego(t):
            # vehicle stops, restarts, stops again: pedestrian should not care
            v = 4.5 if int(t) % 2 == 0 else 0.0
            return max(-10.0, 30.0 - 2.0 * t), v

        walk_until(s, geometry, ego)
        assert s.phase == DONE_CODE


class TestKinematics:
    def test_euler_step_position(self, gap_model, geometry):
        s = spawn(geometry)
        s.phase = CROSSING_CODE
        s.x_p = -0.94 - 1.2 * DT
        s.xdot_p = 1.2
        tick(s, geometry, 50.0, 4.5)
        assert s.x_p == pytest.approx(-0.94, abs=1e-12)

    def test_constant_speed_while_crossing(self, gap_model, geometry):
        s = spawn(geometry)
        t = 0.0
        while s.phase != DONE_CODE and t < 60.0:
            tick(s, geometry, 50.0 - 4.5 * t, 4.5)
            t += DT
            if s.phase == CROSSING_CODE:
                assert abs(s.xdot_p) == gap_model.walk_speed
            else:
                assert s.xdot_p == 0.0

    def test_crossing_duration_matches_span(self, gap_model, geometry):
        for side in (EntrySide.NEAR, EntrySide.FAR):
            s = spawn(geometry, side)
            s.phase = CROSSING_CODE
            sign = 1.0 if side is EntrySide.NEAR else -1.0
            s.xdot_p = sign * gap_model.walk_speed
            in_road_ticks = 0
            for _ in range(int(60.0 / DT)):
                tick(s, geometry, 50.0, 4.5)
                if s.phase == DONE_CODE:
                    break
                if 0.0 <= s.x_p <= geometry.roadway_width:
                    in_road_ticks += 1
            expected = geometry.roadway_width / gap_model.walk_speed
            assert in_road_ticks * DT == pytest.approx(expected, abs=2 * DT)

    def test_phases_monotone(self, gap_model, geometry):
        s = spawn(geometry, EntrySide.FAR, accepted_gap=2.0)
        assert s.phase == WAITING_CODE
        last = s.phase
        t = 0.0
        for _ in range(int(60.0 / DT)):
            tick(s, geometry, 50.0 - 4.5 * t, 4.5)
            t += DT
            assert s.phase >= last  # the codes run Waiting < Crossing < Done
            last = s.phase
        assert s.phase == DONE_CODE

    def test_start_positions(self, gap_model, geometry):
        near = spawn(geometry, EntrySide.NEAR)
        far = spawn(geometry, EntrySide.FAR)
        assert near.x_p == -gap_model.near_setback
        assert far.x_p == geometry.roadway_width + gap_model.far_setback
        assert near.xdot_p == far.xdot_p == 0.0

    def test_dt_must_be_positive(self, gap_model, geometry):
        s = spawn(geometry)
        with pytest.raises(ValueError):
            tick(s, geometry, 50.0, 4.5, dt=0.0)
