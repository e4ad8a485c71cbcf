import math
from dataclasses import replace

import numpy as np
import pytest

from crosswalk_sim.core import EntrySide, brake_distance
from crosswalk_sim.hybrid import (DRIVING, HARD_BRAKING, SPEED_UP, YIELDING, HybridController,
                                  time_advantage)
from crosswalk_sim.pedestrian import in_crosswalk

from states import SCENARIO, set_fields, trial_state


def state(d=30.0, v=4.5, x_p=-2.5, xdot_p=0.0, side=EntrySide.NEAR, geometry=SCENARIO.geometry,
          **values):
    """A trial in lane A (x_v = 1.75) with the vehicle at (d, v) and the pedestrian at (x_p, xdot_p)."""
    return trial_state(geometry, side, d=d, v=v, x_p=x_p, xdot_p=xdot_p, **values)


def ped(x_p, xdot_p, side=EntrySide.NEAR, geometry=SCENARIO.geometry):
    return state(x_p=x_p, xdot_p=xdot_p, side=side, geometry=geometry)


class TestInCrosswalk:
    def test_approaching_on_sidewalk(self, geometry):
        assert in_crosswalk(ped(-1.0, 1.2), geometry)

    def test_waiting_on_sidewalk(self, geometry):
        assert not in_crosswalk(ped(-1.0, 0.0), geometry)

    def test_standing_inside_holds(self, geometry):
        geo = replace(geometry, n_lanes=2, x_f=7.0)
        assert in_crosswalk(ped(2.0, 0.0, geometry=geo), geo)

    def test_cleared_past_span(self, geometry):
        assert not in_crosswalk(ped(geometry.x_f + 0.01, 1.2), geometry)

    def test_walking_away_does_not_trigger(self, geometry):
        assert not in_crosswalk(ped(-1.0, -1.2), geometry)

    def test_far_side_mirror(self, geometry):
        w = geometry.roadway_width
        assert in_crosswalk(ped(w + 1.0, -1.2, EntrySide.FAR), geometry)
        assert not in_crosswalk(ped(w + 1.0, 0.0, EntrySide.FAR), geometry)
        assert in_crosswalk(ped(3.0, -1.2, EntrySide.FAR), geometry)
        assert not in_crosswalk(ped(-0.01, -1.2, EntrySide.FAR), geometry)

    def test_matches_unfactored_form(self, geometry):
        """The factored test equals ``(0 <= c <= x_f) | (cdot > 0 & c < x_f)`` at the
        edges of the span, on trials of both sides, where c is the progress from the
        entry-side curb (``x_p`` near side, ``W - x_p`` far side) and cdot the
        speed into the road."""

        def unfactored(c, cdot):
            return ((0.0 <= c) & (c <= x_f)) | ((cdot > 0.0) & (c < x_f))

        x_f, w = geometry.x_f, geometry.roadway_width
        coords = [math.nan, 0.0, -0.0, math.inf, -math.inf, -1.0, 1.0, x_f,
                  math.nextafter(x_f, -math.inf), math.nextafter(x_f, math.inf)]
        speeds = [-1.0, -0.0, 0.0, 1.0]
        for side, sgn in ((EntrySide.NEAR, 1.0), (EntrySide.FAR, -1.0)):
            for x_p in coords + [w - c for c in coords]:
                for xdot_p in speeds:
                    got = in_crosswalk(ped(x_p, xdot_p, side), geometry)
                    want = unfactored(x_p if sgn > 0.0 else w - x_p, sgn * xdot_p)
                    assert type(got) is bool and got == want, (side, x_p, xdot_p)


class TestTimeAdvantage:
    # The vehicle's time runs to the walking line, delta = 5 m past the stop point.
    def test_reference_value(self, geometry):
        t = time_advantage(state(17.5, 4.5, -1.25, 1.2), geometry)
        assert t == pytest.approx(2.5 - 5.0, abs=1e-12)

    def test_stationary_pedestrian(self, geometry):
        assert time_advantage(state(10.0, 4.5, -1.0, 0.0), geometry) == math.inf

    def test_pedestrian_at_lane_center(self, geometry):
        t = time_advantage(state(4.0, 4.5, 1.75, 1.2), geometry)
        assert t == pytest.approx(-2.0, abs=1e-12)

    def test_pedestrian_past_lane(self, geometry):
        assert time_advantage(state(10.0, 4.5, 3.0, 1.2), geometry) == math.inf

    def test_far_side_sign_convention(self, geometry):
        t = time_advantage(state(17.5, 4.5, 15.0, -1.2, EntrySide.FAR), geometry)
        assert t == pytest.approx((15.0 - 1.75) / 1.2 - 5.0)

    def test_stopped_vehicle(self, geometry):
        assert time_advantage(state(10.0, 0.0, -1.0, 1.2), geometry) == -math.inf


class TestModeCommands:
    # Each command through ``step`` on a trial in its mode. The Driving trials'
    # pedestrian stands on the curb; the others' walks into lane A, so each
    # trial keeps its mode.
    def test_driving_at_setpoint(self, ctrl):
        assert ctrl.step(state(30.0, 4.5), 0) == 0.0

    def test_driving_saturates_up(self, ctrl):
        assert ctrl.step(state(30.0, 3.5), 0) == 2.0

    def test_driving_slows_down(self, ctrl):
        assert ctrl.step(state(30.0, 5.5), 0) == -2.0

    def test_yield_profile_endpoints(self, ctrl):
        assert ctrl.yield_speed_profile(5.0625, 5.0625, 4.5) == pytest.approx(4.5, abs=1e-12)
        assert ctrl.yield_speed_profile(0.0, 5.0625, 4.5) == pytest.approx(0.0, abs=1e-12)

    def test_yield_profile_half_distance(self, ctrl):
        expected = math.sqrt(2 * 2 * (2.53125 - 5.0625) + 4.5**2)
        assert ctrl.yield_speed_profile(2.53125, 5.0625, 4.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.182, abs=5e-4)

    def test_brake_profile_endpoints(self, ctrl):
        assert ctrl.brake_speed_profile(3.0, 3.0, 4.5) == pytest.approx(4.5, abs=1e-12)
        assert ctrl.brake_speed_profile(0.0, 3.0, 4.5) == 0.0

    def test_brake_profile_quarter_distance(self, ctrl):
        assert ctrl.brake_speed_profile(0.75, 3.0, 4.5) == pytest.approx(2.25, rel=1e-12)

    def test_hard_braking_feedforward(self, ctrl):
        s = state(3.0, 4.5, -1.0, 1.2, mode=HARD_BRAKING, d_o=3.0, v_o=4.5)
        # On-profile: feedback vanishes, command is the pure feedforward.
        assert ctrl.step(s, 0) == pytest.approx(-3.375, abs=1e-12)
        assert not s.overrun and s.mode == HARD_BRAKING

    def test_hard_braking_overrun_clamps(self, params, ctrl):
        s = state(-0.1, 2.0, -1.0, 1.2, mode=HARD_BRAKING, d_o=3.0, v_o=4.5)
        assert ctrl.step(s, 0) == -params.a_max
        assert s.overrun and s.mode == HARD_BRAKING

    def test_speed_up_value(self, ctrl):
        s = state(0.5, 4.5, -1.0, 1.2, mode=SPEED_UP)
        assert ctrl.step(s, 0) == 2.0 and s.mode == SPEED_UP


class TestStepTransitions:
    def test_equilibrium_stays_driving(self, ctrl):
        s = state(30.0, 4.5, -2.5, 0.0)
        a = ctrl.step(s, 0)
        assert a == 0.0 and s.mode == DRIVING

    def test_trigger_far_enough_yields(self, ctrl):
        s = state(20.0, 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        assert s.mode == YIELDING
        assert (s.d_o, s.v_o) == (20.0, 4.5)

    def test_trigger_mid_range_hard_brakes(self, ctrl):
        s = state(3.0, 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        assert s.mode == HARD_BRAKING

    def test_trigger_too_close_speeds_up(self, params, ctrl):
        s = state(0.5, 4.5, -1.0, 1.2)
        a = ctrl.step(s, 0)
        assert s.mode == SPEED_UP
        assert a == params.a_cmf

    def test_large_time_advantage_keeps_driving(self, ctrl):
        # Far-side pedestrian 10+ s from the lane: vehicle passes first.
        s = state(20.0, 4.5, 14.25, -1.2, EntrySide.FAR)
        ctrl.step(s, 0)
        assert s.mode == DRIVING

    def test_boundary_d_cmf_goes_to_yielding(self, params, ctrl):
        s = state(brake_distance(4.5, params.a_cmf), 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        assert s.mode == YIELDING

    def test_boundary_d_max_goes_to_speed_up(self, params, ctrl):
        s = state(brake_distance(4.5, params.a_max), 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        assert s.mode == SPEED_UP

    def test_guard_partition_unique_mode(self, params, ctrl):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = rng.uniform(0.01, 45.0)
            v = rng.uniform(0.5, 4.5)
            s = state(d, v, -1.0, 1.2)
            ctrl.step(s, 0)
            d_cmf = brake_distance(v, params.a_cmf)
            d_max = brake_distance(v, params.a_max)
            if d >= d_cmf:
                expected = YIELDING
            elif d > d_max:
                expected = HARD_BRAKING
            else:
                expected = SPEED_UP
            assert s.mode == expected

    def test_speed_up_exits_when_passed(self, ctrl):
        s = state(0.5, 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        assert s.mode == SPEED_UP
        set_fields(s, d=-0.1, v=4.6, x_p=-0.5)
        ctrl.step(s, 1)
        assert s.mode == DRIVING

    def test_yield_exits_when_cleared(self, geometry, ctrl):
        s = state(20.0, 4.5, -1.0, 1.2)
        ctrl.step(s, 0)
        set_fields(s, geometry, d=19.0, x_p=geometry.x_f + 0.1)
        ctrl.step(s, 1)
        assert s.mode == DRIVING

    def test_saturation_envelope(self, params, ctrl):
        # One trial whose state jumps every tick, mode and latched profile carried over.
        rng = np.random.default_rng(4)
        s = state()
        for k in range(2000):
            set_fields(s, d=rng.uniform(-10.0, 45.0), v=rng.uniform(0.0, 6.0),
                       x_p=rng.uniform(-3.0, 16.0), xdot_p=rng.choice([0.0, 1.2, -1.2]))
            a = ctrl.step(s, k)
            assert -params.a_max <= a <= params.a_cmf

    def test_step_deterministic(self, ctrl, hybrid_for, scenario_factory):
        def run(ctrl):
            out = []
            s = state(30.0, 4.5, -1.0, 0.0)
            for k in range(200):
                if k == 40:
                    set_fields(s, xdot_p=1.2)
                elif k > 40:
                    set_fields(s, x_p=s.x_p + 1.2 * 0.05)
                a = ctrl.step(s, k)
                s.v = max(0.0, s.v + a * 0.05)
                s.d -= s.v * 0.05
                out.append((round(s.d, 12), round(s.v, 12), s.mode))
            return out

        assert run(ctrl) == run(hybrid_for(scenario_factory()))


class TestClosedLoopGuarantees:
    DT = 0.02

    def _stop_from(self, mode, d0, v0, params, geometry):
        ctrl = HybridController(params, geometry, dt=self.DT)
        # Standing mid-crosswalk keeps the mode active.
        s = state(d0, v0, 3.0, 0.0, mode=mode, d_o=d0, v_o=v0)
        t, k = 0.0, 0
        while t < 80.0:
            a = ctrl.step(s, k)
            d, v = s.d, s.v
            if a < 0.0 and v + a * self.DT < 0.0:
                s.d = d - v * v / (-2.0 * a)
                s.v = 0.0
            else:
                s.d = d - (v * self.DT + 0.5 * a * self.DT**2)
                s.v = max(0.0, v + a * self.DT)
            t += self.DT
            k += 1
            if s.v <= 0.05 and (mode == HARD_BRAKING or s.latched):
                break
        return s.d, s.v

    def test_yielding_stops_at_stop_point(self, params, geometry):
        for v0 in np.linspace(1.0, 4.5, 50):
            d_cmf = brake_distance(v0, params.a_cmf)
            for d0 in np.linspace(d_cmf + 0.05, 45.0, 50):
                d, v = self._stop_from(YIELDING, float(d0), float(v0), params, geometry)
                assert v <= 0.05
                assert d >= -0.1, f"overshoot from d0={d0}, v0={v0}: d={d}"

    def test_hard_braking_stops_at_stop_point(self, params, geometry):
        for v0 in np.linspace(1.0, 4.5, 50):
            d_cmf = brake_distance(v0, params.a_cmf)
            d_max = brake_distance(v0, params.a_max)
            for d0 in np.linspace(d_max + 1e-3, d_cmf, 50):
                d, v = self._stop_from(HARD_BRAKING, float(d0), float(v0), params, geometry)
                assert v <= 0.05
                assert d >= -0.1, f"overshoot from d0={d0}, v0={v0}: d={d}"


def test_brake_profile_conserves_v2_over_d():
    # Pure feedforward -v^2/2d with exact in-step kinematics keeps v^2/d
    # constant; checked at a fine step against the analytic invariant.
    dt = 1e-3
    d, v = 4.0, 4.0
    ratio0 = v * v / d
    while v > 0.05 and d > 1e-4:
        a = -v * v / (2.0 * d)
        d -= v * dt + 0.5 * a * dt * dt
        v += a * dt
        assert v * v / d == pytest.approx(ratio0, rel=1e-6)
