import math
from dataclasses import replace

import numpy as np
import pytest

from crosswalk_sim.core import EntrySide
from crosswalk_sim.pedestrian import (
    CROSSING_CODE,
    DONE_CODE,
    WAITING_CODE,
    arming_gap,
    pedestrian_tick,
    sample_accepted_gap,
    trigger,
)
from crosswalk_sim.simulator import TrialRun, pedestrian_walk

from states import SCENARIO, trial_state

DT = SCENARIO.dt


class Cruise:
    """A controller that holds the vehicle's speed: it commands 0 on every tick."""

    modes = ("cruise",)

    def step(self, s, tick):
        return 0.0


def armed(accepted_gap, **scenario):
    """The ``TrialRun`` of a pedestrian with ``accepted_gap`` on the default
    scenario with ``scenario`` written over it (a far-side pedestrian, whom the
    vehicle has passed before they reach its lane), ahead of a vehicle that
    holds its start speed, run to its end."""
    sc = replace(SCENARIO, **{"entry_side": EntrySide.FAR, **scenario})
    run = TrialRun(sc, accepted_gap, Cruise())
    run.advance() or run.advance()  # a second call runs on from its arm tick
    return run


def first_step(walk):
    """The index of the first entry of ``walk`` whose pedestrian is moving."""
    return next(k for k, (_, xdot_p, _, _) in enumerate(walk) if xdot_p != 0.0)


def walk_of(side=EntrySide.NEAR, **gap_model):
    """The whole ``pedestrian_walk`` of the default scenario from ``side``."""
    model = replace(SCENARIO.gap_model, **gap_model)
    return list(pedestrian_walk(replace(SCENARIO, entry_side=side, gap_model=model)))


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
    def test_arming_gap(self):
        # -inf once the vehicle has stopped or passed, the time gap while it
        # approaches the walking line, inf on or beyond it.
        assert arming_gap(4.5, 18.0, False) == 4.0
        assert arming_gap(0.0, 18.0, False) == arming_gap(1e-9, 18.0, False) == -math.inf
        assert arming_gap(4.5, -20.0, True) == arming_gap(0.0, -20.0, True) == -math.inf
        assert arming_gap(2e-9, 18.0, False) == 9e9
        assert arming_gap(4.5, 0.0, False) == arming_gap(4.5, -1.0, False) == math.inf

    def test_trigger(self, gap_model):
        cut = gap_model.max_trigger_gap
        assert trigger(gap_model, 4.0) == 4.0 and trigger(gap_model, cut) == cut
        assert trigger(gap_model, math.nextafter(cut, math.inf)) == -math.inf
        assert trigger(gap_model, math.inf) == -math.inf

    def test_starts_when_gap_reaches_accepted(self, gap_model):
        # The time gap to the walking line, (d + delta) / v, reaches 4.0 at
        # t = 55 / 4.5 - 4; the first stride follows start_delay later.
        run = armed(4.0)
        assert (run.arm + 1) * DT == pytest.approx(55.0 / 4.5 - 4.0, abs=DT)
        t_start = (run.arm + first_step(walk_of(EntrySide.FAR))) * DT
        assert t_start == pytest.approx(55.0 / 4.5 - 4.0 + gap_model.start_delay, abs=2 * DT)

    def test_smaller_gap_triggers_strictly_later(self):
        arms = [armed(g).arm for g in (5.0, 4.0, 3.0, 2.0, 1.0)]
        assert all(a < b for a, b in zip(arms, arms[1:]))

    def test_stopped_vehicle_yields_right_of_way(self, gap_model):
        # Any gap arms on the first tick, the one above max_trigger_gap too.
        for gap in (4.0, gap_model.max_trigger_gap + 0.5):
            assert armed(gap, initial_d=20.0, initial_v=0.0).arm == 0
        assert first_step(walk_of()) * DT == pytest.approx(gap_model.start_delay + DT, abs=DT)

    def test_gap_above_horizon_waits_for_passage(self, gap_model, geometry):
        # It arms on the first tick whose vehicle has cleared the stripe by 1 m.
        run = armed(gap_model.max_trigger_gap + 0.5, entry_side=EntrySide.NEAR)
        d_before, d_armed = (run.trace[k][1] for k in (run.arm - 1, run.arm))
        edge = -(geometry.delta + geometry.crosswalk_depth / 2 + 1.0)
        assert d_armed < edge <= d_before
        assert run.s.phase == DONE_CODE


class TestKinematics:
    def test_euler_step_position(self, gap_model, geometry):
        s = trial_state(geometry, phase=CROSSING_CODE, x_p=-0.94 - 1.2 * DT, xdot_p=1.2)
        pedestrian_tick(s, gap_model, DT)
        assert s.x_p == pytest.approx(-0.94, abs=1e-12)
        # The walk takes the same step, bit for bit.
        walk = walk_of()
        k = first_step(walk)
        assert all(x1 == x0 + xdot * DT for (x0, _, _, _), (x1, xdot, phase, _)
                   in zip(walk[k - 1:], walk[k:]) if phase == CROSSING_CODE)

    def test_constant_speed_while_crossing(self, gap_model):
        for side, sgn in ((EntrySide.NEAR, 1.0), (EntrySide.FAR, -1.0)):
            for _, xdot_p, phase, _ in walk_of(side):
                assert xdot_p == (sgn * gap_model.walk_speed if phase == CROSSING_CODE else 0.0)

    def test_crossing_duration_matches_span(self, gap_model, geometry):
        for side in (EntrySide.NEAR, EntrySide.FAR):
            walk = walk_of(side)
            in_road_ticks = sum(0.0 <= x_p <= geometry.roadway_width and phase != DONE_CODE
                                for x_p, _, phase, _ in walk)
            expected = geometry.roadway_width / gap_model.walk_speed
            assert in_road_ticks * DT == pytest.approx(expected, abs=2 * DT)

    def test_phases_monotone(self):
        for side in (EntrySide.NEAR, EntrySide.FAR):
            phases = [phase for _, _, phase, _ in walk_of(side)]
            assert phases[0] == WAITING_CODE and phases[-1] == DONE_CODE
            assert phases == sorted(phases)  # the codes run Waiting < Crossing < Done

    def test_start_positions(self, gap_model, geometry):
        near, far = (walk_of(side)[0] for side in (EntrySide.NEAR, EntrySide.FAR))
        assert near[:3] == (-gap_model.near_setback, 0.0, WAITING_CODE)
        assert far[:3] == (geometry.roadway_width + gap_model.far_setback, 0.0, WAITING_CODE)
