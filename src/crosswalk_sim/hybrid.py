"""Four-mode hybrid longitudinal controller.

Each trial holds one of four discrete modes, as a code in its
``TrialState``; once per tick the controller maps that mode and the current
vehicle and pedestrian states to a new mode and an acceleration command. The
controller itself keeps no per-trial state: ``step`` ticks one trial with
branches, ``step_batch`` the rows of a lockstep batch with masks. Mode
commands are feedback-feedforward: a desired acceleration plus a
proportional correction toward a desired velocity profile.
"""

from __future__ import annotations

import math
from functools import cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .core import (ControllerParams, WorldGeometry, bound, comfort_brake_distance,
                   max_brake_distance)

if TYPE_CHECKING:
    from .simulator import BatchState, TrialState


# The mode codes, as a trial's ``mode`` field holds them; ``HybridController.modes``
# has their labels.
DRIVING, YIELDING, HARD_BRAKING, SPEED_UP = range(4)


def time_advantage(s: TrialState, geometry: WorldGeometry) -> float:
    """Pedestrian's time to the vehicle's lane minus the vehicle's time to the walking line.

    The pass/yield question is whether the vehicle clears the crosswalk, not
    the stop point short of it, hence the ``delta`` offset. Returns +inf when
    the pedestrian cannot conflict (standing, or already past the lane) and
    -inf for a stopped vehicle, which can never pass first.
    """
    if s.xdot_p == 0.0:
        return math.inf
    t_reach = (s.x_v - s.x_p) / s.xdot_p
    if t_reach < 0.0:
        return math.inf
    if s.v <= 0.0:
        return -math.inf
    return t_reach - (s.d + geometry.delta) / s.v


class HybridController:
    """The mode machine, one instance for every trial of a run.

    The controller holds only its parameters. A trial's mode and braking
    profile live in its ``TrialState``, which ``step`` reads and writes:
    ``mode`` (a code, labelled by ``modes``), ``d_o`` / ``v_o``, the distance
    and speed latched when a braking profile starts, ``latched``, set once
    Yielding re-latches them at the moment its coast phase ends so the
    constant-deceleration profile lands at the stop point, and ``overrun``,
    set once HardBraking runs past the stop point. Commands are saturated per
    mode: Driving and Yielding stay inside the comfort envelope, HardBraking
    may use the full braking authority, SpeedUp commands the comfort
    acceleration.
    """

    modes = ("Driving", "Yielding", "HardBraking", "SpeedUp")  # labels of the mode codes

    def __init__(self, params: ControllerParams, geometry: WorldGeometry, dt: float):
        self.params = params
        self.geometry = geometry
        self.dt = dt  # sample time; used as a one-tick lead on the braking point

    # -- mode commands -----------------------------------------------------

    def driving_command(self, v: float) -> float:
        p = self.params
        a = p.k_s * (p.v_speedlimit - v)
        return _clamp(a, -p.a_cmf, p.a_cmf)

    def yielding_command(self, s: TrialState) -> float:
        p = self.params
        d, v = s.d, s.v
        if not s.latched:
            # Coast phase: hold the speed limit until the comfortable braking
            # point, led by the brake-communication delay plus one sample so
            # the quantized switch lands at or before the stop point.
            if d > comfort_brake_distance(v, p.a_cmf) + (p.t_delay + self.dt) * v:
                return self.driving_command(v)
            s.d_o, s.v_o, s.latched = d, v, True
        v_des = self.yield_speed_profile(d, s.d_o, s.v_o)
        a = -p.a_cmf + p.k_s * (v_des - v)
        return _clamp(a, -p.a_cmf, p.a_cmf)

    def yield_speed_profile(self, d: float, d_o: float, v_o: float) -> float:
        """Constant-deceleration profile, v_o at d_o and 0 at the stop point."""
        arg = 2.0 * self.params.a_cmf * (d - d_o) + v_o * v_o
        return math.sqrt(max(0.0, arg))

    def hard_braking_command(self, s: TrialState) -> float:
        p = self.params
        d, v = s.d, s.v
        if d <= 0.0:
            s.overrun = True
            return -p.a_max
        v_des = self.brake_speed_profile(d, s.d_o, s.v_o)
        a = -v * v / (2.0 * d) + p.k_s * (v_des - v)
        return _clamp(a, -p.a_max, p.a_cmf)

    def brake_speed_profile(self, d: float, d_o: float, v_o: float) -> float:
        """Square-root profile matching v_o at d_o and 0 at the stop point."""
        if d <= 0.0 or d_o <= 0.0:
            return 0.0
        return v_o / math.sqrt(d_o) * math.sqrt(d)

    def speed_up_command(self) -> float:
        return self.params.a_cmf

    # -- one controller tick -----------------------------------------------

    def step(self, s: TrialState, tick: int) -> float:
        """Run one pass of the mode machine on trial ``s`` and return the
        acceleration command; ``tick`` is not read. The pedestrian holds the
        right of way while ``s.right_of_way``, which the engine sets.

        Mode blocks cascade the way the control loop is written: a
        transition out of Driving produces the new mode's command on the
        same tick, while an exit back to Driving keeps the old mode's
        command for the transition tick.
        """
        p = self.params
        d, v, mode = s.d, s.v, s.mode
        a = 0.0
        ped_active = s.right_of_way

        if mode == DRIVING:
            a = self.driving_command(v)
            if d > 0.0 and ped_active:
                if time_advantage(s, self.geometry) > p.tau_max:
                    pass  # enough margin to continue through
                else:
                    d_cmf = comfort_brake_distance(v, p.a_cmf)
                    d_max = max_brake_distance(v, p.a_max)
                    if d >= d_cmf:
                        mode = YIELDING
                    elif d > d_max:
                        mode = HARD_BRAKING
                    else:
                        mode = SPEED_UP
                    s.d_o, s.v_o, s.latched = d, v, False

        if mode == YIELDING:
            a = self.yielding_command(s)
            if not ped_active:
                mode = DRIVING

        if mode == HARD_BRAKING:
            a = self.hard_braking_command(s)
            if not ped_active:
                mode = DRIVING

        if mode == SPEED_UP:
            a = self.speed_up_command()
            if not ped_active or d < 0.0:
                mode = DRIVING

        s.mode = mode
        return a  # every mode's command lies in [-a_max, a_cmf]

    @cached_property
    def _operands(self) -> SimpleNamespace:
        """``step_batch``'s scalar operands, each a read-only 0-d array, bound on
        its first call: a controller that only serves ``step`` builds no array."""
        p, code = self.params, np.int8
        return SimpleNamespace(
            k_s=bound(p.k_s), v_speedlimit=bound(p.v_speedlimit), tau_max=bound(p.tau_max),
            a_cmf=bound(p.a_cmf), neg_a_cmf=bound(-p.a_cmf), neg_a_max=bound(-p.a_max),
            two_a_cmf=bound(2.0 * p.a_cmf), lead=bound(p.t_delay + self.dt),
            delta=bound(self.geometry.delta), zero=bound(0.0), two=bound(2.0),
            false=bound(False, np.bool_), driving=bound(DRIVING, code),
            yielding=bound(YIELDING, code), hard_braking=bound(HARD_BRAKING, code),
            speed_up=bound(SPEED_UP, code))

    def step_batch(self, s: BatchState, tick: int) -> np.ndarray:
        """``step`` for every row of a lockstep batch; returns the commands.

        The mode blocks run as masked blocks in the order of ``step``, so the
        same-tick cascade holds, and each array expression does the same IEEE
        operations in the same order as its scalar counterpart, its scalar
        operands bound once (``_operands``). The start state is all zeros:
        Driving, nothing latched, no overrun. A finished row ticks on as its
        scalar trial would, so ``step`` accepts its state.
        """
        p, k = self.params, self._operands
        d, v, mode, zero = s.d, s.v, s.mode, k.zero
        ped_active = s.right_of_way
        a = _clip(k.k_s * (k.v_speedlimit - v), k.neg_a_cmf, k.a_cmf)  # driving_command

        check = (mode == k.driving) & (d > zero) & ped_active
        if np.count_nonzero(check):
            # time_advantage(...) > tau_max, its inf / -inf cases spelled out.
            t_reach = (s.x_v - s.x_p) / s.xdot_p
            margin = ((s.xdot_p == zero) | (t_reach < zero)
                      | (v > zero) & (t_reach - (d + k.delta) / v > k.tau_max))
            enter = check & ~margin
            if np.count_nonzero(enter):
                new = np.where(d >= comfort_brake_distance(v, p.a_cmf), k.yielding,
                               np.where(d > max_brake_distance(v, p.a_max), k.hard_braking,
                                        k.speed_up))
                np.putmask(mode, enter, new)
                np.putmask(s.d_o, enter, d)
                np.putmask(s.v_o, enter, v)
                np.putmask(s.latched, enter, k.false)
        leaving = ~ped_active

        yielding = mode == k.yielding
        if np.count_nonzero(yielding):
            # yielding_command: a coasting trial keeps the driving command.
            steer = yielding
            unlatched = yielding & ~s.latched
            if np.count_nonzero(unlatched):
                coast = unlatched & (d > comfort_brake_distance(v, p.a_cmf) + k.lead * v)
                latch = unlatched & ~coast
                np.putmask(s.d_o, latch, d)
                np.putmask(s.v_o, latch, v)
                s.latched |= latch
                steer = yielding & ~coast
            # yield_speed_profile; arg is never -0.0, as v_o * v_o is not.
            v_des = np.sqrt(np.maximum(k.two_a_cmf * (d - s.d_o) + s.v_o * s.v_o, zero))
            a_y = _clip(k.neg_a_cmf + k.k_s * (v_des - v), k.neg_a_cmf, k.a_cmf)
            np.putmask(a, steer, a_y)
            np.putmask(mode, yielding & leaving, k.driving)

        braking = mode == k.hard_braking
        if np.count_nonzero(braking):
            overrun = d <= zero
            s.overrun |= braking & overrun
            v_des = s.v_o / np.sqrt(s.d_o) * np.sqrt(d)  # brake_speed_profile
            np.putmask(v_des, overrun | (s.d_o <= zero), zero)
            a_h = _clip(-v * v / (k.two * d) + k.k_s * (v_des - v), k.neg_a_max, k.a_cmf)
            np.putmask(a_h, overrun, k.neg_a_max)
            np.putmask(a, braking, a_h)
            np.putmask(mode, braking & leaving, k.driving)

        speeding = mode == k.speed_up
        if np.count_nonzero(speeding):
            np.putmask(a, speeding, k.a_cmf)
            np.putmask(mode, speeding & (leaving | (d < zero)), k.driving)

        return a  # every mode's command lies in [-a_max, a_cmf], as in step


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_clamp`` on arrays (``np.clip`` gives the same values, twice as slowly)."""
    return np.minimum(np.maximum(x, lo), hi)
