"""Four-mode hybrid longitudinal controller.

The controller holds one of four discrete modes and maps the current
vehicle and pedestrian states to an acceleration command once per tick.
Mode commands are feedback-feedforward: a desired acceleration plus a
proportional correction toward a desired velocity profile.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    ControllerParams,
    PedestrianState,
    VehicleState,
    WorldGeometry,
    comfort_brake_distance,
    max_brake_distance,
)

if TYPE_CHECKING:
    from .simulator import BatchState


class Mode(Enum):
    DRIVING = "Driving"
    YIELDING = "Yielding"
    HARD_BRAKING = "HardBraking"
    SPEED_UP = "SpeedUp"


# ``Mode`` as the codes ``step_batch`` keeps in the batch ``mode`` array.
DRIVING, YIELDING, HARD_BRAKING, SPEED_UP = range(4)

OVERRUN = "hard_braking_overrun"


def in_crosswalk(ped: PedestrianState | BatchState, geometry: WorldGeometry) -> bool:
    """True while the pedestrian holds the right of way over the vehicle.

    A pedestrian counts from the instant they start moving toward the
    legally relevant span, even while still on the sidewalk, and stops
    counting once past the end of that span. Someone standing still inside
    the span keeps holding the vehicle; someone walking away never
    triggers it. Takes one pedestrian or the trials of a lockstep batch
    (then returns a mask).
    """
    s = ped.span_coord(geometry)
    sdot = ped.span_speed()
    inside = (0.0 <= s) & (s <= geometry.x_f)
    approaching = (sdot > 0.0) & (s < geometry.x_f)
    return inside | approaching


def time_advantage(vehicle: VehicleState, ped: PedestrianState, geometry: WorldGeometry) -> float:
    """Pedestrian's time to the vehicle's lane minus the vehicle's time to the walking line.

    The pass/yield question is whether the vehicle clears the crosswalk, not
    the stop point short of it, hence the ``delta`` offset. Returns +inf when
    the pedestrian cannot conflict (standing, or already past the lane) and
    -inf for a stopped vehicle, which can never pass first.
    """
    if ped.xdot_p == 0.0:
        return math.inf
    t_reach = (vehicle.x_v - ped.x_p) / ped.xdot_p
    if t_reach < 0.0:
        return math.inf
    if vehicle.v <= 0.0:
        return -math.inf
    return t_reach - (vehicle.d + geometry.delta) / vehicle.v


class HybridController:
    """Mode machine owned by a single trial.

    ``d_o`` / ``v_o`` are the distance and speed latched when a braking
    profile starts; Yielding re-latches them at the moment its coast phase
    ends so the constant-deceleration profile lands at the stop point.
    Commands are saturated per mode: Driving and Yielding stay inside the
    comfort envelope, HardBraking may use the full braking authority,
    SpeedUp commands the comfort acceleration.
    """

    modes = tuple(m.value for m in Mode)  # labels of the batch mode codes

    def __init__(self, params: ControllerParams, geometry: WorldGeometry, dt: float = 0.05):
        self.params = params
        self.geometry = geometry
        self.dt = dt  # sample time; used as a one-tick lead on the braking point
        self.safety_events: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.mode = Mode.DRIVING
        self.d_o = 0.0
        self.v_o = 0.0
        self._decel_latched = False
        self.safety_events.clear()

    @property
    def label(self) -> str:
        """Name of the current mode, as recorded in mode traces."""
        return self.mode.value

    # -- mode commands -----------------------------------------------------

    def driving_command(self, v: float) -> float:
        p = self.params
        a = p.k_s * (p.v_speedlimit - v)
        return _clamp(a, -p.a_cmf, p.a_cmf)

    def yielding_command(self, d: float, v: float) -> float:
        p = self.params
        if not self._decel_latched:
            # Coast phase: hold the speed limit until the comfortable braking
            # point, led by the brake-communication delay plus one sample so
            # the quantized switch lands at or before the stop point.
            if d > comfort_brake_distance(v, p.a_cmf) + (p.t_delay + self.dt) * v:
                return self.driving_command(v)
            self.d_o = d
            self.v_o = v
            self._decel_latched = True
        v_des = self.yield_speed_profile(d)
        a = -p.a_cmf + p.k_s * (v_des - v)
        return _clamp(a, -p.a_cmf, p.a_cmf)

    def yield_speed_profile(self, d: float) -> float:
        """Constant-deceleration profile, v_o at d_o and 0 at the stop point."""
        arg = 2.0 * self.params.a_cmf * (d - self.d_o) + self.v_o * self.v_o
        return math.sqrt(max(0.0, arg))

    def hard_braking_command(self, d: float, v: float) -> float:
        p = self.params
        if d <= 0.0:
            if not self.safety_events or self.safety_events[-1] != OVERRUN:
                self.safety_events.append(OVERRUN)
            return -p.a_max
        v_des = self.brake_speed_profile(d)
        a = -v * v / (2.0 * d) + p.k_s * (v_des - v)
        return _clamp(a, -p.a_max, p.a_cmf)

    def brake_speed_profile(self, d: float) -> float:
        """Square-root profile matching v_o at d_o and 0 at the stop point."""
        if d <= 0.0 or self.d_o <= 0.0:
            return 0.0
        return self.v_o / math.sqrt(self.d_o) * math.sqrt(d)

    def speed_up_command(self) -> float:
        return self.params.a_cmf

    # -- one controller tick -----------------------------------------------

    def step(self, vehicle: VehicleState, ped: PedestrianState) -> float:
        """Run one pass of the mode machine and return the acceleration command.

        Mode blocks cascade the way the control loop is written: a
        transition out of Driving produces the new mode's command on the
        same tick, while an exit back to Driving keeps the old mode's
        command for the transition tick.
        """
        p = self.params
        d, v = vehicle.d, vehicle.v
        a = 0.0
        ped_active = in_crosswalk(ped, self.geometry)

        if self.mode is Mode.DRIVING:
            a = self.driving_command(v)
            if d > 0.0 and ped_active:
                if time_advantage(vehicle, ped, self.geometry) > p.tau_max:
                    pass  # enough margin to continue through
                else:
                    d_cmf = comfort_brake_distance(v, p.a_cmf)
                    d_max = max_brake_distance(v, p.a_max)
                    if d >= d_cmf:
                        self._enter(Mode.YIELDING, d, v)
                    elif d > d_max:
                        self._enter(Mode.HARD_BRAKING, d, v)
                    else:
                        self._enter(Mode.SPEED_UP, d, v)

        if self.mode is Mode.YIELDING:
            a = self.yielding_command(d, v)
            if not ped_active:
                self.mode = Mode.DRIVING

        if self.mode is Mode.HARD_BRAKING:
            a = self.hard_braking_command(d, v)
            if not ped_active:
                self.mode = Mode.DRIVING

        if self.mode is Mode.SPEED_UP:
            a = self.speed_up_command()
            if not ped_active or d < 0.0:
                self.mode = Mode.DRIVING

        return _clamp(a, -p.a_max, p.a_cmf)

    def step_batch(self, s: BatchState, tick: int) -> np.ndarray:
        """``step`` for every live trial of a lockstep batch; returns the commands.

        The mode blocks run as masked blocks in the order of ``step``, so the
        same-tick cascade holds, and each array expression does the same IEEE
        operations in the same order as its scalar counterpart. The reset
        state is all zeros: Driving, nothing latched, no overrun.
        """
        p, geo = self.params, self.geometry
        d, v, mode = s.d, s.v, s.mode
        ped_active = in_crosswalk(s, geo)
        a = _clip(p.k_s * (p.v_speedlimit - v), -p.a_cmf, p.a_cmf)  # driving_command

        check = (mode == DRIVING) & (d > 0.0) & ped_active
        if check.any():
            # time_advantage(...) > tau_max, its inf / -inf cases spelled out.
            t_reach = (s.x_v - s.x_p) / s.xdot_p
            margin = ((s.xdot_p == 0.0) | (t_reach < 0.0)
                      | (v > 0.0) & (t_reach - (d + geo.delta) / v > p.tau_max))
            enter = check & ~margin
            if enter.any():
                new = np.where(d >= comfort_brake_distance(v, p.a_cmf), YIELDING,
                               np.where(d > max_brake_distance(v, p.a_max), HARD_BRAKING, SPEED_UP))
                np.copyto(mode, new, where=enter)
                np.copyto(s.d_o, d, where=enter)
                np.copyto(s.v_o, v, where=enter)
                np.copyto(s.latched, False, where=enter)
        leaving = ~ped_active

        yielding = mode == YIELDING
        if yielding.any():
            # yielding_command: a coasting trial keeps the driving command.
            coast = ~s.latched & (d > comfort_brake_distance(v, p.a_cmf) + (p.t_delay + self.dt) * v)
            latch = yielding & ~s.latched & ~coast
            np.copyto(s.d_o, d, where=latch)
            np.copyto(s.v_o, v, where=latch)
            s.latched |= latch
            arg = 2.0 * p.a_cmf * (d - s.d_o) + s.v_o * s.v_o
            v_des = np.sqrt(np.where(arg > 0.0, arg, 0.0))  # yield_speed_profile
            a_y = _clip(-p.a_cmf + p.k_s * (v_des - v), -p.a_cmf, p.a_cmf)
            np.copyto(a, a_y, where=yielding & ~coast)
            mode[yielding & leaving] = DRIVING

        braking = mode == HARD_BRAKING
        if braking.any():
            overrun = d <= 0.0
            s.overrun |= braking & overrun
            v_des = np.where(overrun | (s.d_o <= 0.0), 0.0,
                             s.v_o / np.sqrt(s.d_o) * np.sqrt(d))  # brake_speed_profile
            a_h = _clip(-v * v / (2.0 * d) + p.k_s * (v_des - v), -p.a_max, p.a_cmf)
            np.copyto(a, np.where(overrun, -p.a_max, a_h), where=braking)
            mode[braking & leaving] = DRIVING

        speeding = mode == SPEED_UP
        if speeding.any():
            np.copyto(a, p.a_cmf, where=speeding)
            mode[speeding & (leaving | (d < 0.0))] = DRIVING

        return _clip(a, -p.a_max, p.a_cmf)

    def _enter(self, mode: Mode, d: float, v: float) -> None:
        self.mode = mode
        self.d_o = d
        self.v_o = v
        self._decel_latched = False


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``_clamp`` on arrays (``np.clip`` gives the same values, twice as slowly)."""
    return np.minimum(np.maximum(x, lo), hi)
