"""Stochastic gap-acceptance pedestrian.

Each trial's pedestrian samples one accepted gap, waits at the curb, and
starts crossing (after a short step-off latency) the first time the ego
vehicle's time gap to the walking line shrinks to that value. Pedestrians
whose accepted gap exceeds ``max_trigger_gap`` never treat the approaching
vehicle as a crossing opportunity; they wait for it to pass and then cross.
Once crossing, the walk is constant-speed and is never aborted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .core import EntrySide, PedestrianState, VehicleState, WorldGeometry, require_finite_fields

if TYPE_CHECKING:
    from .simulator import BatchState


class Phase(Enum):
    WAITING = "waiting"
    CROSSING = "crossing"
    DONE = "done"


# ``Phase`` as the codes of the batch engine's ``phase`` array.
WAITING_CODE, CROSSING_CODE, DONE_CODE = range(3)


@dataclass(frozen=True)
class GapAcceptanceModel:
    """Accepted-gap distribution and walking parameters.

    ``sigma_gap`` is a standard deviation in seconds. Draws below
    ``min_gap`` are floored there rather than redrawn, which keeps the
    sample moments within a fraction of a percent of the underlying
    normal. ``start_delay`` is the step-off latency between deciding to
    cross and the first stride. ``near_setback`` / ``far_setback`` place
    the waiting spot relative to the entry-side curb.
    """

    mu_gap: float = 4.0
    sigma_gap: float = float(np.sqrt(2.5))
    min_gap: float = 0.5
    walk_speed: float = 1.2
    max_trigger_gap: float = 6.0
    start_delay: float = 0.2
    near_setback: float = 2.5
    far_setback: float = 0.25

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.sigma_gap <= 0.0:
            raise ValueError("sigma_gap must be positive")
        if not 0.0 < self.min_gap < self.mu_gap:
            raise ValueError("need 0 < min_gap < mu_gap")
        if self.walk_speed <= 0.0:
            raise ValueError("walk_speed must be positive")
        if self.start_delay < 0.0:
            raise ValueError("start_delay must be nonnegative")


def sample_accepted_gap(model: GapAcceptanceModel, rng: np.random.Generator) -> float:
    """One accepted-gap draw, floored at the model's minimum gap."""
    return max(model.min_gap, float(rng.normal(model.mu_gap, model.sigma_gap)))


def start_position(model: GapAcceptanceModel, side: EntrySide, geometry: WorldGeometry) -> float:
    if side is EntrySide.NEAR:
        return -model.near_setback
    return geometry.roadway_width + model.far_setback


@dataclass
class PedestrianAgent:
    """One pedestrian over one trial: Waiting -> Crossing -> Done."""

    model: GapAcceptanceModel
    geometry: WorldGeometry
    accepted_gap: float
    state: PedestrianState
    phase: Phase = Phase.WAITING
    delay_left: float = field(default=-1.0)  # negative = trigger not armed yet

    @classmethod
    def spawn(
        cls,
        model: GapAcceptanceModel,
        geometry: WorldGeometry,
        side: EntrySide,
        accepted_gap: float,
    ) -> "PedestrianAgent":
        state = PedestrianState(
            x_p=start_position(model, side, geometry), xdot_p=0.0, entry_side=side
        )
        return cls(model=model, geometry=geometry, accepted_gap=accepted_gap, state=state)

    def _should_arm(self, vehicle: VehicleState) -> bool:
        if vehicle.v <= 1e-9:
            # A stopped vehicle offers an infinite gap; every pedestrian takes it.
            return True
        if self.geometry.vehicle_is_past(vehicle.d):
            return True
        if self.accepted_gap > self.model.max_trigger_gap:
            return False
        line_dist = vehicle.d + self.geometry.delta
        if line_dist <= 0.0:
            return False
        return line_dist / vehicle.v <= self.accepted_gap


def pedestrian_tick(agent: PedestrianAgent, vehicle: VehicleState, dt: float) -> PedestrianAgent:
    """Advance the pedestrian by one time step against the current ego state."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if agent.phase is Phase.DONE:
        return agent

    if agent.phase is Phase.WAITING:
        if agent.delay_left < 0.0:
            if not agent._should_arm(vehicle):
                return agent
            agent.delay_left = agent.model.start_delay
        else:
            agent.delay_left -= dt
        if agent.delay_left > 1e-9:
            return agent
        agent.phase = Phase.CROSSING
        sign = 1.0 if agent.state.entry_side is EntrySide.NEAR else -1.0
        agent.state.xdot_p = sign * agent.model.walk_speed

    agent.state.x_p += agent.state.xdot_p * dt
    width = agent.geometry.roadway_width
    if agent.state.entry_side is EntrySide.NEAR:
        done = agent.state.x_p > width
    else:
        done = agent.state.x_p < 0.0
    if done:
        agent.phase = Phase.DONE
        agent.state.xdot_p = 0.0
    return agent


def pedestrian_tick_batch(s: BatchState, model: GapAcceptanceModel, geometry: WorldGeometry,
                          dt: float) -> None:
    """``pedestrian_tick`` for every live trial of a lockstep batch, in place.

    Each masked block does the same IEEE operations as the scalar branch it
    replaces, so every pedestrian follows its scalar path bit for bit; the
    walk direction and the done test follow each trial's entry side.
    """
    waiting = s.phase == WAITING_CODE
    if waiting.any():
        unarmed = waiting & (s.delay_left < 0.0)
        line_dist = s.d + geometry.delta
        should_arm = (
            (s.v <= 1e-9)
            | geometry.vehicle_is_past(s.d)
            | ~(s.gap > model.max_trigger_gap) & (line_dist > 0.0) & (line_dist / s.v <= s.gap)
        )
        armed = unarmed & should_arm
        counting = waiting & ~unarmed
        np.copyto(s.delay_left, model.start_delay, where=armed)
        np.subtract(s.delay_left, dt, out=s.delay_left, where=counting)
        start = (armed | counting) & ~(s.delay_left > 1e-9)
        if start.any():
            s.phase[start] = CROSSING_CODE
            # sign * walk_speed with sign = 1.0 (near) or -1.0 (far), per trial
            s.xdot_p[start] = np.where(s.near[start], model.walk_speed, -model.walk_speed)

    crossing = s.phase == CROSSING_CODE
    np.add(s.x_p, s.xdot_p * dt, out=s.x_p, where=crossing)
    done = crossing & np.where(s.near, s.x_p > geometry.roadway_width, s.x_p < 0.0)
    s.phase[done] = DONE_CODE
    s.xdot_p[done] = 0.0
