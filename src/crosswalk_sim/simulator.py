"""Fixed-step world engine and Monte Carlo batch runner.

One trial couples a longitudinal controller, a point-mass plant with an
optional actuation delay, and one gap-acceptance pedestrian, all advanced
at a fixed tick. Trials are independently seeded, so batches are
reproducible and order-independent.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .core import (
    ControllerParams,
    EntrySide,
    PedestrianState,
    VehicleState,
    WorldGeometry,
    require_finite_fields,
)
from .hybrid import HybridController
from .pedestrian import GapAcceptanceModel, PedestrianAgent, Phase, pedestrian_tick, sample_accepted_gap


class Lane(Enum):
    A = "A"
    B = "B"


class Controller(Protocol):
    """Per-tick controller: ``label`` names its current mode and
    ``safety_events`` lists the events raised since ``reset``."""

    label: str
    safety_events: Sequence[str]

    def step(self, vehicle: VehicleState, ped: PedestrianState) -> float: ...
    def reset(self) -> None: ...


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one trial deterministically."""

    geometry: WorldGeometry
    params: ControllerParams
    gap_model: GapAcceptanceModel
    lane: Lane = Lane.A
    entry_side: EntrySide = EntrySide.NEAR
    initial_d: float = 50.0
    initial_v: float = 4.5
    dt: float = 0.05
    t_delay_plant: float = 0.0
    max_sim_time: float = 60.0
    seed: int = 0
    collision_radius: float = 1.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.max_sim_time <= 0.0:
            raise ValueError("max_sim_time must be positive")
        if self.t_delay_plant < 0.0:
            raise ValueError("t_delay_plant must be non-negative")
        if self.collision_radius <= 0.0:
            raise ValueError("collision_radius must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.lane_center()  # raises for a lane the road does not have

    def lane_index(self) -> int:
        return 0 if self.lane is Lane.A else 1

    def lane_center(self) -> float:
        return self.geometry.vehicle_lane_center_x(self.lane_index())


@dataclass
class TrialResult:
    accepted_gap: float
    min_distance: float
    avg_velocity: float
    peak_accel: float
    collision: bool
    timed_out: bool
    mode_trace: list[tuple[float, str]]
    safety_events: list[str]
    final_d: float
    seed: int
    trace: Optional[list[tuple]] = None

    def mode_sequence(self) -> str:
        return "|".join(m for _, m in self.mode_trace)

    def visited_modes(self) -> set[str]:
        return {m for _, m in self.mode_trace}


def make_delay_buffer(t_delay_plant: float, dt: float) -> deque:
    """FIFO of pending commands; empty when there is no actuation delay."""
    n = int(round(t_delay_plant / dt))
    return deque([0.0] * n)


def plant_tick(vehicle: VehicleState, commanded_a: float, dt: float, delay_buffer: deque) -> VehicleState:
    """Advance the point-mass plant one step under the (possibly delayed) command.

    Exact constant-acceleration kinematics within the step; the vehicle
    never reverses, so a braking step that would cross zero speed stops
    exactly at the stopping distance.
    """
    if delay_buffer:
        delay_buffer.append(commanded_a)
        a = delay_buffer.popleft()
    else:
        a = commanded_a
    v = vehicle.v
    if a < 0.0 and v + a * dt < 0.0:
        vehicle.d -= v * v / (-2.0 * a)  # stops inside this step
        vehicle.v = 0.0
        return vehicle
    vehicle.d -= v * dt + 0.5 * a * dt * dt
    vehicle.v = max(0.0, v + a * dt)
    return vehicle


def vehicle_pedestrian_distance(vehicle: VehicleState, ped: PedestrianState, geometry: WorldGeometry) -> float:
    """Euclidean distance from the vehicle point to the pedestrian point on the walking line."""
    return math.hypot(ped.x_p - vehicle.x_v, 0.0 - geometry.vehicle_y(vehicle.d))


def run_trial(
    scenario: Scenario,
    accepted_gap_override: Optional[float] = None,
    controller: Optional[Controller] = None,
    record_trace: bool = False,
) -> TrialResult:
    """Run one seeded trial to completion and collect its metrics.

    ``controller`` may supply a pre-built controller, which is reset first
    (used for the solved policy baseline); by default a fresh hybrid
    controller is used.
    """
    rng = np.random.default_rng(scenario.seed)
    accepted_gap = (
        float(accepted_gap_override)
        if accepted_gap_override is not None
        else sample_accepted_gap(scenario.gap_model, rng)
    )

    geometry = scenario.geometry
    vehicle = VehicleState(d=scenario.initial_d, v=scenario.initial_v, x_v=scenario.lane_center())
    agent = PedestrianAgent.spawn(scenario.gap_model, geometry, scenario.entry_side, accepted_gap)

    if controller is None:
        controller = HybridController(scenario.params, geometry, dt=scenario.dt)
    else:
        controller.reset()

    buffer = make_delay_buffer(scenario.t_delay_plant, scenario.dt)
    dt = scenario.dt

    t = 0.0
    min_distance = vehicle_pedestrian_distance(vehicle, agent.state, geometry)
    v_sum = 0.0
    n_ticks = 0
    peak_accel = 0.0
    collision = False
    timed_out = False
    mode_trace: list[tuple[float, str]] = [(0.0, controller.label)]
    trace: Optional[list[tuple]] = [] if record_trace else None

    while True:
        if t >= scenario.max_sim_time:
            timed_out = True
            break
        a_cmd = controller.step(vehicle, agent.state)
        label = controller.label
        if label != mode_trace[-1][1]:
            mode_trace.append((t, label))
        v_before = vehicle.v
        plant_tick(vehicle, a_cmd, dt, buffer)
        a_actual = (vehicle.v - v_before) / dt
        pedestrian_tick(agent, vehicle, dt)
        t += dt

        dist = vehicle_pedestrian_distance(vehicle, agent.state, geometry)
        if dist < min_distance:
            min_distance = dist
        if dist < scenario.collision_radius:
            collision = True
            break
        v_sum += vehicle.v
        n_ticks += 1
        if abs(a_actual) > peak_accel:
            peak_accel = abs(a_actual)
        if record_trace:
            trace.append((t, vehicle.d, vehicle.v, a_cmd, a_actual, agent.state.x_p, label))

        if agent.phase is Phase.DONE and geometry.vehicle_is_past(vehicle.d):
            break

    events = list(controller.safety_events)
    if timed_out:
        events.append("timed_out")
    return TrialResult(
        accepted_gap=accepted_gap,
        min_distance=min_distance,
        avg_velocity=v_sum / n_ticks if n_ticks else 0.0,
        peak_accel=peak_accel,
        collision=collision,
        timed_out=timed_out,
        mode_trace=mode_trace,
        safety_events=events,
        final_d=vehicle.d,
        seed=scenario.seed,
        trace=trace,
    )


def sweep_gaps(lo: float = 0.5, step: float = 0.1, hi: float = 10.0) -> list[float]:
    """Inclusive deterministic gap grid with exact decimal values."""
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 10) for k in range(n + 1)]


def run_batch(
    scenario: Scenario,
    n_trials: Optional[int] = None,
    gap_sweep: Optional[list[float]] = None,
    controller_factory: Optional[Callable[[], Controller]] = None,
) -> list[TrialResult]:
    """Run independently seeded trials (seed_i = base_seed + i) or a gap sweep."""
    if (n_trials is None) == (gap_sweep is None):
        raise ValueError("pass exactly one of n_trials or gap_sweep")
    gaps: list[Optional[float]]
    if gap_sweep is not None:
        gaps = list(gap_sweep)
    else:
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        gaps = [None] * n_trials

    results = []
    for i, g in enumerate(gaps):
        trial_scenario = replace(scenario, seed=scenario.seed + i)
        controller = controller_factory() if controller_factory is not None else None
        results.append(run_trial(trial_scenario, accepted_gap_override=g, controller=controller))
    return results
