"""Fixed-step world engine and Monte Carlo batch runner.

One trial couples a longitudinal controller, a point-mass plant with an
optional actuation delay, and one gap-acceptance pedestrian, all advanced
at a fixed tick. Trials are independently seeded, so batches are
reproducible and order-independent.

Both engines take their gaps and their controller from the caller and
draw nothing themselves; ``seeded_gaps`` is the one seeded draw. ``run_trial``
advances one trial with Python floats; it serves single trials and traces.
``run_batch`` advances every trial of a batch at once in a lockstep NumPy
engine (``BatchState``), whose array expressions do the same IEEE operations
in the same order as the scalar ones, so both give bitwise-equal results. One
batch may span several quadrants (lane and entry side), each trial carrying
its own.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import (
    ControllerParams,
    EntrySide,
    PedestrianState,
    VehicleState,
    WorldGeometry,
    require_finite_fields,
    whole_ticks,
)
from .hybrid import OVERRUN
from .pedestrian import (DONE_CODE, GapAcceptanceModel, PedestrianAgent, Phase, pedestrian_tick,
                         pedestrian_tick_batch, sample_accepted_gap, start_position)


class Lane(Enum):
    A = "A"
    B = "B"


class Controller(Protocol):
    """Per-tick controller: ``label`` names its current mode and
    ``safety_events`` lists the events raised since ``reset``.

    ``step_batch`` is ``step`` over the live trials of a lockstep batch: it
    reads the vehicle and pedestrian arrays of a ``BatchState`` (lane centre
    ``x_v`` and entry side included, both per trial), updates its own arrays
    there (``mode``, an index into ``modes``, whose code 0 is the mode after
    ``reset``) and returns one command per trial.
    """

    label: str
    modes: tuple[str, ...]
    safety_events: Sequence[str]

    def step(self, vehicle: VehicleState, ped: PedestrianState) -> float: ...
    def reset(self) -> None: ...
    def step_batch(self, s: BatchState, tick: int) -> np.ndarray: ...


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
        self.delay_ticks()  # raises for a delay that is not a whole number of ticks

    def lane_index(self) -> int:
        return 0 if self.lane is Lane.A else 1

    def lane_center(self) -> float:
        return self.geometry.vehicle_lane_center_x(self.lane_index())

    def delay_ticks(self) -> int:
        return whole_ticks(self.t_delay_plant, self.dt, "t_delay_plant")


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
    return deque([0.0] * whole_ticks(t_delay_plant, dt, "t_delay_plant"))


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
    """Euclidean distance from the vehicle point to the pedestrian point on the walking line.

    Spelled ``sqrt(dx*dx + dy*dy)`` rather than ``hypot``, whose NumPy and
    ``math`` versions differ in the last bit; ``BatchState.distance`` is the
    same formula on arrays.
    """
    dx = ped.x_p - vehicle.x_v
    dy = 0.0 - geometry.vehicle_y(vehicle.d)
    return math.sqrt(dx * dx + dy * dy)


def run_trial(scenario: Scenario, accepted_gap: float, controller: Controller,
              record_trace: bool = False) -> TrialResult:
    """Run one trial with the pedestrian's ``accepted_gap`` to completion and
    collect its metrics. ``controller`` is reset first, so one instance can
    serve many trials.
    """
    accepted_gap = float(accepted_gap)
    geometry = scenario.geometry
    vehicle = VehicleState(d=scenario.initial_d, v=scenario.initial_v, x_v=scenario.lane_center())
    agent = PedestrianAgent.spawn(scenario.gap_model, geometry, scenario.entry_side, accepted_gap)
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


def seeded_gaps(scenario: Scenario, n_trials: int) -> list[float]:
    """``n_trials`` accepted gaps; trial i's is drawn from seed ``scenario.seed + i``."""
    return [sample_accepted_gap(scenario.gap_model, np.random.default_rng(scenario.seed + i))
            for i in range(n_trials)]


def sweep_gaps(lo: float = 0.5, step: float = 0.1, hi: float = 10.0) -> list[float]:
    """Inclusive deterministic gap grid with exact decimal values."""
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 10) for k in range(n + 1)]


class BatchState:
    """The live trials of a lockstep batch, one array element per trial.

    Vehicle: ``d``, ``v``, ``x_v`` (the trial's lane centre). Pedestrian:
    ``near`` (entered from the near side), ``x_p``, ``xdot_p``, ``phase`` (a
    ``Phase`` code), ``delay_left``, ``gap``. Controller, written only by its
    ``step_batch`` and zero at the start: ``mode``, ``d_o``, ``v_o``,
    ``latched``, ``overrun``, ``a_prev_idx``. Plant: ``fifo``, a (trial,
    delay tick) ring of the commands not yet applied. Metrics:
    ``min_distance``, ``v_sum``, ``n_ticks``, ``peak_accel``, ``collision``,
    ``timed_out``. ``trial`` is each element's index in the batch: trial i of
    ``scenarios[k]`` is element ``k * len(gaps) + i`` and has gap ``gaps[i]``.
    """

    ARRAYS = ("trial", "d", "v", "x_v", "near", "x_p", "xdot_p", "phase", "delay_left", "gap",
              "mode", "d_o", "v_o", "latched", "overrun", "a_prev_idx", "fifo", "min_distance",
              "v_sum", "n_ticks", "peak_accel", "collision", "timed_out")
    # The arrays a finished trial's TrialResult is built from.
    RESULTS = ("min_distance", "v_sum", "n_ticks", "peak_accel", "collision", "timed_out",
               "overrun", "d")

    def __init__(self, scenarios: Sequence[Scenario], gaps: list[float]):
        sc = scenarios[0]  # every field but lane and entry_side is shared
        per_scenario = len(gaps)
        n = len(scenarios) * per_scenario

        def each(values: list) -> np.ndarray:
            return np.repeat(values, per_scenario)

        self.trial = np.arange(n)
        self.d = np.full(n, sc.initial_d)
        self.v = np.full(n, sc.initial_v)
        self.x_v = each([q.lane_center() for q in scenarios])
        self.near = each([q.entry_side is EntrySide.NEAR for q in scenarios])
        self.x_p = each([start_position(sc.gap_model, q.entry_side, sc.geometry) for q in scenarios])
        self.xdot_p = np.zeros(n)
        self.phase = np.zeros(n, dtype=np.int8)
        self.delay_left = np.full(n, -1.0)
        self.gap = np.tile(np.array(gaps, dtype=float), len(scenarios))
        self.mode = np.zeros(n, dtype=np.int8)
        self.d_o = np.zeros(n)
        self.v_o = np.zeros(n)
        self.latched = np.zeros(n, dtype=bool)
        self.overrun = np.zeros(n, dtype=bool)
        self.a_prev_idx = np.zeros(n, dtype=np.int64)
        self.fifo = np.zeros((n, sc.delay_ticks()))
        self.min_distance = self.distance(sc.geometry)
        self.v_sum = np.zeros(n)
        self.n_ticks = np.zeros(n, dtype=np.int64)
        self.peak_accel = np.zeros(n)
        self.collision = np.zeros(n, dtype=bool)
        self.timed_out = np.zeros(n, dtype=bool)

    def span_coord(self, geometry: WorldGeometry) -> np.ndarray:
        """``PedestrianState.span_coord`` per trial, for ``in_crosswalk``."""
        return np.where(self.near, self.x_p, geometry.roadway_width - self.x_p)

    def span_speed(self) -> np.ndarray:
        """``PedestrianState.span_speed`` per trial, for ``in_crosswalk``."""
        return np.where(self.near, self.xdot_p, -self.xdot_p)

    def distance(self, geometry: WorldGeometry) -> np.ndarray:
        """``vehicle_pedestrian_distance`` on arrays."""
        dx = self.x_p - self.x_v
        dy = 0.0 - geometry.vehicle_y(self.d)
        return np.sqrt(dx * dx + dy * dy)

    def retire(self, finished: np.ndarray, out: BatchState) -> None:
        """Copy the results of the ``finished`` trials into ``out`` and drop them."""
        idx = self.trial[finished]
        for name in self.RESULTS:
            getattr(out, name)[idx] = getattr(self, name)[finished]
        live = ~finished
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[live])


def plant_tick_batch(s: BatchState, commanded_a: np.ndarray, dt: float, tick: int) -> None:
    """``plant_tick`` for every live trial of a lockstep batch, in place.

    Every trial starts at tick 0, so the delay ring has one shared head.
    """
    n_delay = s.fifo.shape[1]
    if n_delay:
        head = tick % n_delay
        a = s.fifo[:, head].copy()
        s.fifo[:, head] = commanded_a
    else:
        a = commanded_a
    v = s.v
    v_next = v + a * dt
    stops = (a < 0.0) & (v_next < 0.0)  # stops inside this step
    s.d = np.where(stops, s.d - v * v / (-2.0 * a), s.d - (v * dt + 0.5 * a * dt * dt))
    s.v = np.where(v_next > 0.0, v_next, 0.0)


def run_batch(scenarios: Sequence[Scenario], gaps: Sequence[float],
              controller: Controller) -> list[TrialResult]:
    """Run trial i with accepted gap ``gaps[i]`` and seed ``seed + i`` in every
    scenario, all driven by ``controller`` (its scalar state is not touched).

    The scenarios (a run's quadrants) may differ only in ``lane`` and
    ``entry_side``. All trials of all scenarios advance together in the
    lockstep engine, and each result is bitwise equal to ``run_trial`` on the
    trial's own scenario, seed and gap. Returns one block of results per
    scenario, in order: trial i of ``scenarios[k]`` is at ``k * len(gaps) + i``.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    scenario = scenarios[0]
    for other in scenarios[1:]:
        if replace(other, lane=scenario.lane, entry_side=scenario.entry_side) != scenario:
            raise ValueError("a batch's scenarios may differ only in lane and entry_side")
    gaps = [float(g) for g in gaps]
    if not gaps:
        raise ValueError("need at least one gap")

    geometry, dt = scenario.geometry, scenario.dt
    s = BatchState(scenarios, gaps)
    out = BatchState(scenarios, gaps)
    modes = controller.modes
    switches: list[tuple[int, float, str]] = []  # (trial, t, label)
    t = 0.0
    tick = 0
    # Masked-out lanes may divide by zero or take a root of a negative number.
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(s.trial):
            if t >= scenario.max_sim_time:
                s.timed_out[:] = True
                s.retire(np.ones(len(s.trial), dtype=bool), out)
                break
            before = s.mode.copy()
            a_cmd = controller.step_batch(s, tick)
            for k in np.flatnonzero(s.mode != before).tolist():
                switches.append((int(s.trial[k]), t, modes[s.mode[k]]))
            v_before = s.v
            plant_tick_batch(s, a_cmd, dt, tick)
            a_actual = (s.v - v_before) / dt
            pedestrian_tick_batch(s, scenario.gap_model, geometry, dt)
            t += dt
            tick += 1

            dist = s.distance(geometry)
            np.copyto(s.min_distance, dist, where=dist < s.min_distance)
            s.collision = dist < scenario.collision_radius
            counted = ~s.collision
            np.add(s.v_sum, s.v, out=s.v_sum, where=counted)
            np.add(s.n_ticks, 1, out=s.n_ticks, where=counted)
            accel = np.abs(a_actual)
            np.copyto(s.peak_accel, accel, where=counted & (accel > s.peak_accel))

            finished = s.collision | (s.phase == DONE_CODE) & geometry.vehicle_is_past(s.d)
            if finished.any():
                s.retire(finished, out)

    n_total = len(out.trial)
    mode_traces: list[list[tuple[float, str]]] = [[(0.0, modes[0])] for _ in range(n_total)]
    for k, t_switch, label in switches:
        mode_traces[k].append((t_switch, label))
    final = {name: getattr(out, name).tolist() for name in BatchState.RESULTS}  # Python scalars
    results = []
    for k in range(n_total):
        i = k % len(gaps)
        events = [OVERRUN] if final["overrun"][k] else []
        if final["timed_out"][k]:
            events.append("timed_out")
        n_ticks = final["n_ticks"][k]
        results.append(TrialResult(
            accepted_gap=gaps[i],
            min_distance=final["min_distance"][k],
            avg_velocity=final["v_sum"][k] / n_ticks if n_ticks else 0.0,
            peak_accel=final["peak_accel"][k],
            collision=final["collision"][k],
            timed_out=final["timed_out"][k],
            mode_trace=mode_traces[k],
            safety_events=events,
            final_d=final["d"][k],
            seed=scenario.seed + i,
        ))
    return results
