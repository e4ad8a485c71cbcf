"""Fixed-step world engine and Monte Carlo batch runner.

One trial couples a longitudinal controller, a point-mass plant with an
optional actuation delay, and one gap-acceptance pedestrian, all advanced
at a fixed tick. Trials are independently seeded, so batches are
reproducible and order-independent.

Both engines take their gaps and their controller from the caller and
draw nothing themselves; ``seeded_gaps`` is the one seeded draw. Both hold a
trial in one record, ``TrialState``: the same fields, names and integer codes,
entry side included, so a controller keeps no per-trial state and serves every
trial of a run. ``run_trial`` advances one trial in Python floats with
branches; it serves single trials and traces. ``run_batch`` advances every
trial of a batch at once in a lockstep NumPy engine (``BatchState``, the same
fields as arrays) with masks, whose array expressions do the same IEEE
operations in the same order as the scalar ones, so both give bitwise-equal
results. One batch may span several quadrants (lane and entry side), each trial
carrying its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import ControllerParams, EntrySide, WorldGeometry, require_finite_fields, whole_ticks
from .pedestrian import (DONE_CODE, WAITING_CODE, GapAcceptanceModel, pedestrian_tick,
                         pedestrian_tick_batch, sample_accepted_gap)


class Lane(Enum):
    A = "A"
    B = "B"


OVERRUN = "hard_braking_overrun"


class Controller(Protocol):
    """Per-tick controller, one instance shared by every trial it drives.

    A controller keeps no per-trial state. ``step`` reads one trial's
    ``TrialState`` at tick ``tick`` (0 at the trial's start), updates the
    controller fields there (``mode``, an index into ``modes``, whose code 0 is
    the mode at the start) and returns the command. ``step_batch`` is ``step``
    over the live trials of a lockstep batch: the same fields as the arrays of
    a ``BatchState``, and one command per trial.
    """

    modes: tuple[str, ...]

    def step(self, s: TrialState, tick: int) -> float: ...
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
        if self.initial_v < 0.0:
            raise ValueError("initial_v must be non-negative")
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
    trace: Optional[list[tuple]] = None

    def mode_sequence(self) -> str:
        return "|".join(m for _, m in self.mode_trace)

    def visited_modes(self) -> set[str]:
        return {m for _, m in self.mode_trace}


class TrialState:
    """One trial's state, in the one encoding both engines use.

    ``run_trial`` holds a trial in Python floats, ints and bools; a
    ``BatchState`` holds the same fields as arrays, one element per trial, and
    the methods below serve both.

    Vehicle: ``d``, ``v`` and ``x_v`` (the lane centre). Pedestrian: ``x_p``,
    ``xdot_p``, ``phase`` (``WAITING_CODE``, ``CROSSING_CODE`` or
    ``DONE_CODE``), ``delay_left`` (negative until the step-off is armed),
    ``gap`` (the accepted gap), and three constants of the entry side, which
    replace per-side branches with exact arithmetic: ``sgn`` (1.0 near, -1.0
    far), ``off`` (0.0 near, roadway_width far) and ``lim`` (roadway_width
    near, 0.0 far). Controller, written only by its ``step`` or ``step_batch``
    and zero at the start: ``mode``, ``d_o``, ``v_o``, ``latched``, ``overrun``
    and ``a_prev_idx``.
    """

    __slots__ = ("d", "v", "x_v", "sgn", "off", "lim", "x_p", "xdot_p", "phase", "delay_left",
                 "gap", "mode", "d_o", "v_o", "latched", "overrun", "a_prev_idx")

    def __init__(self, scenario: Scenario, gap: float):
        """The start of a trial on ``scenario``'s lane and entry side with accepted gap ``gap``."""
        width, model = scenario.geometry.roadway_width, scenario.gap_model
        self.d, self.v, self.x_v = scenario.initial_d, scenario.initial_v, scenario.lane_center()
        if scenario.entry_side is EntrySide.NEAR:  # waiting on the sidewalk before the curb
            self.sgn, self.off, self.lim, self.x_p = 1.0, 0.0, width, -model.near_setback
        else:
            self.sgn, self.off, self.lim, self.x_p = -1.0, width, 0.0, width + model.far_setback
        self.xdot_p, self.phase, self.delay_left, self.gap = 0.0, WAITING_CODE, -1.0, gap
        self.mode, self.d_o, self.v_o, self.latched, self.overrun, self.a_prev_idx = (
            0, 0.0, 0.0, False, False, 0)

    def span_coord(self):
        """Progress along the crossing from the entry-side curb: ``x_p`` near side
        and ``roadway_width - x_p`` far side, both exactly (a zero may change
        sign, which no comparison sees)."""
        return self.sgn * self.x_p + self.off

    def span_speed(self):
        """Signed speed in the crossing direction (positive = into the road)."""
        return self.sgn * self.xdot_p

    def crossed(self):
        """Whether the pedestrian has left the road: ``x_p > roadway_width`` near
        side, ``x_p < 0.0`` far side (``-x_p > 0.0`` is the same test)."""
        return self.sgn * self.x_p > self.lim

    def walking_line(self, geometry: WorldGeometry):
        """``d + delta``, the vehicle's distance to the walking line (its y is
        ``-(d + delta)``), and whether the vehicle has cleared the stripe by a
        1 m margin, ``y > depth / 2 + 1``, spelled ``d + delta < -margin`` since
        negation is exact."""
        line = self.d + geometry.delta
        return line, line < -(geometry.crosswalk_depth / 2.0 + 1.0)


def plant_tick(s: TrialState, commanded_a: float, dt: float, fifo: list[float], tick: int) -> None:
    """Advance the point-mass plant one step under the (possibly delayed) command.

    ``fifo`` is the ring of the commands not yet applied, one per delay tick
    and empty when there is no actuation delay; tick ``tick`` applies the
    command at its head ``tick % len(fifo)`` and stores ``commanded_a`` there.
    Exact constant-acceleration kinematics within the step; the vehicle
    never reverses, so a braking step that would cross zero speed stops
    exactly at the stopping distance.
    """
    if fifo:
        head = tick % len(fifo)
        a = fifo[head]
        fifo[head] = commanded_a
    else:
        a = commanded_a
    v = s.v
    if a < 0.0 and v + a * dt < 0.0:
        s.d -= v * v / (-2.0 * a)  # stops inside this step
        s.v = 0.0
        return
    s.d -= v * dt + 0.5 * a * dt * dt
    s.v = max(0.0, v + a * dt)


def vehicle_pedestrian_distance(s: TrialState, line: float) -> float:
    """Euclidean distance from the vehicle point to the pedestrian point on the
    walking line, given ``walking_line``'s ``line``, which is the vehicle's y
    up to its sign.

    Spelled ``sqrt(dx*dx + dy*dy)`` rather than ``hypot``, whose NumPy and
    ``math`` versions differ in the last bit; ``BatchState.distance`` is the
    same formula on arrays.
    """
    dx = s.x_p - s.x_v
    return math.sqrt(dx * dx + line * line)


def trial_events(overrun: bool, timed_out: bool) -> list[str]:
    """A finished trial's safety events, as ``TrialResult`` lists them."""
    events = [OVERRUN] if overrun else []
    if timed_out:
        events.append("timed_out")
    return events


def run_trial(scenario: Scenario, accepted_gap: float, controller: Controller) -> TrialResult:
    """Run one trial with the pedestrian's ``accepted_gap`` to completion and
    collect its metrics and its trace, one row per counted tick. The trial's
    state is its own ``TrialState``, so one controller can serve many trials.
    """
    accepted_gap = float(accepted_gap)
    geometry, dt = scenario.geometry, scenario.dt
    s = TrialState(scenario, accepted_gap)
    fifo = [0.0] * scenario.delay_ticks()

    # Read once per trial. plant_tick, pedestrian_tick and
    # vehicle_pedestrian_distance stay module lookups on every tick.
    step, modes, model = controller.step, controller.modes, scenario.gap_model
    max_sim_time, collision_radius = scenario.max_sim_time, scenario.collision_radius

    t = 0.0
    tick = 0
    min_distance = vehicle_pedestrian_distance(s, s.walking_line(geometry)[0])
    v_sum = 0.0
    peak_accel = 0.0
    collision = False
    timed_out = False
    mode = s.mode
    label = modes[mode]
    mode_trace: list[tuple[float, str]] = [(0.0, label)]
    trace: list[tuple] = []  # one row per tick that counts towards the metrics

    while True:
        if t >= max_sim_time:
            timed_out = True
            break
        a_cmd = step(s, tick)
        if s.mode != mode:
            mode = s.mode
            label = modes[mode]
            mode_trace.append((t, label))
        v_before = s.v
        plant_tick(s, a_cmd, dt, fifo, tick)
        a_actual = (s.v - v_before) / dt
        line, past = s.walking_line(geometry)
        pedestrian_tick(s, model, dt, line, past)
        t += dt
        tick += 1

        dist = vehicle_pedestrian_distance(s, line)
        if dist < min_distance:
            min_distance = dist
        if dist < collision_radius:
            collision = True
            break
        v_sum += s.v
        if abs(a_actual) > peak_accel:
            peak_accel = abs(a_actual)
        trace.append((t, s.d, s.v, a_cmd, a_actual, s.x_p, label))

        if s.phase == DONE_CODE and past:
            break

    return TrialResult(
        accepted_gap=accepted_gap,
        min_distance=min_distance,
        avg_velocity=v_sum / len(trace) if trace else 0.0,
        peak_accel=peak_accel,
        collision=collision,
        timed_out=timed_out,
        mode_trace=mode_trace,
        safety_events=trial_events(s.overrun, timed_out),
        final_d=s.d,
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


class BatchState(TrialState):
    """The live trials of a lockstep batch: every ``TrialState`` field as an
    array with one element per trial, plus the batch's own arrays.

    Plant: ``fifo``, a (trial, delay tick) ring of the commands not yet
    applied. Metrics: ``min_distance``, ``v_sum``, ``peak_accel`` and
    ``collision`` (this tick's). ``trial`` is each element's index in the
    batch: trial i of ``scenarios[k]`` is element ``k * len(gaps) + i`` and has
    gap ``gaps[i]``.
    """

    __slots__ = ("trial", "fifo", "min_distance", "v_sum", "peak_accel", "collision")
    ARRAYS = TrialState.__slots__ + __slots__
    # The arrays a finished trial's TrialResult is built from.
    RESULTS = ("min_distance", "v_sum", "peak_accel", "collision", "overrun", "d")

    def __init__(self, scenarios: Sequence[Scenario], gaps: list[float]):
        sc = scenarios[0]  # every field but lane and entry_side is shared
        per_scenario = len(gaps)
        n = len(scenarios) * per_scenario
        starts = [TrialState(q, 0.0) for q in scenarios]
        for name in TrialState.__slots__:
            values = np.repeat([getattr(start, name) for start in starts], per_scenario)
            setattr(self, name, values.astype(np.int8) if name in ("phase", "mode") else values)
        self.gap = np.tile(np.array(gaps, dtype=float), len(scenarios))
        self.trial = np.arange(n)
        self.fifo = np.zeros((n, sc.delay_ticks()))
        self.min_distance = self.distance(self.walking_line(sc.geometry)[0])
        self.v_sum = np.zeros(n)
        self.peak_accel = np.zeros(n)
        self.collision = np.zeros(n, dtype=bool)

    def distance(self, line: np.ndarray) -> np.ndarray:
        """``vehicle_pedestrian_distance`` on arrays, given ``walking_line``'s ``line``."""
        dx = self.x_p - self.x_v
        return np.sqrt(dx * dx + line * line)

    def retire(self, finished: np.ndarray, out: dict[str, np.ndarray], tick: int) -> None:
        """Copy the ``RESULTS`` of the ``finished`` trials into ``out`` and drop them.

        They ran ``tick`` ticks, and ``n_ticks`` counts all but a colliding one.
        The integer indices are found once and serve every gather.
        """
        done = np.flatnonzero(finished)
        idx = self.trial[done]
        for name in self.RESULTS:
            out[name][idx] = getattr(self, name)[done]
        out["n_ticks"][idx] = tick - self.collision[done]
        live = np.flatnonzero(~finished)
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[live])


# Tick primitives: np.count_nonzero, never .any(); np.putmask, never copyto(where=) or mask stores.


def plant_tick_batch(s: BatchState, commanded_a: np.ndarray, dt: float, tick: int) -> None:
    """``plant_tick`` for every live trial of a lockstep batch, in place.

    Every trial starts at tick 0, so the delay ring has one shared head. A
    trial stops inside the step when ``v + a * dt < 0.0``, which with
    ``v >= 0.0`` implies the scalar test's ``a < 0.0``.
    """
    n_delay = s.fifo.shape[1]
    if n_delay:
        head = tick % n_delay
        a = s.fifo[:, head].copy()
        s.fifo[:, head] = commanded_a
    else:
        a = commanded_a
    d, v = s.d, s.v
    v_next = v + a * dt
    s.d = d - (v * dt + 0.5 * a * dt * dt)
    stops = v_next < 0.0
    if np.count_nonzero(stops):
        np.putmask(s.d, stops, d - v * v / (-2.0 * a))
    s.v = np.where(v_next > 0.0, v_next, 0.0)  # max(0.0, v_next), which maps -0.0 to 0.0


def run_batch(scenarios: Sequence[Scenario], gaps: Sequence[float],
              controller: Controller) -> list[TrialResult]:
    """Run trial i with accepted gap ``gaps[i]`` and seed ``seed + i`` in every
    scenario, all driven by ``controller``.

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
    n_total = len(s.trial)
    out = {name: np.zeros(n_total, dtype=getattr(s, name).dtype) for name in BatchState.RESULTS}
    out["n_ticks"] = np.zeros(n_total, dtype=np.int64)
    out["timed_out"] = np.zeros(n_total, dtype=bool)
    modes = controller.modes
    switches: list[tuple[int, float, str]] = []  # (trial, t, label)
    t = 0.0
    tick = 0
    # Masked-out lanes may divide by zero, overflow (a speed near 5e-324) or take
    # a root of a negative number. An overflow that counts is inf, as in Python.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(s.trial):
            if t >= scenario.max_sim_time:
                out["timed_out"][s.trial] = True
                s.retire(np.ones(len(s.trial), dtype=bool), out, tick)
                break
            before = s.mode.copy() if len(modes) > 1 else None
            a_cmd = controller.step_batch(s, tick)
            if before is not None:
                changed = s.mode != before
                if np.count_nonzero(changed):
                    for k in np.flatnonzero(changed).tolist():
                        switches.append((int(s.trial[k]), t, modes[s.mode[k]]))
            v_before = s.v
            plant_tick_batch(s, a_cmd, dt, tick)
            a_actual = (s.v - v_before) / dt
            line, past = s.walking_line(geometry)
            pedestrian_tick_batch(s, scenario.gap_model, dt, line, past)
            t += dt
            tick += 1

            # Neither operand of np.minimum / np.maximum is ever -0.0 (a root
            # and an absolute value), so each is the scalar ``if x < m: m = x``.
            dist = s.distance(line)
            np.minimum(s.min_distance, dist, out=s.min_distance)
            s.collision = dist < scenario.collision_radius
            collided = np.count_nonzero(s.collision)
            accel = np.abs(a_actual)
            if collided:  # a colliding trial's last tick is not counted
                counted = ~s.collision
                np.add(s.v_sum, s.v, out=s.v_sum, where=counted)
                np.maximum(s.peak_accel, accel, out=s.peak_accel, where=counted)
            else:
                s.v_sum += s.v
                np.maximum(s.peak_accel, accel, out=s.peak_accel)

            finished = (s.phase == DONE_CODE) & past
            if collided:
                finished |= s.collision
            if np.count_nonzero(finished):
                s.retire(finished, out, tick)

    mode_traces: list[list[tuple[float, str]]] = [[(0.0, modes[0])] for _ in range(n_total)]
    for k, t_switch, label in switches:
        mode_traces[k].append((t_switch, label))
    final = {name: values.tolist() for name, values in out.items()}  # Python scalars
    results = []
    for k in range(n_total):
        i = k % len(gaps)
        n_ticks = final["n_ticks"][k]
        results.append(TrialResult(
            accepted_gap=gaps[i],
            min_distance=final["min_distance"][k],
            avg_velocity=final["v_sum"][k] / n_ticks if n_ticks else 0.0,
            peak_accel=final["peak_accel"][k],
            collision=final["collision"][k],
            timed_out=final["timed_out"][k],
            mode_trace=mode_traces[k],
            safety_events=trial_events(final["overrun"][k], final["timed_out"][k]),
            final_d=final["d"][k],
        ))
    return results
