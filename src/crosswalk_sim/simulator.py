"""Fixed-step world engine and Monte Carlo batch runner.

One trial couples a longitudinal controller, a point-mass plant with an
optional actuation delay, and one gap-acceptance pedestrian, all advanced
at a fixed tick. Trials are independently seeded, so batches are
reproducible and order-independent.

Both engines take their gaps and their controllers from the caller and
draw nothing themselves; ``seeded_gaps`` is the one seeded draw. Both hold a
trial in one record, ``TrialState``: the same fields, names and integer codes,
entry side included, so a controller keeps no per-trial state and serves every
trial of a run. ``run_trial`` advances one trial in Python floats with
branches; it serves single trials and traces. ``run_batch`` advances a batch
at once in a lockstep NumPy engine (``BatchState``, the same fields as arrays)
with masks, whose array expressions do the same IEEE operations in the same
order as the scalar ones, so both give bitwise-equal results. One batch may
span several quadrants (lane and entry side), each row carrying its own, and
several controllers, each stepping its own block of rows.

A lockstep row is a gap class, not a trial. A trial reads its accepted gap only
in its waiting pedestrian's arm test, which no controller reads, so trials whose
pedestrians arm on the same tick are the same trial. ``gap_classes`` finds those
classes from the trace of one ``run_trial`` per quadrant, and ``run_batch`` runs
one row per (quadrant, class) and hands each trial its class's result, which is
exact, not an approximation. A ``TrialResult`` is immutable and holds no gap, so
the trials of a class share one; the gaps stay with the caller. Rows never move:
a row's result is built on the tick it finishes, and the row then ticks on unread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import Optional, Protocol, Sequence

import numpy as np

from .core import (ControllerParams, EntrySide, WorldGeometry, bound, require_finite_fields,
                   whole_ticks)
from .pedestrian import (CROSSING_CODE, DONE_CODE, WAITING_CODE, GapAcceptanceModel, arming_gap,
                         arms, pedestrian_tick, pedestrian_tick_batch, sample_accepted_gap)


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
    over the rows of a lockstep batch: the same fields as the arrays of a
    ``BatchState``, and one command per row. It also runs on finished rows, so
    it must accept any state a finished row reaches.

    ``step_batch`` writes its fields in place, as ``run_batch`` writes every
    other field, since it steps a view of its controller's rows of a larger
    batch (``BatchState.rows``). It is not called once none of those rows is live.
    It binds its scalar operands once, as 0-d arrays (``core.bound``), not on
    every call, and not in the constructor: ``replay`` builds controllers that
    only ``step``.

    Neither reads the trial's ``gap``: ``run_batch``'s gap classes rely on it,
    since they hold the trials whose pedestrians arm on one tick to be one trial.
    """

    modes: tuple[str, ...]

    def step(self, s: TrialState, tick: int) -> float: ...
    def step_batch(self, s: BatchState, tick: int) -> np.ndarray: ...


@dataclass(frozen=True)
class Scenario:
    """Everything but the accepted gap needed to run one trial deterministically.

    No field has a default: ``RunConfig.scenario`` builds one from the
    config. The gap comes from the caller, so a scenario holds no seed.
    """

    geometry: WorldGeometry
    params: ControllerParams
    gap_model: GapAcceptanceModel
    lane: Lane
    entry_side: EntrySide
    initial_d: float
    initial_v: float
    dt: float
    t_delay_plant: float
    max_sim_time: float
    collision_radius: float

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
        self.lane_center()  # raises for a lane the road does not have
        self.delay_ticks()  # raises for a delay that is not a whole number of ticks

    def lane_index(self) -> int:
        return 0 if self.lane is Lane.A else 1

    def lane_center(self) -> float:
        return self.geometry.vehicle_lane_center_x(self.lane_index())

    def delay_ticks(self) -> int:
        return whole_ticks(self.t_delay_plant, self.dt, "t_delay_plant")


@dataclass(frozen=True)
class TrialResult:
    """The outcome of a trial, shared by every trial of its gap class in
    ``run_batch``; the accepted gap stays with the caller."""

    min_distance: float
    avg_velocity: float
    peak_accel: float
    collision: bool
    timed_out: bool
    mode_trace: tuple[tuple[float, str], ...]
    safety_events: tuple[str, ...]
    final_d: float
    trace: Optional[list[tuple]] = None

    def mode_sequence(self) -> str:
        return "|".join(m for _, m in self.mode_trace)

    def visited_modes(self) -> set[str]:
        return {m for _, m in self.mode_trace}


class TrialState:
    """One trial's state, in the one encoding both engines use.

    ``run_trial`` holds a trial in Python floats, ints and bools; a
    ``BatchState`` holds the same fields as arrays, one element per row, and
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


def trial_events(overrun: bool, timed_out: bool) -> tuple[str, ...]:
    """A finished trial's safety events, as ``TrialResult`` lists them."""
    return ((OVERRUN,) if overrun else ()) + (("timed_out",) if timed_out else ())


def run_trial(scenario: Scenario, accepted_gap: float, controller: Controller) -> TrialResult:
    """Run one trial with the pedestrian's ``accepted_gap`` to completion and
    collect its metrics and its trace, one row per tick it runs; the metrics
    leave out a colliding tick, the last row, but for its distance. The trial's
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
    trace: list[tuple] = []  # one row per tick, a colliding one included

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

        trace.append((t, s.d, s.v, a_cmd, a_actual, s.x_p, label))
        dist = vehicle_pedestrian_distance(s, line)
        if dist < min_distance:
            min_distance = dist
        if dist < collision_radius:
            collision = True
            break
        v_sum += s.v
        if abs(a_actual) > peak_accel:
            peak_accel = abs(a_actual)

        if s.phase == DONE_CODE and past:
            break

    n = len(trace) - collision  # the ticks the metrics count: not a colliding one
    return TrialResult(
        min_distance=min_distance,
        avg_velocity=v_sum / n if n else 0.0,
        peak_accel=peak_accel,
        collision=collision,
        timed_out=timed_out,
        mode_trace=tuple(mode_trace),
        safety_events=trial_events(s.overrun, timed_out),
        final_d=s.d,
        trace=trace,
    )


def seeded_gaps(gap_model: GapAcceptanceModel, seed: int, n_trials: int) -> list[float]:
    """``n_trials`` accepted gaps; trial i's is drawn from seed ``seed + i``."""
    return [sample_accepted_gap(gap_model, np.random.default_rng(seed + i))
            for i in range(n_trials)]


def sweep_gaps(lo: float, step: float, hi: float) -> list[float]:
    """Deterministic gap grid from ``lo`` in steps of ``step`` with exact decimal
    values, up to ``hi`` inclusive: a last point within 1e-9 steps of ``hi`` counts
    as ``hi``, so a step that divides the range ends the grid on it."""
    n = math.floor((hi - lo) / step + 1e-9)
    return [round(lo + k * step, 10) for k in range(n + 1)]


def class_edges(scenario: Scenario, controller: Controller) -> list[float]:
    """The edges of ``gap_classes`` on ``scenario``: the record lows, in falling
    order, of the time gap ``line / v`` (``line > 0``) that a waiting pedestrian
    reads at each tick of a reference trial.

    The reference is ``run_trial``'s trial with an infinite accepted gap, whose
    pedestrian never arms on time gap, cut before the first tick that arms every
    pedestrian (the vehicle stopped); once the vehicle has passed, ``line`` only
    falls and adds no edge, so ``past`` may read False. A colliding tick adds one.
    The reference pedestrian steps off at once and walks past the far curb in one
    tick: no tick before it arms reads ``start_delay`` or ``walk_speed`` (the
    controllers hold their own models) and no tick after it adds an edge, so the
    edges are the same, and the trial ends on the tick the vehicle clears the
    stripe instead of running on while a pedestrian walks.
    """
    gm = scenario.gap_model
    reach = scenario.geometry.roadway_width + max(gm.near_setback, gm.far_setback, 0.0) + 1.0
    sprint = replace(gm, start_delay=0.0, walk_speed=min(reach / scenario.dt, sys.float_info.max))
    trace = run_trial(replace(scenario, gap_model=sprint), math.inf, controller).trace
    d, v = (np.fromiter((row[k] for row in trace), float, len(trace)) for k in (1, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # v == 0 after the cut
        least = arming_gap(v, d + scenario.geometry.delta, False, tick_operands(scenario))
    least = least[:np.argmax(np.append(least, -np.inf) == -np.inf)]
    lowest_before = np.minimum.accumulate(np.concatenate(([np.inf], least)))[:-1]
    return least[least < lowest_before].tolist()


def gap_classes(scenario: Scenario, controller: Controller, gaps: Sequence[float]) -> list[int]:
    """The class of each of ``gaps`` on ``scenario``: trials whose gaps share a
    class have one result.

    A trial reads its gap only in the arm test of its waiting pedestrian (no
    controller reads it), so its gap matters only through the tick where the
    pedestrian arms. Until then every trial of the scenario is the reference
    trial of ``class_edges``. A gap arms at the tick of the first edge at or
    below it, so class j holds the gaps in [edges[j], edges[j - 1]), found by
    bisection. The top class, ``len(edges)``, holds the gaps below every edge or
    above ``max_trigger_gap``: they arm only once the vehicle stops or passes,
    or never (a collision or a timeout first).
    """
    edges = class_edges(scenario, controller)
    g = np.array(gaps, dtype=float)
    j = np.searchsorted(-np.array(edges), -g)  # the first edge <= g, by bisection
    least = np.append(edges, np.inf)[j]
    return np.where(arms(g, least, tick_operands(scenario)), j, len(edges)).tolist()


class BatchState(TrialState):
    """The rows of a lockstep batch: every ``TrialState`` field as an array with
    one element per row, and nothing else. Row r is the start of
    ``scenarios[rows[r][0]]`` with gap ``rows[r][1]``. Rows never move: a
    finished row ticks on with the others, and nothing reads it.
    """

    __slots__ = ()

    def __init__(self, scenarios: Sequence[Scenario], rows: Sequence[tuple[int, float]]):
        which = [k for k, _ in rows]
        starts = [TrialState(q, 0.0) for q in scenarios]
        for name in TrialState.__slots__:
            values = np.array([getattr(start, name) for start in starts])[which]
            setattr(self, name, values.astype(np.int8) if name in ("phase", "mode") else values)
        self.gap = np.array([g for _, g in rows], dtype=float)

    def rows(self, lo: int, hi: int) -> BatchState:
        """Rows ``lo`` to ``hi`` as a batch of their own whose fields are the
        views ``arr[lo:hi]``, so a write to the view writes this batch: every
        field is written in place."""
        view = object.__new__(BatchState)
        for name in TrialState.__slots__:
            setattr(view, name, getattr(self, name)[lo:hi])
        return view

    def distance(self, line: np.ndarray) -> np.ndarray:
        """``vehicle_pedestrian_distance`` on arrays, given ``walking_line``'s ``line``."""
        dx = self.x_p - self.x_v
        return np.sqrt(dx * dx + line * line)


# Tick primitives: np.count_nonzero, never .any(); np.putmask, never copyto(where=) or mask
# stores; and every scalar operand a 0-d array bound once per run (core.bound), never a Python
# or NumPy scalar, which NumPy converts on every call.


def tick_operands(scenario: Scenario) -> SimpleNamespace:
    """The scalar operands of ``run_batch``'s tick on ``scenario``, each a read-only
    0-d array: the plant's, the pedestrians' (``pedestrian_tick_batch``,
    ``arming_gap`` and ``arms``) and the loop's own. Built once per call."""
    model, code = scenario.gap_model, np.int8
    return SimpleNamespace(
        dt=bound(scenario.dt), radius=bound(scenario.collision_radius),
        start_delay=bound(model.start_delay), walk_speed=bound(model.walk_speed),
        max_trigger_gap=bound(model.max_trigger_gap),
        zero=bound(0.0), half=bound(0.5), minus_two=bound(-2.0), eps=bound(1e-9),
        inf=bound(math.inf), neg_inf=bound(-math.inf),
        waiting=bound(WAITING_CODE, code), crossing=bound(CROSSING_CODE, code),
        done=bound(DONE_CODE, code))


def plant_tick_batch(s: BatchState, commanded_a: np.ndarray, k: SimpleNamespace,
                     fifo: np.ndarray, tick: int) -> None:
    """``plant_tick`` for every row of a lockstep batch, in place; ``k`` is the
    run's ``tick_operands``.

    ``fifo`` is the same ring as a (delay tick, row) array: every row starts at
    tick 0, so the ring has one head. A row stops inside the step when
    ``v + a * dt < 0.0``, which with ``v >= 0.0`` implies the scalar test's
    ``a < 0.0``.
    """
    if len(fifo):
        head = tick % len(fifo)
        a = fifo[head].copy()
        fifo[head] = commanded_a
    else:
        a = commanded_a
    d, v, dt, zero = s.d, s.v, k.dt, k.zero
    v_next = v + a * dt
    d_next = d - (v * dt + k.half * a * dt * dt)
    stops = v_next < zero
    if np.count_nonzero(stops):
        np.putmask(d_next, stops, d - v * v / (k.minus_two * a))
    d[:] = d_next
    v[:] = np.where(v_next > zero, v_next, zero)  # max(0.0, v_next), which maps -0.0 to 0.0


def run_batch(scenarios: Sequence[Scenario], gaps: Sequence[float],
              *controllers: Controller) -> list[TrialResult]:
    """Run trial i with accepted gap ``gaps[i]`` in every scenario under each of
    ``controllers``, all in one lockstep batch on one clock.

    The scenarios (a run's quadrants) may differ only in ``lane`` and
    ``entry_side``. Each scenario's gaps fall into ``gap_classes`` under each
    controller, and the trials of one class are one trial, so one lockstep row
    per (controller, scenario, class) runs, with the class's first gap in
    ``gaps``. Each controller's rows form one block, which its ``step_batch``
    steps through ``BatchState.rows``; the plant, the pedestrians, the distance
    and the metrics then tick every row at once. A row's ``TrialResult`` is
    built on the tick it finishes (done and past, a collision or the timeout),
    and the row then ticks on unread; a block with no live row is not stepped,
    and its rows keep their last commands. Every trial of a class gets that
    class's one result, bitwise equal to ``run_trial`` on the trial's own
    scenario, gap and controller. Returns one block of results per (controller,
    scenario), in order: trial i of ``scenarios[k]`` under ``controllers[j]`` is
    at ``(j * len(scenarios) + k) * len(gaps) + i``.
    """
    if not controllers:
        raise ValueError("need at least one controller")
    if not scenarios:
        raise ValueError("need at least one scenario")
    scenario = scenarios[0]
    for other in scenarios[1:]:
        if replace(other, lane=scenario.lane, entry_side=scenario.entry_side) != scenario:
            raise ValueError("a batch's scenarios may differ only in lane and entry_side")
    gaps = [float(g) for g in gaps]
    if not gaps:
        raise ValueError("need at least one gap")

    rows: list[tuple[int, float]] = []  # (scenario index, the class's first gap)
    trial_rows: list[int] = []  # each trial's row, in result order
    bounds: list[tuple[int, int]] = []  # each controller's block of rows, [lo, hi)
    for controller in controllers:
        lo = len(rows)
        for k, sc in enumerate(scenarios):
            first: dict[int, int] = {}  # class -> row
            for gap, cls in zip(gaps, gap_classes(sc, controller, gaps)):
                if cls not in first:
                    first[cls] = len(rows)
                    rows.append((k, gap))
                trial_rows.append(first[cls])
        bounds.append((lo, len(rows)))

    geometry, dt, k = scenario.geometry, scenario.dt, tick_operands(scenario)
    s = BatchState(scenarios, rows)
    n_rows = len(rows)
    # (controller, lo, hi, its rows' view); and how many of each block's rows are live.
    blocks = [(c, lo, hi, s.rows(lo, hi)) for c, (lo, hi) in zip(controllers, bounds)]
    block_live = [hi - lo for lo, hi in bounds]
    fifo = np.zeros((scenario.delay_ticks(), n_rows))
    a_cmd = np.zeros(n_rows)
    min_distance = s.distance(s.walking_line(geometry)[0])
    v_sum = np.zeros(n_rows)
    peak_accel = np.zeros(n_rows)
    collision = np.zeros(n_rows, dtype=bool)  # this tick's
    live = np.ones(n_rows, dtype=bool)
    mode_traces = [[(0.0, c.modes[0])] for c, lo, hi, _ in blocks for _ in range(lo, hi)]
    results: dict[int, TrialResult] = {}  # row -> its result, built on the tick it finishes
    t = 0.0
    tick = 0
    # Masked-out lanes may divide by zero, overflow (a speed near 5e-324) or take
    # a root of a negative number. An overflow that counts is inf, as in Python.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while any(block_live):
            timed_out = t >= scenario.max_sim_time
            if timed_out:
                finished = live
            else:
                for (controller, lo, hi, view), n_live in zip(blocks, block_live):
                    if not n_live:
                        continue
                    modes = controller.modes
                    before = view.mode.copy() if len(modes) > 1 else None
                    a_cmd[lo:hi] = controller.step_batch(view, tick)
                    if before is not None:
                        changed = (view.mode != before) & live[lo:hi]
                        if np.count_nonzero(changed):
                            for r in np.flatnonzero(changed).tolist():
                                mode_traces[lo + r].append((t, modes[view.mode[r]]))
                v_before = s.v.copy()
                plant_tick_batch(s, a_cmd, k, fifo, tick)
                a_actual = (s.v - v_before) / k.dt
                line, past = s.walking_line(geometry)
                pedestrian_tick_batch(s, k, line, past)
                t += dt
                tick += 1

                # Neither operand of np.minimum / np.maximum is ever -0.0 (a root
                # and an absolute value), so each is the scalar ``if x < m: m = x``.
                dist = s.distance(line)
                np.minimum(min_distance, dist, out=min_distance)
                collision = dist < k.radius
                collided = np.count_nonzero(collision)
                accel = np.abs(a_actual)
                if collided:  # a colliding row's last tick is not counted
                    counted = ~collision
                    np.add(v_sum, s.v, out=v_sum, where=counted)
                    np.maximum(peak_accel, accel, out=peak_accel, where=counted)
                else:
                    v_sum += s.v
                    np.maximum(peak_accel, accel, out=peak_accel)

                finished = (s.phase == k.done) & past
                if collided:
                    finished |= collision
                finished &= live
                if not np.count_nonzero(finished):
                    continue
            # Their results, in Python scalars: a colliding row's last tick is not counted.
            ended = np.flatnonzero(finished)
            for r, low, total, peak, hit, overrun, d in zip(
                    ended.tolist(), *(x[ended].tolist() for x in (
                        min_distance, v_sum, peak_accel, collision, s.overrun, s.d))):
                n = tick - hit
                results[r] = TrialResult(
                    min_distance=low, avg_velocity=total / n if n else 0.0, peak_accel=peak,
                    collision=hit, timed_out=timed_out, mode_trace=tuple(mode_traces[r]),
                    safety_events=trial_events(overrun, timed_out), final_d=d)
            live &= ~finished
            block_live = [np.count_nonzero(live[lo:hi]) for lo, hi in bounds]

    return [results[r] for r in trial_rows]
