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
branches (a ``TrialRun``, whose one tick loop can stop on a tick and resume);
it serves single trials and traces. ``run_batch`` advances a batch
at once in a lockstep NumPy engine (``BatchState``, the same fields as arrays)
with masks, whose array expressions do the same IEEE operations in the same
order as the scalar ones, so both give bitwise-equal results. One batch may
cover several quadrants (lane and entry side), each row carrying its own, and
several controllers, each stepping its own block of rows.

A lockstep row is a gap class, not a trial. A trial reads its accepted gap only
in its waiting pedestrian's arm test, ``arming_gap(...) <= trigger``, which the
engine runs and no controller sees (a ``TrialState`` holds no gap), so trials
whose pedestrians arm on the same tick are the same trial. ``run_batch`` runs
``plan_batch``, which lays out one row per (controller, quadrant, class) in the
scalar engine, then ``_lockstep``, which runs the rows from the first tick on
which a class arms and hands each trial its class's result: exact, not an
approximation. A ``TrialResult`` is immutable and holds no gap, so the trials of
a class share one; the gaps stay with the caller.
Once armed, a pedestrian walks open-loop, so both engines read it from
``pedestrian_walk``, right of way included: ``run_trial`` draws its walk's
entries one per tick from the tick it arms on, and each lockstep row reads its
entry side's one walk table from its class's arm tick. The controllers read
``right_of_way``, which the engines set with ``in_crosswalk`` wherever they write
the pedestrian.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import Iterator, Optional, Protocol, Sequence

import numpy as np

from .core import (ControllerParams, EntrySide, WorldGeometry, bound, require_finite_fields,
                   whole_ticks)
from .pedestrian import (DONE_CODE, WAITING_CODE, GapAcceptanceModel, arming_gap, in_crosswalk,
                         pedestrian_tick, sample_accepted_gap, trigger)


class Lane(Enum):
    A = "A"
    B = "B"


class Controller(Protocol):
    """Per-tick controller, one instance shared by every trial it drives.

    A controller keeps no per-trial state. ``step`` reads one trial's
    ``TrialState`` at tick ``tick`` (0 at the trial's start), updates the
    controller fields there (``mode``, an index into ``modes``, whose code 0 is
    the mode at the start) and returns the command. ``step_batch`` is ``step``
    over the rows of a lockstep batch: the same fields as the arrays of a
    ``BatchState``, and one command per row. It also runs on finished rows, so
    it must accept any state a finished row reaches.

    ``step_batch`` writes its fields in place, as the lockstep writes every
    other field, since it steps a view of its controller's rows of a larger
    batch (``BatchState.rows``). It is not called once none of those rows is live.
    Its first call may come on a tick after 0: the lockstep starts on the plan's
    ``start``, the first tick on which a gap class arms, from the fields that
    ``step`` wrote on the ticks before.
    Its scalar operands are bound once, as 0-d arrays (``core.bound``), not on
    every call: the hybrid binds its own on its first call, as ``replay`` builds
    controllers that only ``step``; the POMDP reads its model's and three ints.

    Both read the pedestrian's right of way from ``right_of_way``, which the
    engines set, and never call ``in_crosswalk``. Until the pedestrian arms,
    they read it only through ``right_of_way`` (the hybrid's ``time_advantage``
    is +inf while ``xdot_p == 0``): ``plan_batch`` runs the quadrants whose
    waiting pedestrians hold the same right of way as one trial until then.
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
    ``run_batch``; the accepted gap stays with the caller. ``overrun`` is the
    trial's final ``TrialState.overrun``, set once the hybrid's HardBraking
    runs past the stop point."""

    min_distance: float
    avg_velocity: float
    peak_accel: float
    collision: bool
    timed_out: bool
    mode_trace: tuple[tuple[float, str], ...]
    overrun: bool
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
    ``walking_line`` serves both.

    Vehicle: ``d``, ``v`` and ``x_v`` (the lane centre). Pedestrian, as its
    ``pedestrian_walk`` has it: ``x_p``, ``xdot_p``, ``phase`` (``WAITING_CODE``,
    ``CROSSING_CODE`` or ``DONE_CODE``), ``right_of_way`` (``in_crosswalk`` of the
    pedestrian; the controllers read it instead of calling ``in_crosswalk``), and
    three constants of the entry side, which replace per-side branches with exact
    arithmetic: ``sgn`` (1.0 near, -1.0 far), ``off`` (0.0 near, roadway_width
    far) and ``lim`` (roadway_width near, 0.0 far). Controller, written only by
    its ``step`` or ``step_batch`` and zero at the start: ``mode``, ``d_o``,
    ``v_o``, ``latched``, ``overrun`` and ``a_prev_idx``. The accepted gap is no
    field: only the engine's arm test reads it (``TrialRun.trigger``).
    """

    __slots__ = ("d", "v", "x_v", "sgn", "off", "lim", "x_p", "xdot_p", "phase", "right_of_way",
                 "mode", "d_o", "v_o", "latched", "overrun", "a_prev_idx")

    def __init__(self, scenario: Scenario):
        """The start of a trial on ``scenario``'s lane and entry side."""
        width, model = scenario.geometry.roadway_width, scenario.gap_model
        self.d, self.v, self.x_v = scenario.initial_d, scenario.initial_v, scenario.lane_center()
        if scenario.entry_side is EntrySide.NEAR:  # waiting on the sidewalk before the curb
            self.sgn, self.off, self.lim, self.x_p = 1.0, 0.0, width, -model.near_setback
        else:
            self.sgn, self.off, self.lim, self.x_p = -1.0, width, 0.0, width + model.far_setback
        self.xdot_p, self.phase = 0.0, WAITING_CODE
        self.mode, self.d_o, self.v_o, self.latched, self.overrun, self.a_prev_idx = (
            0, 0.0, 0.0, False, False, 0)
        self.right_of_way = in_crosswalk(self, scenario.geometry)

    def walking_line(self, geometry: WorldGeometry):
        """``d + delta``, the vehicle's distance to the walking line (its y is
        ``-(d + delta)``), and whether the vehicle has cleared the stripe: the
        line is below ``past_bound``."""
        line = self.d + geometry.delta
        return line, line < past_bound(geometry)

    def distance(self, line):
        """``vehicle_pedestrian_distance`` on arrays, given ``walking_line``'s
        ``line``: a batch's rows, or one trial's vehicle at each of the lines
        ``line`` with its pedestrian where it stands."""
        dx = self.x_p - self.x_v
        return np.sqrt(dx * dx + line * line)


# The fields of a trial's vehicle and controller: until its pedestrian arms, the
# trials of every quadrant whose waiting pedestrian holds the same right of way
# have the same ones (``plan_batch``).
PRE_ARM = ("d", "v", "mode", "d_o", "v_o", "latched", "overrun", "a_prev_idx")


def past_bound(geometry: WorldGeometry) -> float:
    """The walking line below which the vehicle has cleared the stripe by a 1 m
    margin, ``y > depth / 2 + 1``, spelled ``d + delta < -margin`` since negation
    is exact."""
    return -(geometry.crosswalk_depth / 2.0 + 1.0)


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
    v += a * dt
    s.v = v if v > 0.0 else 0.0  # max(0.0, v): -0.0 gives 0.0


def vehicle_pedestrian_distance(s: TrialState, line: float) -> float:
    """Euclidean distance from the vehicle point to the pedestrian point on the
    walking line, given ``walking_line``'s ``line``, which is the vehicle's y
    up to its sign.

    Spelled ``sqrt(dx*dx + dy*dy)`` rather than ``hypot``, whose NumPy and
    ``math`` versions differ in the last bit; ``TrialState.distance`` is the
    same formula on arrays.
    """
    dx = s.x_p - s.x_v
    return math.sqrt(dx * dx + line * line)


class TrialRun:
    """A trial in progress: its ``TrialState`` and what its tick loop carries
    from tick to tick (the clock, the tick, the delay ring, the three metric
    accumulators, the mode trace, the trace, and its pedestrian's ``trigger``,
    ``arm`` tick, None while it waits, and walk with its last entry), so that
    the loop can stop on a tick and resume from it. It stops after the tick its
    pedestrian arms on, the one instant its gap decides: a group's reference
    trial is read up to there. ``run_trial`` advances one to its end; ``plan_batch``
    advances one per group to the tick its lockstep starts on.
    """

    __slots__ = ("scenario", "controller", "s", "t", "tick", "fifo", "min_distance", "v_sum",
                 "peak_accel", "mode_trace", "trace", "trigger", "arm", "walk", "entry")

    def __init__(self, scenario: Scenario, accepted_gap: float, controller: Controller):
        s = self.s = TrialState(scenario)
        self.scenario, self.controller = scenario, controller
        self.trigger, self.arm = trigger(scenario.gap_model, float(accepted_gap)), None
        self.walk = pedestrian_walk(scenario)
        self.entry = next(self.walk)  # the waiting start, which ``s`` holds
        self.t, self.tick = 0.0, 0
        self.fifo = [0.0] * scenario.delay_ticks()
        self.min_distance = vehicle_pedestrian_distance(s, s.walking_line(scenario.geometry)[0])
        self.v_sum, self.peak_accel = 0.0, 0.0
        self.mode_trace: list[tuple[float, str]] = [(0.0, controller.modes[s.mode])]
        self.trace: list[tuple] = []  # one row per tick, a colliding one included

    def advance(self, stop: int = sys.maxsize) -> Optional[TrialResult]:
        """Run the trial's ticks until tick ``stop``, the tick after the one its
        pedestrian arms on, or its end. Returns its result if it ended; else None,
        and the run resumes from the tick it stopped on. Either way the run then
        holds the clock, tick, walk entry and metric accumulators of that tick.

        The metrics leave out a colliding tick, the trace's last row, but for
        its distance.
        """
        scenario, s = self.scenario, self.s
        geometry, dt = scenario.geometry, scenario.dt
        # Read once per call, walking_line's operands included. plant_tick, arming_gap
        # and vehicle_pedestrian_distance stay module lookups on every tick.
        step, modes = self.controller.step, self.controller.modes
        delta, clear = geometry.delta, past_bound(geometry)
        max_sim_time, collision_radius = scenario.max_sim_time, scenario.collision_radius
        t, tick, fifo, mode_trace, trace = self.t, self.tick, self.fifo, self.mode_trace, self.trace
        trigger, arm, walk, entry = self.trigger, self.arm, self.walk, self.entry
        min_distance, v_sum, peak_accel = self.min_distance, self.v_sum, self.peak_accel
        mode = s.mode
        label = modes[mode]
        collision = False
        timed_out = False
        ended = True

        while tick != stop:
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
            line = s.d + delta  # walking_line
            past = line < clear
            if arm is None and arming_gap(s.v, line, past) <= trigger:
                arm, stop = tick, tick + 1
            if arm is not None:  # an armed pedestrian reads nothing of the vehicle
                s.x_p, s.xdot_p, s.phase, s.right_of_way = entry = next(walk, entry)
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
        else:  # on tick ``stop``
            ended = False
        self.t, self.tick, self.arm, self.entry = t, tick, arm, entry
        self.min_distance, self.v_sum, self.peak_accel = min_distance, v_sum, peak_accel
        if not ended:
            return None

        n = len(trace) - collision  # the ticks the metrics count: not a colliding one
        return TrialResult(
            min_distance=min_distance,
            avg_velocity=v_sum / n if n else 0.0,
            peak_accel=peak_accel,
            collision=collision,
            timed_out=timed_out,
            mode_trace=tuple(mode_trace),
            overrun=s.overrun,
            final_d=s.d,
            trace=trace,
        )


def run_trial(scenario: Scenario, accepted_gap: float, controller: Controller) -> TrialResult:
    """Run one trial with the pedestrian's ``accepted_gap`` to completion and
    collect its metrics and its trace, one row per tick it runs; the metrics
    leave out a colliding tick, the last row, but for its distance. The trial's
    state is its own ``TrialState``, so one controller can serve many trials.
    """
    run = TrialRun(scenario, accepted_gap, controller)
    return run.advance() or run.advance()  # the second resumes after the arm tick


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


def _reference(scenario: Scenario, controller: Controller) -> tuple[np.ndarray, np.ndarray, bool]:
    """A group's reference trial: the trial with an infinite accepted gap up
    to the tick it arms on, its first -inf ``arming_gap`` (the vehicle stopped or
    passed), where its ``TrialRun`` stops. Until then it is any gap's trial, and no
    later tick changes a class. Returns ``arming_gap`` on each of its ticks, the
    walking line at its start and on each of its ticks, and whether it collided; its
    trace is freed on return."""
    run = TrialRun(scenario, math.inf, controller)
    end = run.advance()
    delta, clear = scenario.geometry.delta, past_bound(scenario.geometry)
    least, lines = [], [scenario.initial_d + delta]
    for _, d, v, _, _, _, _ in run.trace:  # *_ would build a list per row
        line = d + delta
        least.append(arming_gap(v, line, line < clear))
        lines.append(line)
    return np.array(least), np.array(lines), end is not None and end.collision


def _classes(least: np.ndarray, model: GapAcceptanceModel,
             gaps: Sequence[float]) -> list[Optional[int]]:
    """Each gap's class, its arm tick or None, from the reference trial's ``arming_gap``
    on each tick, ``least``: the first tick with a record low at most its ``trigger``."""
    low = np.minimum.accumulate(least)
    ticks = np.searchsorted(-low, -np.array([trigger(model, g) for g in gaps], dtype=float))
    return [tick if tick < len(low) else None for tick in ticks.tolist()]


def pedestrian_walk(scenario: Scenario) -> Iterator[tuple[float, float, int, bool]]:
    """``x_p``, ``xdot_p``, ``phase`` and ``right_of_way`` of ``scenario``'s
    pedestrian: its waiting start (entry 0), then one entry per tick from the
    tick it arms on, so one armed on tick ``arm`` is at entry ``tick + 1 - arm``
    after tick ``tick``. It waits out ``start_delay``, then ``pedestrian_tick``
    steps it. It ends on Done or after as many ticks as a trial can run, since
    a slow walk may outlast the run."""
    s, model, dt = TrialState(scenario), scenario.gap_model, scenario.dt
    yield s.x_p, s.xdot_p, s.phase, s.right_of_way
    left, t = model.start_delay, 0.0  # the step-off latency left, and run_trial's clock
    while s.phase != DONE_CODE and t < scenario.max_sim_time:
        if left > 1e-9:
            left -= dt
        else:
            pedestrian_tick(s, model, dt)
            s.right_of_way = in_crosswalk(s, scenario.geometry)
        yield s.x_p, s.xdot_p, s.phase, s.right_of_way
        t += dt


class BatchState(TrialState):
    """The rows of a lockstep batch: each ``TrialState`` field as an array with
    one element per row. Row r starts as ``starts[which[r]]``. Rows never move:
    a finished row ticks on with the others, and nothing reads it.
    """

    __slots__ = ()

    def __init__(self, starts: Sequence[TrialState], which: Sequence[int]):
        for name in TrialState.__slots__:
            values = np.array([getattr(start, name) for start in starts])[which]
            setattr(self, name, values.astype(np.int8) if name in ("phase", "mode") else values)

    def rows(self, lo: int, hi: int) -> BatchState:
        """Rows ``lo`` to ``hi`` as a batch of their own whose fields are the
        views ``arr[lo:hi]``, so a write to the view writes this batch: every
        field is written in place."""
        view = object.__new__(BatchState)
        for name in TrialState.__slots__:
            setattr(view, name, getattr(self, name)[lo:hi])
        return view


# Tick primitives: np.count_nonzero, never .any(); np.putmask, never copyto(where=) or mask
# stores; and every scalar operand a 0-d array bound once per run (core.bound), never a Python
# or NumPy scalar, which NumPy converts on every call; but for PomdpModel.state_index's three
# grid sizes, Python ints, in the POMDP's batch decisions (about 117 per compare-warm call).


def tick_operands(scenario: Scenario) -> SimpleNamespace:
    """The scalar operands of ``run_batch``'s tick on ``scenario``, each a read-only
    0-d array: the plant's and the loop's own. Built once per call."""
    return SimpleNamespace(
        dt=bound(scenario.dt), radius=bound(scenario.collision_radius), zero=bound(0.0),
        half=bound(0.5), minus_two=bound(-2.0), one=bound(1, np.intp),
        done=bound(DONE_CODE, np.int8))


def plant_step(v: np.ndarray, d: np.ndarray, a: np.ndarray,
               k: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """``plant_tick`` on arrays, after the delay: the speeds and distances one step
    on from ``v`` and ``d`` under the applied commands ``a``; ``k`` is the run's
    ``tick_operands``.

    A row stops inside the step when ``v + a * dt < 0.0``, which with ``v >= 0.0``
    implies the scalar test's ``a < 0.0``. The stop branch and the scalar clamp of
    ``v_next`` at 0.0 (which maps -0.0 to 0.0) run only when some row does not move
    on: else both leave every row as it is.
    """
    dt, zero = k.dt, k.zero
    v_next = v + a * dt
    d_next = d - (v * dt + k.half * a * dt * dt)
    moving = v_next > zero
    if np.count_nonzero(moving) < moving.size:
        np.putmask(d_next, v_next < zero, d - v * v / (k.minus_two * a))
        v_next = np.where(moving, v_next, zero)
    return v_next, d_next


@dataclass(frozen=True)
class BatchPlan:
    """``plan_batch``'s plan. A quad is a (controller, scenario), in result order:
    scenario k under controller j is quad ``j * len(scenarios) + k``.

    ``scenario`` is the first, whose clock, geometry and limits all share;
    ``start`` is the lockstep's first tick (``sys.maxsize`` if no class arms);
    ``groups`` holds each group's controller and members, lead first. Per quad:
    ``classes``, each gap's arm tick or None; ``starts``, its ``TrialState`` on
    ``start``; ``prefixes``, its group's ``TrialRun``, stopped there or ended;
    ``lows``, its pre-arm ``min_distance``; ``ends``, its ended prefix's result or
    None. ``walks`` holds the columns of one table of each entry side's
    ``pedestrian_walk``. Per row: ``which``, its quad, and ``entries``, its
    ``(first + start - arm, first, last)`` into ``walks`` (after tick ``tick`` it
    reads entry ``first + tick + 1 - arm`` clamped to [first, last]), or ``(first,
    first, first)`` if it never arms. ``blocks`` holds each controller's rows
    ``[lo, hi)``, and ``trial_rows`` each quad's trials' rows.
    """

    scenario: Scenario
    start: int
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    classes: tuple[list[Optional[int]], ...]
    starts: tuple[TrialState, ...]
    prefixes: tuple[TrialRun, ...]
    lows: tuple[float, ...]
    ends: tuple[Optional[TrialResult], ...]
    walks: tuple[np.ndarray, ...]
    which: list[int]
    entries: np.ndarray
    blocks: list[tuple[int, int]]
    trial_rows: list[list[int]]


def plan_batch(scenarios: Sequence[Scenario], gaps: Sequence[float],
               *controllers: Controller) -> BatchPlan:
    """The plan of ``run_batch``'s lockstep, from the scalar engine alone.

    The scenarios (a run's quadrants) may differ only in ``lane`` and
    ``entry_side``. A gap's class is the tick on which its trial's pedestrian
    arms, or None if the trial ends first. Before it arms, a trial differs from
    another scenario's only in the pedestrian's ``right_of_way``, the one
    pedestrian field a controller then reads, and in its distances. So each
    controller's scenarios form groups: the first scenario left leads, and another
    joins it if its waiting pedestrian holds the same right of way, the lead's
    reference trial does not collide, and the scenario's own distance along that
    trial never reaches ``collision_radius``; one that joins no group leads its
    own. The reference gives every member's classes. Until ``start``, the first
    tick on which any class arms, every trial of a group is the group's prefix,
    the lead's trial with an infinite gap, which a ``TrialRun`` advances there.
    Each (controller, scenario, class) is one row, started from its own
    scenario's lane and waiting pedestrian, its own ``min_distance`` along the
    reference up to ``start``, and the prefix's vehicle, controller fields, delay
    ring, other metric accumulators, mode trace and clock. A group whose prefix
    ends first has one class, None, whose rows start finished, with the prefix's
    result and their own ``min_distance``.
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

    waiting = [TrialState(sc) for sc in scenarios]
    # (controller, members, classes, each quadrant left's distances along the reference)
    groups: list[tuple[int, list[int], list[Optional[int]], dict[int, np.ndarray]]] = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow that counts is inf
        for j, c in enumerate(controllers):
            left = list(range(len(scenarios)))
            while left:
                lead = waiting[left[0]]
                least, lines, collided = _reference(scenarios[left[0]], c)
                dists = {k: waiting[k].distance(lines) for k in left}
                members = [k for k in left if waiting[k] is lead or (  # its ticks, not its start
                    not collided and waiting[k].right_of_way == lead.right_of_way
                    and not np.count_nonzero(dists[k][1:] < scenario.collision_radius))]
                groups.append((j, members, _classes(least, scenario.gap_model, gaps), dists))
                left = [k for k in left if k not in members]
        start = min((arm for _, _, arms, _ in groups for arm in arms if arm is not None),
                    default=sys.maxsize)

        # Each group's prefix, advanced to ``start``, and each member's start on it.
        quads = {}
        for j, members, arms, dists in groups:
            run = TrialRun(scenarios[members[0]], math.inf, controllers[j])
            end = run.advance(start)
            run.trace.clear()  # no result keeps it: freed before the next prefix runs
            for k in members:
                own = TrialState(scenarios[k])
                for name in PRE_ARM:
                    setattr(own, name, getattr(run.s, name))
                low = dists[k][:start + 1].min().item()
                quads[j * len(scenarios) + k] = (
                    own, run, low, arms,
                    None if end is None else replace(end, min_distance=low, trace=None))
    starts, prefixes, lows, classes, ends = zip(*(quads[q] for q in sorted(quads)))

    walks: list[tuple[float, float, int, bool]] = []  # one table of each side's walk
    walk_ends: dict[EntrySide, tuple[int, int]] = {}  # each side's first and last entry
    for side, sc in {sc.entry_side: sc for sc in scenarios}.items():
        first = len(walks)
        walks += pedestrian_walk(sc)
        walk_ends[side] = (first, len(walks) - 1)

    which, entries, blocks, trial_rows = [], [], [], []  # typed as BatchPlan's fields
    for j in range(len(controllers)):
        lo = len(which)
        for k, sc in enumerate(scenarios):
            q = j * len(scenarios) + k
            first, last = walk_ends[sc.entry_side]
            row_of: dict[Optional[int], int] = {}  # class -> row
            for arm in classes[q]:
                if arm not in row_of:
                    row_of[arm] = len(which)
                    which.append(q)
                    entries.append((first, first, first) if arm is None else
                                   (first + start - arm, first, last))
            trial_rows.append([row_of[arm] for arm in classes[q]])
        blocks.append((lo, len(which)))
    columns = tuple(np.array(column, dtype) for column, dtype in
                    zip(zip(*walks), (float, float, np.int8, bool)))
    return BatchPlan(scenario, start, tuple((j, tuple(members)) for j, members, _, _ in groups),
                     classes, starts, prefixes, lows, ends, columns, which,
                     np.array(list(zip(*entries)), dtype=np.intp), blocks, trial_rows)


def _lockstep(plan: BatchPlan, controllers: Sequence[Controller]) -> list[TrialResult]:
    """One ``TrialResult`` per row of ``plan``, from tick ``plan.start`` on one clock.
    Each controller's block of rows is stepped by its ``step_batch`` through
    ``BatchState.rows``; the plant, the distance and the metrics then tick the
    live blocks' rows at once, and each row reads its pedestrian, right of way
    included, from its walk. A live block is stepped on every tick. A row's result
    is built on the tick it finishes (done and past, a collision or the timeout),
    and the row then ticks on unread while its block is live; a block with no live
    row is neither stepped nor ticked: each tick runs on the rows from the first
    live block's to the last one's.
    """
    which, prefixes = plan.which, plan.prefixes
    s = BatchState(plan.starts, which)
    walk_x, walk_xdot, walk_phase, walk_row = plan.walks
    entry, first_entry, last_entry = plan.entries.copy()  # the loop advances ``entry``
    # The prefixes' delay rings, as (delay tick, row), and metric accumulators.
    fifo = np.array([run.fifo for run in prefixes], dtype=float)[which].T.copy()
    min_distance = np.array(plan.lows)[which]
    v_sum, peak_accel = (np.array([getattr(run, name) for run in prefixes])[which]
                         for name in ("v_sum", "peak_accel"))
    # Each row's mode trace: a tuple, which its result shares; the mode it last
    # recorded, its prefix's; and its own controller's mode labels.
    group_traces = [tuple(run.mode_trace) for run in prefixes]
    mode_traces = [group_traces[q] for q in which]
    traced = s.mode.copy()
    labels = [c.modes for c, (lo, hi) in zip(controllers, plan.blocks) for _ in range(lo, hi)]
    t = max(run.t for run in prefixes)  # the clock on ``start``: a prefix that ended is no later
    scenario, tick = plan.scenario, plan.start
    geometry, dt, k = scenario.geometry, scenario.dt, tick_operands(scenario)
    max_sim_time, ring = scenario.max_sim_time, len(fifo)
    blocks = [(c, lo, hi, s.rows(lo, hi)) for c, (lo, hi) in zip(controllers, plan.blocks)]
    a_cmd = np.zeros(len(which))
    results = [plan.ends[q] for q in which]
    live = np.array([result is None for result in results])

    # Masked-out lanes may divide by zero, overflow (a speed near 5e-324) or take
    # a root of a negative number. An overflow that counts is inf, as in Python.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while stepped := [block for block in blocks if np.count_nonzero(live[block[1]:block[2]])]:
            # The live blocks' rows [lo, hi), as views, until a block's last row ends.
            lo, hi = stepped[0][1], stepped[-1][2]
            batch, cmd, alive, queue = s.rows(lo, hi), a_cmd[lo:hi], live[lo:hi], fifo[:, lo:hi]
            low, total, peak, walked, first, last, was = (x[lo:hi] for x in (
                min_distance, v_sum, peak_accel, entry, first_entry, last_entry, traced))
            at, collision = first.copy(), np.zeros(hi - lo, dtype=bool)
            while True:
                timed_out = t >= max_sim_time
                if timed_out:
                    finished = alive
                else:
                    for controller, c_lo, c_hi, view in stepped:
                        a_cmd[c_lo:c_hi] = controller.step_batch(view, tick)
                    # A live row whose mode changed traces it; a finished one's change
                    # is only marked as recorded. A compare of the int8 codes' bytes tests
                    # for a change several times faster than a ufunc and a count.
                    if batch.mode.tobytes() != was.tobytes():
                        rows = np.flatnonzero(batch.mode != was)
                        for r, mode, on in zip((rows + lo).tolist(), batch.mode[rows].tolist(),
                                               alive[rows].tolist()):
                            if on:
                                mode_traces[r] += ((t, labels[r][mode]),)
                        was[:] = batch.mode

                    # The delay ring's head ``tick % ring`` is applied and takes
                    # ``a_cmd``: every row starts at tick 0, so the ring has one head.
                    if ring:
                        head = queue[tick % ring]
                        applied = head.copy()
                        head[:] = cmd
                    else:
                        applied = cmd
                    v, d = plant_step(batch.v, batch.d, applied, k)
                    a_actual = (v - batch.v) / k.dt
                    batch.v[:], batch.d[:] = v, d
                    line, past = batch.walking_line(geometry)
                    walked += k.one
                    np.maximum(walked, first, out=at)
                    np.minimum(at, last, out=at)
                    walk_x.take(at, out=batch.x_p, mode="clip")  # "clip" writes out unbuffered
                    walk_xdot.take(at, out=batch.xdot_p, mode="clip")
                    walk_phase.take(at, out=batch.phase, mode="clip")
                    walk_row.take(at, out=batch.right_of_way, mode="clip")
                    t += dt
                    tick += 1

                    # Neither operand of np.minimum / np.maximum is ever -0.0 (a root
                    # and an absolute value), so each is the scalar ``if x < m: m = x``.
                    dist = batch.distance(line)
                    np.minimum(low, dist, out=low)
                    collision = dist < k.radius
                    collided = np.count_nonzero(collision)
                    accel = np.abs(a_actual)
                    if collided:  # a colliding row's last tick is not counted
                        counted = ~collision
                        np.add(total, batch.v, out=total, where=counted)
                        np.maximum(peak, accel, out=peak, where=counted)
                    else:
                        total += batch.v
                        np.maximum(peak, accel, out=peak)

                    finished = (batch.phase == k.done) & past
                    if collided:
                        finished |= collision
                    finished &= alive
                    if not np.count_nonzero(finished):
                        continue
                # Each ended row's result, from its accumulators as Python scalars.
                ended = np.flatnonzero(finished)
                for r, min_d, v_total, a_peak, hit, overrun, d_end in zip(
                        (ended + lo).tolist(), *(x[ended].tolist() for x in (
                            low, total, peak, collision, batch.overrun, batch.d))):
                    n = tick - hit  # the ticks its metrics count: not a colliding last one
                    results[r] = TrialResult(
                        min_distance=min_d, avg_velocity=v_total / n if n else 0.0,
                        peak_accel=a_peak, collision=hit, timed_out=timed_out,
                        mode_trace=mode_traces[r], overrun=overrun, final_d=d_end)
                alive &= ~finished
                if not all(np.count_nonzero(live[c_lo:c_hi]) for _, c_lo, c_hi, _ in stepped):
                    break

    return results


def run_batch(scenarios: Sequence[Scenario], gaps: Sequence[float],
              *controllers: Controller) -> list[TrialResult]:
    """Run trial i with accepted gap ``gaps[i]`` in every scenario under each of
    ``controllers``, all in one lockstep batch on one clock (``plan_batch``, then
    ``_lockstep``). Every trial of a class gets that class's one result, bitwise
    equal to ``run_trial`` on the trial's own scenario, gap and controller but for
    the trace, which it leaves out. Returns one block of results per (controller,
    scenario), in order: trial i of ``scenarios[k]`` under ``controllers[j]`` is at
    ``(j * len(scenarios) + k) * len(gaps) + i``.
    """
    plan = plan_batch(scenarios, gaps, *controllers)
    results = _lockstep(plan, controllers)
    return [results[row] for rows in plan.trial_rows for row in rows]
