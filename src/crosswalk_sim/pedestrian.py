"""Stochastic gap-acceptance pedestrian.

Each trial's pedestrian samples one accepted gap, waits at the curb, and
starts crossing (after a short step-off latency) the first time the ego
vehicle's time gap to the walking line shrinks to that value. Pedestrians
whose accepted gap exceeds ``max_trigger_gap`` never treat the approaching
vehicle as a crossing opportunity; they wait for it to pass and then cross.
Once crossing, the walk is constant-speed and is never aborted.

The gap decides one instant, the tick the pedestrian arms on: the first on
which ``arming_gap``, the least gap that arms on that tick, is at or below
the pedestrian's ``trigger``. After it the walk reads nothing of the vehicle,
so both engines read it from ``simulator.pedestrian_walk``, which runs the
step-off latency and then ``pedestrian_tick``, the one crossing step. A
pedestrian's state is the ``x_p``, ``xdot_p``, ``phase`` and ``right_of_way``
fields of the trial's ``TrialState``, with the entry side as its ``sgn``,
``off`` and ``lim`` constants; ``in_crosswalk`` is the one right-of-way test,
which a trial's start and its walk store in ``right_of_way`` and the
controllers only read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import require_finite_fields

if TYPE_CHECKING:
    import numpy as np

    from .core import WorldGeometry
    from .simulator import TrialState

# The pedestrian's phases, in the order a trial passes through them.
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

    mu_gap: float
    sigma_gap: float
    min_gap: float
    walk_speed: float
    max_trigger_gap: float
    start_delay: float
    near_setback: float
    far_setback: float

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


def in_crosswalk(s: TrialState, geometry: WorldGeometry) -> bool:
    """True while the pedestrian of trial ``s`` holds the right of way over the vehicle.

    A pedestrian counts from the instant they start moving toward the
    legally relevant span, even while still on the sidewalk, and stops
    counting once past the end of that span. Someone standing still inside
    the span keeps holding the vehicle; someone walking away never
    triggers it. ``pedestrian_walk`` stores it in each entry, which both
    engines read, so no lockstep code calls it.
    """
    # c is the progress from the entry-side curb, x_p near side and W - x_p far
    # side (exactly; a zero may change sign, which no comparison sees), and
    # sgn * xdot_p the speed into the road. Inside the span [0, x_f], or
    # approaching it from before x_f: as x_f > 0, the same Boolean function as
    # (0 <= c <= x_f) or (cdot > 0 and c < x_f).
    c = s.sgn * s.x_p + s.off
    return c <= geometry.x_f and (0.0 <= c or s.sgn * s.xdot_p > 0.0)


def arming_gap(v: float, line: float, past: bool) -> float:
    """The least accepted gap that arms a waiting pedestrian on a tick whose
    vehicle speed is ``v`` and whose ``walking_line`` is (``line``, ``past``).

    It is -inf once the vehicle has stopped (``v <= 1e-9``, an infinite gap) or
    passed (no conflict), which every pedestrian takes, whatever their gap. While
    the vehicle approaches the walking line (``line > 0``) it is the time gap
    ``line / v``, and otherwise inf: no gap arms. A pedestrian arms on the first
    tick on which it is at or below their ``trigger``.
    """
    if v <= 1e-9 or past:
        return -math.inf
    return line / v if line > 0.0 else math.inf


def trigger(model: GapAcceptanceModel, gap: float) -> float:
    """The ``arming_gap`` at or below which a pedestrian with accepted gap
    ``gap`` arms: ``gap`` itself, or -inf above ``max_trigger_gap``, which
    waits for the vehicle to stop or pass."""
    return gap if gap <= model.max_trigger_gap else -math.inf


def pedestrian_tick(s: TrialState, model: GapAcceptanceModel, dt: float) -> None:
    """One tick of an armed pedestrian whose step-off latency has run out:
    step off if still waiting, walk at constant speed, and finish once off
    the road: ``x_p > roadway_width`` near side and ``x_p < 0.0`` far side,
    spelled ``sgn * x_p > lim`` (``-x_p > 0.0`` is the far test)."""
    if s.phase == WAITING_CODE:
        s.phase = CROSSING_CODE
        s.xdot_p = s.sgn * model.walk_speed
    s.x_p += s.xdot_p * dt
    if s.sgn * s.x_p > s.lim:
        s.phase = DONE_CODE
        s.xdot_p = 0.0
