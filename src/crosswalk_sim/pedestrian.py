"""Stochastic gap-acceptance pedestrian.

Each trial's pedestrian samples one accepted gap, waits at the curb, and
starts crossing (after a short step-off latency) the first time the ego
vehicle's time gap to the walking line shrinks to that value. Pedestrians
whose accepted gap exceeds ``max_trigger_gap`` never treat the approaching
vehicle as a crossing opportunity; they wait for it to pass and then cross.
Once crossing, the walk is constant-speed and is never aborted.

A pedestrian's state is the ``x_p``, ``xdot_p``, ``phase``, ``delay_left``,
``gap`` and ``right_of_way`` fields of the trial's ``TrialState``, with the
entry side as its ``sgn`` / ``lim`` constants. ``pedestrian_tick`` is the one
pedestrian tick, and ``in_crosswalk`` the one right-of-way test, which the
engines store in ``right_of_way`` wherever they write the pedestrian and the
controllers only read; the lockstep engine reads each row's pedestrian from
its entry side's walk (``simulator.pedestrian_walk``), and ``arming_gap`` is
the arm rule on arrays, for ``simulator.gap_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import require_finite_fields

if TYPE_CHECKING:
    from types import SimpleNamespace

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
    """True while the pedestrian holds the right of way over the vehicle.

    A pedestrian counts from the instant they start moving toward the
    legally relevant span, even while still on the sidewalk, and stops
    counting once past the end of that span. Someone standing still inside
    the span keeps holding the vehicle; someone walking away never
    triggers it. Takes one trial or the rows of a lockstep batch (then
    returns a mask).
    """
    c = s.span_coord()
    # Inside the span [0, x_f], or approaching it from before x_f. As x_f > 0,
    # this is the same Boolean function as (0 <= c <= x_f) | (cdot > 0 & c < x_f).
    return (c <= geometry.x_f) & ((0.0 <= c) | (s.span_speed() > 0.0))


def arming_gap(v: np.ndarray, line: np.ndarray, past, k: SimpleNamespace) -> np.ndarray:
    """The least accepted gap that arms a waiting pedestrian this tick, for arrays
    of vehicle speeds ``v`` and ``walking_line`` results ``line`` and ``past``.

    It is -inf once the vehicle has stopped (``v <= 1e-9``, an infinite gap) or
    passed (no conflict), which every pedestrian takes, whatever their gap. While
    the vehicle approaches the walking line (``line > 0``) it is the time gap
    ``line / v``, and otherwise inf: no gap arms. A gap in [least, max_trigger_gap]
    arms. ``k`` is the run's bound operands (``simulator.tick_operands``):
    ``zero``, ``inf``, ``neg_inf`` and ``eps`` (1e-9).
    """
    least = np.where(line > k.zero, line / v, k.inf)
    np.putmask(least, (v <= k.eps) | past, k.neg_inf)
    return least


def pedestrian_tick(s: TrialState, model: GapAcceptanceModel, dt: float, line: float,
                    past: bool) -> None:
    """Advance the pedestrian by one time step against the current ego state.

    ``line`` and ``past`` are ``s.walking_line`` of this tick, taken after the
    plant has moved.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    phase = s.phase
    if phase == DONE_CODE:
        return

    if phase == WAITING_CODE:
        if s.delay_left < 0.0:
            # A stopped vehicle offers an infinite gap and a passed one no
            # conflict: every pedestrian takes those. Otherwise the time gap to
            # the walking line must have shrunk to the accepted one. This is
            # arming_gap's rule, inline.
            if not (s.v <= 1e-9 or past):
                if s.gap > model.max_trigger_gap or line <= 0.0 or not line / s.v <= s.gap:
                    return
            s.delay_left = model.start_delay
        else:
            s.delay_left -= dt
        if s.delay_left > 1e-9:
            return
        s.phase = CROSSING_CODE
        s.xdot_p = s.sgn * model.walk_speed

    s.x_p += s.xdot_p * dt
    if s.crossed():
        s.phase = DONE_CODE
        s.xdot_p = 0.0
