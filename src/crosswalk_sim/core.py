"""Domain types and closed-form kinematics shared by every other module.

Coordinate conventions:

* The crosswalk runs along the x axis. x = 0 is the near-side curb line,
  x = roadway_width is the far-side curb line. A pedestrian entering from
  the near side starts at negative x and walks in +x; a far-side pedestrian
  starts beyond the roadway and walks in -x.
* The vehicle travels along the y axis toward the crosswalk. y = 0 is the
  pedestrian's walking line; the stop point sits ``delta`` meters before it
  (y = -delta). ``d`` is the signed distance to the stop point, so
  y = -(d + delta). Negative d means the vehicle has passed the stop point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class EntrySide(Enum):
    NEAR = "near"
    FAR = "far"


def require_finite(**values: object) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite number among ``values``.

    Tuple values are checked item by item; values that are not floats pass.
    """
    for name, value in values.items():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {value!r}")


def require_finite_fields(record: object) -> None:
    """``require_finite`` over the fields of dataclass ``record``.

    Fields are read with ``getattr``: ``vars(record)`` would materialize the
    instance dict, which slows every later attribute read on the hot path.
    """
    require_finite(**{f.name: getattr(record, f.name) for f in fields(record)})


def write_output(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 into ``path`` in place: every output file goes through here.

    The bytes are ``text``'s own, with no newline translation. The file is
    overwritten from its start and only then cut to the written length, so a
    rerun into the same directory never truncates a file to zero first, which
    on some filesystems costs freeing its blocks and a flush on close. A new
    file gets mode ``0o666`` less the umask, an existing one keeps its mode, and
    a symlink is followed. A crash mid-write can leave the new head on the old
    tail; an error raised while writing still cuts the file where it stopped.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            os.ftruncate(fd, written)
        finally:
            os.close(fd)


def bound(value: float, dtype: object = float) -> np.ndarray:
    """``value`` as a read-only 0-d NumPy array of ``dtype``, the dtype of the
    array it meets: int8 for a phase or mode code, float64 (the default) else.

    NumPy converts a Python or NumPy scalar operand on every ufunc call, a
    third of a call's cost on a few hundred rows; a 0-d array of the array
    operand's dtype skips that and gives the same IEEE operation. So the batch
    code binds its operands once per ``run_batch`` call or per controller,
    never per tick. NumPy is imported here, not at the top: the scalar path
    needs none.
    """
    import numpy as np

    a = np.array(value, dtype)
    a.flags.writeable = False
    return a


# The most ticks a trial may run, run.max_sim_time / run.dt; the presets run 1200.
MAX_TICKS = 100_000
# The most Q-table entries a POMDP grid may have, n_v_bins * 2 * n_d_bins * len(actions)**2;
# the presets have 47736, and 9.36e6 solve in about 1 s at under 300 MB.
MAX_Q_ENTRIES = 10**7


def whole_ticks(duration: float, dt: float, name: str) -> int:
    """``duration / dt`` as an int; ``ValueError`` naming ``name`` unless the
    ratio lies within 1e-9 of a whole number, so no duration is rounded silently,
    and within ``MAX_TICKS`` of zero: no delay or decision period outlasts a run."""
    ratio = duration / dt if dt else math.inf  # a 0 s tick: more than MAX_TICKS of them
    if not abs(ratio) <= MAX_TICKS:  # inf and NaN included
        raise ValueError(f"{name} = {duration!r} s spans more than MAX_TICKS = {MAX_TICKS} "
                         f"ticks of {dt!r} s")
    n = round(ratio)
    if abs(ratio - n) > 1e-9:
        raise ValueError(f"{name} = {duration!r} s is not a whole number of {dt!r} s ticks")
    return n


def brake_distance(v: float, a: float) -> float:
    """Distance needed to stop from speed ``v`` at the deceleration ``a``."""
    if a <= 0.0:
        raise ValueError("the deceleration must be positive")
    return v * v / (2.0 * a)


@dataclass(frozen=True)
class WorldGeometry:
    """Static crosswalk geometry.

    ``x_f`` is the end of the legally relevant crosswalk span measured in
    the pedestrian's own crossing direction (jurisdictions differ on
    whether the full roadway or only half of it counts).
    ``crosswalk_depth`` is the painted stripe depth along the vehicle's
    travel direction, centered on the pedestrian walking line y = 0.
    """

    n_lanes: int
    lane_width: float
    x_f: float
    delta: float
    crosswalk_depth: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.n_lanes < 1:
            raise ValueError("need at least one lane")
        if self.lane_width <= 0.0:
            raise ValueError("lane_width must be positive")
        if not 0.0 < self.x_f <= self.roadway_width + 1e-9:
            raise ValueError(
                f"x_f={self.x_f} outside (0, {self.roadway_width}]"
            )
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.crosswalk_depth <= 0.0:
            raise ValueError("crosswalk_depth must be positive")

    @property
    def roadway_width(self) -> float:
        return self.n_lanes * self.lane_width

    def vehicle_lane_center_x(self, lane: int) -> float:
        """Lateral crosswalk coordinate of lane ``lane`` (0 = nearest curb)."""
        if not 0 <= lane < self.n_lanes:
            raise ValueError(f"lane {lane} outside 0..{self.n_lanes - 1}")
        return (lane + 0.5) * self.lane_width


@dataclass(frozen=True)
class ControllerParams:
    """Longitudinal controller gains and limits."""

    k_s: float
    t_delay: float
    v_speedlimit: float
    a_cmf: float
    a_max: float
    tau_max: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not 0.0 < self.a_cmf < self.a_max:
            raise ValueError("need 0 < a_cmf < a_max")
        if self.k_s <= 0.0:
            raise ValueError("k_s must be positive")
        if self.v_speedlimit <= 0.0:
            raise ValueError("v_speedlimit must be positive")
        if self.tau_max <= 0.0:
            raise ValueError("tau_max must be positive")
        if self.t_delay < 0.0:
            raise ValueError("t_delay must be nonnegative")
