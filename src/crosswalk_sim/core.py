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


def whole_ticks(duration: float, dt: float, name: str) -> int:
    """``duration / dt`` as an int; ``ValueError`` naming ``name`` unless the
    ratio lies within 1e-9 of a whole number, so no duration is rounded silently."""
    ratio = duration / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9:
        raise ValueError(f"{name} = {duration!r} s is not a whole number of {dt!r} s ticks")
    return n


def comfort_brake_distance(v: float, a_cmf: float) -> float:
    """Distance needed to stop from speed ``v`` at the comfortable deceleration."""
    if a_cmf <= 0.0:
        raise ValueError("a_cmf must be positive")
    return v * v / (2.0 * a_cmf)


def max_brake_distance(v: float, a_max: float) -> float:
    """Distance needed to stop from speed ``v`` at the maximum deceleration."""
    if a_max <= 0.0:
        raise ValueError("a_max must be positive")
    return v * v / (2.0 * a_max)


@dataclass(frozen=True)
class WorldGeometry:
    """Static crosswalk geometry.

    ``x_f`` is the end of the legally relevant crosswalk span measured in
    the pedestrian's own crossing direction (jurisdictions differ on
    whether the full roadway or only half of it counts).
    ``crosswalk_depth`` is the painted stripe depth along the vehicle's
    travel direction, centered on the pedestrian walking line y = 0.
    """

    n_lanes: int = 4
    lane_width: float = 3.5
    x_f: float = 14.0
    delta: float = 5.0
    crosswalk_depth: float = 3.0

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

    def vehicle_y(self, d: float) -> float:
        """Longitudinal position of the vehicle for a given stop-point distance."""
        return -(d + self.delta)

    def vehicle_is_past(self, d: float) -> bool:
        """True once the vehicle has cleared the crosswalk stripe by a 1 m margin."""
        return self.vehicle_y(d) > self.crosswalk_depth / 2.0 + 1.0


@dataclass
class VehicleState:
    """Ego kinematic state. ``d`` may go negative; ``v`` never does."""

    d: float
    v: float
    x_v: float

    def __post_init__(self) -> None:
        if self.v < 0.0:
            raise ValueError("vehicle speed must be nonnegative")


@dataclass
class PedestrianState:
    """Pedestrian position and velocity along the crosswalk axis."""

    x_p: float
    xdot_p: float
    entry_side: EntrySide = EntrySide.NEAR

    def span_coord(self, geometry: WorldGeometry) -> float:
        """Progress along the crossing, measured from the entry-side curb."""
        if self.entry_side is EntrySide.NEAR:
            return self.x_p
        return geometry.roadway_width - self.x_p

    def span_speed(self) -> float:
        """Signed speed in the crossing direction (positive = into the road)."""
        if self.entry_side is EntrySide.NEAR:
            return self.xdot_p
        return -self.xdot_p


@dataclass(frozen=True)
class ControllerParams:
    """Longitudinal controller gains and limits."""

    k_s: float = 2.0
    t_delay: float = 0.0
    v_speedlimit: float = 4.5
    a_cmf: float = 2.0
    a_max: float = 9.0
    tau_max: float = 4.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not 0.0 < self.a_cmf < self.a_max:
            raise ValueError("need 0 < a_cmf < a_max")
        if self.k_s <= 0.0:
            raise ValueError("k_s must be positive")
        if self.tau_max <= 0.0:
            raise ValueError("tau_max must be positive")
        if self.t_delay < 0.0:
            raise ValueError("t_delay must be nonnegative")
