import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from crosswalk_sim.core import (
    ControllerParams,
    EntrySide,
    WorldGeometry,
    brake_distance,
    write_output,
)
from crosswalk_sim.pedestrian import GapAcceptanceModel, in_crosswalk
from crosswalk_sim.pomdp import PomdpModel, RewardWeights

from states import CONFIG, SCENARIO, trial_state


class TestBrakeDistances:
    def test_comfort_values(self):
        assert brake_distance(4.5, 2.0) == 5.0625
        assert brake_distance(0.0, 2.0) == 0.0
        assert brake_distance(7.0, 2.0) == 12.25

    def test_max_values(self):
        assert brake_distance(4.5, 9.0) == 1.125
        assert brake_distance(0.0, 9.0) == 0.0
        assert brake_distance(9.0, 9.0) == 4.5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            brake_distance(4.5, 0.0)
        with pytest.raises(ValueError):
            brake_distance(4.5, -1.0)

    def test_max_never_exceeds_comfort(self):
        for v in np.linspace(0.0, 12.0, 200):
            dm = brake_distance(v, 9.0)
            dc = brake_distance(v, 2.0)
            if v == 0.0:
                assert dm == dc == 0.0
            else:
                assert dm < dc


class TestWorldGeometry:
    def test_lane_centers_increasing_within_roadway(self, geometry):
        centers = [geometry.vehicle_lane_center_x(k) for k in range(geometry.n_lanes)]
        assert centers == sorted(centers)
        assert all(0.0 < c < geometry.roadway_width for c in centers)
        assert centers[0] == 1.75 and centers[1] == 5.25

    def test_vehicle_y(self, geometry):
        # The vehicle's y is -(d + delta); walking_line gives its distance to y = 0.
        assert trial_state(geometry, d=0.0).walking_line(geometry)[0] == 5.0
        assert trial_state(geometry, d=-5.0).walking_line(geometry)[0] == 0.0

    def test_vehicle_is_past(self, geometry):
        # Past once 1 m beyond the far edge of the 3 m stripe (y > 2.5).
        assert not trial_state(geometry, d=0.0).walking_line(geometry)[1]
        assert not trial_state(geometry, d=-7.5).walking_line(geometry)[1]
        assert trial_state(geometry, d=-7.51).walking_line(geometry)[1]

    def test_x_f_bounds(self, geometry):
        with pytest.raises(ValueError):
            replace(geometry, n_lanes=2, x_f=8.0)
        with pytest.raises(ValueError):
            replace(geometry, x_f=0.0)
        half = replace(geometry, n_lanes=4, x_f=7.0)
        assert half.x_f == 7.0

    def test_delta_positive(self, geometry):
        with pytest.raises(ValueError):
            replace(geometry, delta=0.0)

    def test_lane_index_checked(self, geometry):
        with pytest.raises(ValueError):
            geometry.vehicle_lane_center_x(4)


class TestControllerParams:
    def test_table_defaults(self, params):
        assert (params.k_s, params.t_delay, params.v_speedlimit) == (2.0, 0.0, 4.5)
        assert (params.a_cmf, params.a_max, params.tau_max) == (2.0, 9.0, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a_cmf=0.0),
            dict(a_cmf=9.0, a_max=9.0),
            dict(k_s=0.0),
            dict(tau_max=0.0),
            dict(t_delay=-0.1),
            dict(v_speedlimit=0.0),
        ],
    )
    def test_invalid(self, params, kwargs):
        with pytest.raises(ValueError):
            replace(params, **kwargs)


class TestPedestrianState:
    """The pedestrian's fields of a trial's state."""

    def test_far_side_mirrors_near_side(self, geometry):
        # A far-side pedestrian at x_p = W - c walking at -cdot is where a near-side
        # one at x_p = c walking at cdot is, in the crossing's own coordinates.
        w = geometry.roadway_width
        for c, cdot in [(2.0, 1.2), (2.0, 0.0), (-1.0, 1.2), (-1.0, 0.0), (-1.0, -1.2),
                        (w + 1.0, 1.2)]:
            near = trial_state(geometry, EntrySide.NEAR, x_p=c, xdot_p=cdot)
            far = trial_state(geometry, EntrySide.FAR, x_p=w - c, xdot_p=-cdot)
            assert in_crosswalk(near, geometry) is in_crosswalk(far, geometry) is (
                0.0 <= c <= geometry.x_f or cdot > 0.0 and c < geometry.x_f), (c, cdot)

    def test_vehicle_state_rejects_reverse(self, scenario_factory):
        with pytest.raises(ValueError, match="initial_v"):
            scenario_factory(initial_v=-0.1)


def test_operations_are_pure():
    assert brake_distance(3.3, 2.0) == brake_distance(3.3, 2.0)
    assert brake_distance(3.3, 9.0) == brake_distance(3.3, 9.0)


def _scenario(**kwargs):
    return replace(SCENARIO, **kwargs)


def _pomdp_model(**kwargs):
    # Called directly: the config's parser refuses a non-finite number before
    # the model sees it. The default model's arguments, with kwargs over them.
    m = CONFIG.pomdp_model()
    args = dict(weights=m.weights, dt=m.dt, discount=m.discount, n_v_bins=len(m.v_grid),
                n_d_bins=len(m.d_grid), d_range=(m.d_grid[0], m.d_grid[-1]),
                actions=tuple(m.a_grid))
    return PomdpModel(m.params, m.geometry, m.gap_model, **{**args, **kwargs})


# The default config's parameter records; the non-finite value is written over one field.
RECORDS = {type(r): r for r in (CONFIG.controller_params(), CONFIG.geometry(),
                                CONFIG.gap_model(), CONFIG.reward_weights())}


@pytest.mark.parametrize(
    "build,kwargs",
    [
        (ControllerParams, dict(k_s=math.nan)),
        (ControllerParams, dict(tau_max=math.nan)),
        (ControllerParams, dict(v_speedlimit=math.nan)),
        (ControllerParams, dict(a_max=math.inf)),
        (WorldGeometry, dict(delta=math.nan)),
        (GapAcceptanceModel, dict(walk_speed=math.nan)),
        (GapAcceptanceModel, dict(max_trigger_gap=math.inf)),
        (RewardWeights, dict(w_safety=math.nan)),
        (_scenario, dict(initial_d=math.nan)),
        (_scenario, dict(initial_v=-math.inf)),
        (_pomdp_model, dict(dt=math.nan)),
        (_pomdp_model, dict(d_range=(-5.0, math.inf))),
        (_pomdp_model, dict(actions=(math.nan, 0.0))),
    ],
)
def test_non_finite_rejected(build, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(RECORDS[build], **kwargs) if build in RECORDS else build(**kwargs)


class TestWriteOutput:
    TEXT = "a,b\r\n1,2\r\nµ,\u00e9\n"  # CRLF and LF rows, non-ASCII text

    @pytest.mark.parametrize("old", [b"", b"x" * 4096, b"short"])
    def test_holds_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "out.csv"
        path.write_bytes(old)
        write_output(path, self.TEXT)
        assert path.read_bytes() == self.TEXT.encode("utf-8")

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        path = tmp_path / "new.csv"
        umask = os.umask(0o027)
        try:
            write_output(path, "x\n")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640  # 0o666 & ~0o027

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("a much longer old text\n")
        path.chmod(0o640)
        write_output(path, "x\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_bytes() == b"x\n"

    def test_writes_through_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old text, longer than the new\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_output(link, "new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"

    def test_error_mid_write_leaves_no_old_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_bytes(b"o" * 100)
        real_write, calls = os.write, []

        def write_then_fail(fd, data):  # a short write, then an error
            calls.append(fd)
            if len(calls) > 1:
                raise OSError("disk full")
            return real_write(fd, data[:3])

        monkeypatch.setattr(os, "write", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_output(path, "abcdefgh")
        monkeypatch.undo()
        assert path.read_bytes() == b"abc"
