import csv
import io
import math
import os
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from crosswalk_sim import cli
from crosswalk_sim.cli import TRIALS_HEADER, main
from crosswalk_sim.config import DEFAULTS, load_config
from crosswalk_sim.pomdp import load_policy, policy_cache_path
from crosswalk_sim.simulator import TrialResult, plan_batch, run_batch, seeded_gaps

pytestmark = pytest.mark.usefixtures("pomdp_cache_env")


@pytest.fixture(scope="module")
def pomdp_cache_env(tmp_path_factory):
    cache = tmp_path_factory.mktemp("pomdp_cache")
    old = os.environ.get("CWSIM_POMDP__CACHE_DIR")
    os.environ["CWSIM_POMDP__CACHE_DIR"] = str(cache)
    yield
    if old is None:
        os.environ.pop("CWSIM_POMDP__CACHE_DIR", None)
    else:
        os.environ["CWSIM_POMDP__CACHE_DIR"] = old


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestSimulate:
    def test_sweep_run_writes_artifacts(self, tmp_path):
        # --lane and --side take any case, as the config does: b and FAR are B and far.
        for lane, side in (("A", "near"), ("b", "FAR")):
            out = tmp_path / lane
            rc = main(
                ["simulate", "--sweep", "1:0.5:9", "--lane", lane, "--side", side,
                 "--out", str(out)]
            )
            assert rc == 0
            rows = read_rows(out / "trials.csv")
            assert len(rows) == 17
            assert list(rows[0].keys()) == TRIALS_HEADER
            assert {(r["lane"], r["entry_side"]) for r in rows} == {(lane.upper(), side.lower())}
            assert (out / "summary.csv").exists()
            assert (out / "resolved_config.ini").exists()

    def test_sweep_stops_at_hi(self, tmp_path):
        # 1:0.6:2 has no point at 2; the grid ends at 1.6, not at 2.2.
        out = tmp_path / "run"
        assert main(["simulate", "--sweep", "1:0.6:2", "--out", str(out)]) == 0
        assert [r["accepted_gap_s"] for r in read_rows(out / "trials.csv")] == ["1", "1.6"]

    def test_summary_counts_every_trial(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--sweep", "8:0.5:12", "--out", str(out)]) == 0
        summary = read_rows(out / "summary.csv")
        assert sum(int(r["n_trials"]) for r in summary) == len(read_rows(out / "trials.csv")) == 9
        assert [r["gap_bin_lo_s"] for r in summary][-3:] == ["11", "11.5", "12"]

    def test_means_add_left_to_right(self, tmp_path, capsys):
        # 1e16 + 1 rounds back to 1e16, so adding left to right, as the engine adds
        # a trial's speeds, gives a mean of 0; the compensated sum() of Python 3.12
        # and later gives 1 / 3. The means must not depend on the Python version.
        speeds = [1e16, 1.0, -1e16]
        cells = [("hybrid", "1", "2", cli._fmt(v), "0", "false") for v in speeds]
        cli.write_summary_csv(tmp_path / "summary.csv", {("near", "A", "hybrid"): cells})
        (row,) = read_rows(tmp_path / "summary.csv")
        assert row["mean_avg_velocity_mps"] == "0"
        results = [TrialResult(min_distance=2.0, avg_velocity=v, peak_accel=0.0, collision=False,
                               timed_out=False, mode_trace=(), overrun=False, final_d=0.0)
                   for v in speeds]
        assert cli._finish(results, tmp_path) == 0
        assert "mean_avg_velocity=0.000 " in capsys.readouterr().out

    def test_trials_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--trials", "25", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out / "trials.csv")
        assert len(rows) == 25
        assert all(r["method"] == "hybrid" for r in rows)
        gaps = [float(r["accepted_gap_s"]) for r in rows]
        assert len(set(gaps)) > 1

    def test_collision_gives_nonzero_exit(self, tmp_path, monkeypatch):
        # An absurd collision radius turns a safe pass into a flagged hit.
        monkeypatch.setenv("CWSIM_RUN__COLLISION_RADIUS", "6.0")
        out = tmp_path / "run"
        rc = main(["simulate", "--sweep", "1:1:1", "--out", str(out)])
        assert rc == 1

    def test_timeout_gives_nonzero_exit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CWSIM_RUN__MAX_SIM_TIME", "1.0")
        rc = main(["simulate", "--sweep", "8:1:8", "--out", str(tmp_path / "run")])
        assert rc == 1

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nwheels = 4\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "var,value,argv",
        [
            ("CWSIM_CONTROLLER__K_S", "nan", ["simulate", "--trials", "3"]),
            ("CWSIM_RUN__INITIAL_D", "inf", ["simulate", "--trials", "3"]),
            ("CWSIM_RUN__MAX_SIM_TIME", "-inf", ["simulate", "--trials", "3"]),
            ("CWSIM_RUN__DT", "0", ["simulate", "--trials", "3"]),
            ("CWSIM_WORLD__N_LANES", "1", ["simulate", "--trials", "3", "--lane", "B"]),
            ("CWSIM_PEDESTRIAN__SIGMA2_GAP", "-1", ["simulate", "--trials", "3"]),
            ("CWSIM_CONTROLLER__A_CMF", "10", ["simulate", "--trials", "3"]),
            ("CWSIM_RUN__CONTROLLER", "foo", ["simulate", "--trials", "3"]),
            ("CWSIM_POMDP__ACTIONS", "a,0", ["solve-pomdp"]),
            ("CWSIM_RUN__TRIALS", "0", ["simulate"]),
            (None, None, ["simulate", "--trials", "0"]),
            (None, None, ["simulate", "--trials", "3", "--seed", "-1"]),
            ("CWSIM_POMDP__ACTIONS", "nan,0", ["solve-pomdp"]),
            (None, None, ["replay", "--gap", "nan"]),
            (None, None, ["replay", "--gap", "-3"]),
            (None, None, ["replay", "--gap", "0.2"]),
            (None, None, ["simulate", "--sweep=-2:0.5:0"]),
            ("CWSIM_RUN__COLLISION_RADIUS", "-1", ["simulate", "--trials", "3"]),
            ("CWSIM_RUN__T_DELAY_PLANT", "-1", ["simulate", "--trials", "3"]),
            ("CWSIM_POMDP__TOL", "0", ["solve-pomdp"]),
            ("CWSIM_RUN__CONTROLLER", "foo", ["replay", "--gap", "2.5"]),
            # Checked by every verb, not only by the code that reads the name.
            ("CWSIM_RUN__CONTROLLER", "pomdb", ["compare", "--trials", "2"]),
            ("CWSIM_RUN__LANE", "C", ["compare", "--trials", "2"]),
            ("CWSIM_RUN__SIDE", "up", ["solve-pomdp"]),
            (None, None, ["replay", "--trial", "1"]),
            (None, None, ["replay"]),
            (None, None, ["replay", "--preset", "experiment", "--trial", "1", "--gap", "9"]),
            (None, None, ["replay", "--preset", "experiment", "--trial", "1", "--side", "far"]),
            ("CWSIM_RUN__T_DELAY_PLANT", "0.07", ["simulate", "--trials", "5"]),
            ("CWSIM_POMDP__DT", "0.23", ["simulate", "--controller", "pomdp", "--trials", "5"]),
            # A decision period of 0 ticks, and a plant delay as long as the run.
            ("CWSIM_POMDP__DT", "1e-12", ["simulate", "--controller", "pomdp", "--trials", "3"]),
            ("CWSIM_RUN__T_DELAY_PLANT", "100", ["replay", "--gap", "2.5"]),
            ("CWSIM_CONTROLLER__V_SPEEDLIMIT", "-1", ["simulate", "--trials", "3"]),
            ("CWSIM_CONTROLLER__V_SPEEDLIMIT", "0", ["replay", "--gap", "3"]),
            ("CWSIM_CONTROLLER__V_SPEEDLIMIT", "0", ["solve-pomdp"]),
            ("CWSIM_CONTROLLER__V_SPEEDLIMIT", "-2", ["solve-pomdp"]),
            ("CWSIM_RUN__SEED", "-1", ["replay", "--gap", "3"]),
            ("CWSIM_POMDP__ACTIONS", "-4,-4,0", ["solve-pomdp"]),
            ("CWSIM_POMDP__ACTIONS", "0,-0", ["solve-pomdp"]),
            # A grid of more than MAX_Q_ENTRIES Q entries, rejected before it is allocated.
            ("CWSIM_POMDP__N_D_BINS", "20000000", ["solve-pomdp"]),
            ("CWSIM_POMDP__N_V_BINS", "100000", ["simulate", "--controller", "pomdp",
                                                 "--trials", "3"]),
            (None, None, ["simulate", "--sweep=0.5:1e-320:1"]),  # (hi - lo) / step overflows
            (None, None, ["simulate", "--sweep=-1e308:1:1e308"]),  # hi - lo overflows
            (None, None, ["simulate", "--sweep=0.5:1e-300:1"]),  # about 5e299 points
            (None, None, ["simulate", "--sweep=1:1:1000001"]),  # MAX_TRIALS + 1 points
            (None, None, ["simulate", "--sweep=1:1e-11:1"]),  # one point, but a step below 1e-10
            (None, None, ["simulate", "--trials", "1000001"]),  # MAX_TRIALS + 1 seeded gaps
            ("CWSIM_RUN__TRIALS", "1000000000000", ["compare"]),
            # A delay or decision period of more than MAX_TICKS ticks, whose ratio
            # to run.dt is inf or whose delay ring would hold 2e10 commands.
            ("CWSIM_RUN__T_DELAY_PLANT", "1e308", ["simulate", "--trials", "3"]),
            ("CWSIM_POMDP__DT", "1e308", ["simulate", "--trials", "3", "--controller", "pomdp"]),
            ("CWSIM_RUN__T_DELAY_PLANT", "1e9", ["replay", "--gap", "2.5"]),
            # A gap above MAX_GAP, whose summary bin gap // 0.5 would be inf.
            (None, None, ["simulate", "--sweep", "1e308:1:1e308"]),
            ("CWSIM_PEDESTRIAN__MU_GAP", "1e308", ["simulate", "--trials", "3"]),
            (None, None, ["simulate", "--sweep", "0.5:1e9:2e9"]),  # a first gap in range
            (None, None, ["replay", "--gap", "1e10"]),
            ("CWSIM_POMDP__DT", "1e308", ["solve-pomdp"]),  # checked as a pomdp run checks it
            # A decision period longer than the crossing time, 11.67 s on the default
            # preset and 5.83 s on the experiment one: P(c'=1) would be negative.
            ("CWSIM_POMDP__DT", "20", ["solve-pomdp"]),
            ("CWSIM_POMDP__DT", "6", ["compare", "--preset", "experiment", "--trials", "5"]),
            # A decision period of one tick whose distance step overflows.
            (("CWSIM_RUN__DT", "CWSIM_POMDP__DT"), "1e300", ["solve-pomdp"]),
            (("CWSIM_RUN__DT", "CWSIM_POMDP__DT"), "1e300",
             ["simulate", "--controller", "pomdp", "--trials", "3"]),
            ("CWSIM_RUN", "1", ["simulate", "--trials", "3"]),  # no __KEY
        ],
    )
    def test_bad_value_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, var, value, argv):
        for name in (var,) if isinstance(var, str) else var or ():
            monkeypatch.setenv(name, value)
        if var == "CWSIM_CONTROLLER__V_SPEEDLIMIT":  # not the start speed, which has its own check
            monkeypatch.setenv("CWSIM_RUN__INITIAL_V", "4.5")
        monkeypatch.delenv("CWSIM_POMDP__CACHE_DIR")  # the policy cache goes to .pomdp_cache
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # rejected before any output or cache is written

    @pytest.mark.parametrize("section,key", [(s, k) for s, keys in DEFAULTS.items() for k in keys
                                             if k not in ("cache_dir", "out_dir")])
    def test_extreme_value_of_any_key_exits_0_1_or_2(self, tmp_path, monkeypatch, capsys,
                                                     section, key):
        # Each config key but the two paths, set through its environment variable
        # to each extreme value, under a seeded hybrid and POMDP simulate, a replay
        # and a solve: a run exits 0 or 1, or 2 with one config error line, and
        # never raises or warns. The solve runs on the hybrid's values too, where it
        # hits the cache. The values -0.0, 1e-300, 0.5 and 3 are left out, to keep
        # all 1032 runs to a few seconds.
        monkeypatch.chdir(tmp_path)
        for value in ("nan", "inf", "1e308", "1e9", "0", "-1"):
            monkeypatch.setenv(f"CWSIM_{section.upper()}__{key.upper()}", value)
            for argv in (["simulate", "--trials", "3", "--out", "out"],
                         ["simulate", "--controller", "pomdp", "--trials", "3", "--out", "out"],
                         ["replay", "--gap", "2.5", "--out", "out"], ["solve-pomdp"]):
                status = main(argv)
                err = capsys.readouterr().err
                assert status in (0, 1, 2), (value, argv)
                assert status != 2 or (err.startswith("config error: ")
                                       and err.count("\n") == 1), (value, argv, err)

    @pytest.mark.parametrize("text", [
        b"k_s = 1\n",  # no section header
        b"[controller]\nk_s\n",  # a line with no =
        b"[controller]\nk_s = 1\nk_s = 2\n",  # a repeated key
        b"[controller]\nk_s = 1\n[controller]\na_cmf = 1\n",  # a repeated section
        b"[controller]\nk_s = \xff\n",  # not UTF-8
    ], ids=["no-header", "no-equals", "repeated-key", "repeated-section", "not-utf8"])
    def test_malformed_config_file_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, text):
        config = tmp_path / "bad.ini"
        config.write_bytes(text)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["simulate", "--config", str(config), "--trials", "3", "--out", "out"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("path,message", [
        ("adir", "config error: cannot read config file adir: "),  # exists, cannot be opened
        ("missing.ini", "config error: config file not found: missing.ini\n"),
    ], ids=["directory", "missing"])
    def test_unopenable_config_path_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                          path, message):
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", path, "--trials", "3", "--out", "out"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

    @pytest.mark.parametrize("argv", [["solve-pomdp"], ["compare", "--trials", "5"],
                                      ["simulate", "--controller", "pomdp", "--trials", "3"]])
    def test_overflowing_reward_weight_exits_2_at_once(self, tmp_path, monkeypatch, capsys, argv):
        # A finite weight whose Q overflows leaves a certificate that is not finite:
        # one line, with no traceback, warning, cache file or output.
        monkeypatch.setenv("CWSIM_POMDP__W_SAFETY", "1e308")
        monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pomdp policy: not solved exactly (51 layers, ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("env,argv", [
        ({"CWSIM_RUN__DT": "1e-7"}, ["replay", "--gap", "3"]),
        ({"CWSIM_PEDESTRIAN__WALK_SPEED": "1e-300", "CWSIM_RUN__MAX_SIM_TIME": "1e9"},
         ["compare", "--trials", "2"]),
    ], ids=["replay", "compare"])
    def test_horizon_above_max_ticks_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                              env, argv):
        # Nothing else bounds a trial's ticks: 6e8 and 2e10 of them would run for hours.
        for var, value in env.items():
            monkeypatch.setenv(var, value)

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trial", no_trial)
        monkeypatch.setattr(cli, "run_batch", no_trial)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: run.max_sim_time / run.dt = ")
        assert "MAX_TICKS" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_pomdp_controller_solves_and_caches(self, tmp_path, monkeypatch, capsys):
        cache_dir = tmp_path / "cache"  # empty, whatever ran before
        monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(cache_dir))
        out = tmp_path / "p1"
        rc = main(
            ["simulate", "--controller", "pomdp", "--sweep", "4:1:6", "--out", str(out)]
        )
        assert rc == 0
        assert list(cache_dir.glob("pomdp_policy_*.npz"))
        first = capsys.readouterr().out
        rc = main(
            ["simulate", "--controller", "pomdp", "--sweep", "4:1:6",
             "--out", str(tmp_path / "p2")]
        )
        assert rc == 0
        second = capsys.readouterr().out
        assert "solved" in first and "cache" in second

    def test_controller_name_is_case_insensitive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CWSIM_RUN__CONTROLLER", "POMDP")
        assert main(["simulate", "--sweep", "4:1:4", "--out", str(tmp_path / "run")]) == 0
        assert [r["method"] for r in read_rows(tmp_path / "run" / "trials.csv")] == ["pomdp"]

    def test_corrupt_cache_file_is_resolved(self, tmp_path, monkeypatch, capsys):
        from crosswalk_sim.config import DEFAULTS, load_config
        from crosswalk_sim.pomdp import policy_cache_path

        monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("CWSIM_POMDP__N_D_BINS", "11")
        path = policy_cache_path(tmp_path / "cache", load_config().pomdp_model())
        path.parent.mkdir()
        path.write_bytes(b"not a policy")
        rc = main(["simulate", "--controller", "pomdp", "--sweep", "4:1:4",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "pomdp policy: solved" in capsys.readouterr().out


class TestCompare:
    def test_paired_quadrants(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--sweep", "2:2:8", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "trials.csv")
        # 4 gaps x 4 quadrants x 2 methods
        assert len(rows) == 32
        stdout = capsys.readouterr().out
        assert "hybrid=0" in stdout and "pomdp=0" in stdout
        hybrid = [r for r in rows if r["method"] == "hybrid"]
        pomdp = [r for r in rows if r["method"] == "pomdp"]
        assert [r["accepted_gap_s"] for r in hybrid] == [
            r["accepted_gap_s"] for r in pomdp
        ]
        assert {r["final_mode_sequence"] for r in pomdp} == {"pomdp"}
        for side in ("near", "far"):
            panel_rows = read_rows(out / f"panels_{side}.csv")
            assert {r["metric"] for r in panel_rows} == {
                "min_distance", "avg_velocity", "peak_accel"
            }
            assert {r["lane"] for r in panel_rows} == {"A", "B"}

    def test_paired_gaps_match_row_for_row_random(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--trials", "6", "--seed", "11", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "trials.csv")
        by_key = {}
        for r in rows:
            by_key.setdefault((r["lane"], r["entry_side"]), {}).setdefault(
                r["method"], []
            ).append(r["accepted_gap_s"])
        # One seeded draw per run: trial i of every quadrant and method has seed 11 + i.
        config = load_config(cli_overrides={"run": {"seed": 11}})
        drawn = [cli._fmt(g) for g in seeded_gaps(config.gap_model(), 11, 6)]
        assert len(by_key) == 4
        for quadrant, methods in by_key.items():
            assert methods["hybrid"] == methods["pomdp"] == drawn


def console(cwd: Path, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """``crosswalk-sim argv`` as a child process in ``cwd``, with only ``env``, the
    package's path and the suite's warning filter in its environment: a
    RuntimeWarning is an error there too."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "crosswalk_sim.cli", *argv], cwd=cwd,
                          env={"PYTHONPATH": str(src), "PYTHONWARNINGS": "error::RuntimeWarning",
                               **env},
                          capture_output=True, text=True, timeout=120)


def test_console_script_ends_a_walk_that_outlasts_the_run(tmp_path):
    # At 1e-300 m/s no pedestrian reaches the far curb, so every trial times out:
    # 2 methods x 4 quadrants x 5 trials = 40, exit 1 and no traceback. No gap
    # class arms by 5 s (tick 100), so every trial ends in its scalar prefix.
    child = console(tmp_path, "compare", "--trials", "5", "--seed", "0",
                    CWSIM_POMDP__CACHE_DIR=os.environ["CWSIM_POMDP__CACHE_DIR"],
                    CWSIM_PEDESTRIAN__WALK_SPEED="1e-300", CWSIM_RUN__MAX_SIM_TIME="5")
    assert child.returncode == 1, child.stderr[-500:]
    assert "timeouts=40" in child.stdout
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("preset", ["default", "experiment"])
def test_console_script_runs_both_controllers_in_one_batch_without_coupling_them(tmp_path,
                                                                                  preset):
    # compare runs every method's rows in one lockstep batch on one clock. Each
    # method's lane B, far side rows there, trial_id aside, must equal a simulate
    # run of that method alone. The lockstep starts on the first tick on which a
    # gap class arms, from each group's scalar prefix: on the experiment preset
    # that is tick 12 of these gaps, so an 11-slot delay ring holding the last 10
    # commands is handed over, which the POMDP's rows then read, holding each
    # decision for 5 ticks. Its runs collide and time out, so they exit 1.
    flags, expected = ([], 0) if preset == "default" else (["--preset", "experiment"], 1)
    cache = os.environ["CWSIM_POMDP__CACHE_DIR"]

    def run(*argv):  # a 20-trial run, which must exit ``expected``
        child = console(tmp_path, *argv, *flags, "--trials", "20", "--seed", "0",
                        CWSIM_POMDP__CACHE_DIR=cache)
        assert child.returncode == expected, child.stderr[-500:]

    def rows(path, keep):
        return [{k: v for k, v in r.items() if k != "trial_id"} for r in read_rows(path)
                if keep(r)]

    run("compare", "--out", "both")
    for method in ("hybrid", "pomdp"):
        run("simulate", "--controller", method, "--lane", "B", "--side", "far", "--out", method)
        alone = rows(tmp_path / method / "trials.csv", lambda r: True)
        both = rows(tmp_path / "both" / "trials.csv",
                    lambda r: (r["method"], r["lane"], r["entry_side"]) == (method, "B", "far"))
        assert alone and alone == both


def test_console_script_rejects_a_config_path_it_cannot_open(tmp_path):
    # A config path that exists but cannot be opened (a directory) is one
    # `config error:` line, exit 2, no output, and not "not found".
    (tmp_path / "adir").mkdir()
    child = console(tmp_path, "simulate", "--config", "adir", "--out", "out")
    assert child.returncode == 2
    assert child.stderr.count("\n") == 1 and "not found" not in child.stderr, child.stderr
    assert not (tmp_path / "out").exists()


def test_console_script_solves_caches_and_rejects_an_overflowing_weight(tmp_path):
    # Into an empty cache: a fresh solve and a cache hit export the same bytes, on
    # both presets; a fresh solve says it solved exactly; a model with
    # standstill-braking states (dt 0.5) solves; compare then reads the cache; a
    # weight whose Q overflows is one `config error:` line, exit 2, and no cache.
    def run(*argv, **env):
        child = console(tmp_path, *argv, **env)
        assert child.returncode == 0, child.stderr[-500:]
        return child.stdout

    assert "pomdp policy: solved exactly (51 layers, " in run("solve-pomdp", "--export", "a.csv")
    run("solve-pomdp", "--export", "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    run("solve-pomdp", "--preset", "experiment", "--export", "c.csv")
    assert "pomdp policy: cache" in run("solve-pomdp", "--preset", "experiment", "--export",
                                        "d.csv")
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
    assert "pomdp policy: solved exactly" in run("solve-pomdp", CWSIM_POMDP__DT="0.5")
    assert "pomdp policy: cache" in run("compare", "--trials", "5", "--out", "out")
    child = console(tmp_path, "solve-pomdp", CWSIM_POMDP__W_SAFETY="1e308",
                    CWSIM_POMDP__CACHE_DIR="overflow")
    assert child.returncode == 2
    assert child.stderr.count("\n") == 1, child.stderr
    assert not (tmp_path / "overflow").exists()


def test_console_script_solves_over_a_cache_file_holding_a_plain_array(tmp_path):
    # np.load reads a plain .npy file under the policy's cache name as an array,
    # not an archive: a cache miss, so solve-pomdp solves again (exit 0, no
    # traceback) and writes a cache that the next load reads.
    model = load_config(env={}).pomdp_model()
    path = policy_cache_path(tmp_path / "cache", model)
    path.parent.mkdir()
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))
    child = console(tmp_path, "solve-pomdp", CWSIM_POMDP__CACHE_DIR="cache")
    assert child.returncode == 0, child.stderr[-500:]
    assert "pomdp policy: solved exactly" in child.stdout
    assert load_policy(path, model) is not None


def test_console_script_replays_a_scripted_trial(tmp_path):
    # Scripted trial 4 of the experiment preset (0.5 s plant delay) confirms its
    # expected HardBraking and writes its trace; TestReplay checks the bytes.
    child = console(tmp_path, "replay", "--preset", "experiment", "--trial", "4", "--out", "t4")
    assert child.returncode == 0, child.stderr[-500:]
    assert "trial 4: expected mode HardBraking confirmed" in child.stdout
    assert (tmp_path / "t4" / "trace.csv").is_file()


def test_console_script_sweep_stops_at_its_upper_bound(tmp_path):
    # 1:0.6:2 has no grid point at 2, so the last gap is 1.6, never 2.2.
    child = console(tmp_path, "simulate", "--sweep", "1:0.6:2", "--out", "sweep")
    assert child.returncode == 0, child.stderr[-500:]
    assert [r["accepted_gap_s"] for r in read_rows(tmp_path / "sweep" / "trials.csv")] == \
        ["1", "1.6"]


def test_console_script_rewrites_a_longer_run_in_place(tmp_path):
    # compare --trials 5 into an --out holding a --trials 20 run gives the same
    # files, byte for byte, as into a fresh one (a relative --out: the same config
    # echo).
    cache = os.environ["CWSIM_POMDP__CACHE_DIR"]

    def compare(cwd, trials):
        child = console(cwd, "compare", "--trials", trials, "--seed", "0", "--out", "out",
                        CWSIM_POMDP__CACHE_DIR=cache)
        assert child.returncode == 0, child.stderr[-500:]
        return {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}

    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    compare(tmp_path / "reused", "20")
    assert compare(tmp_path / "reused", "5") == compare(tmp_path / "fresh", "5")


def test_console_script_traces_a_replay_s_colliding_tick(tmp_path):
    # The hybrid collides on the experiment preset, lane B, far side, at gap 1.1 s:
    # exit 1, and trace.csv's last row is the colliding tick, within 1.0 m of the
    # vehicle at x = 5.25 (lane B's centre) and y = -(d + 5).
    child = console(tmp_path, "replay", "--preset", "experiment", "--lane", "B", "--side", "far",
                    "--gap", "1.1", "--out", "hit")
    assert child.returncode == 1, child.stderr[-500:]
    last = read_rows(tmp_path / "hit" / "trace.csv")[-1]
    assert math.hypot(float(last["x_p"]) - 5.25, float(last["d"]) + 5.0) < 1.0, last


@pytest.mark.parametrize("argv", [
    ["replay", "--gap", "2.5", "--lane", "C"],  # a bad flag value: load_config's error
    ["simulate", "--sweep=0.5:1e-320:1"],  # (hi - lo) / step overflows a float
    ["simulate", "--sweep=0.5:1e-300:1"],  # a finite point count above MAX_TRIALS
    ["simulate", "--config", "no-header.ini"],  # a config file with no section header
    ["simulate", "--config", "no-equals.ini"],  # and one with a line with no =
    ["replay", "--preset", "experiment", "--trial", "1", "--controller", "pomdp"],
    ["replay", "--gap", "2.5", "--seed", "5"],  # a replay draws nothing
], ids=["bad-flag-value", "sweep-overflow", "sweep-above-max-trials", "config-no-header",
        "config-no-equals", "scripted-trial-not-hybrid", "replay-seed"])
def test_console_script_rejects_bad_input(tmp_path, argv):
    # Bad input is one `config error:` line, exit 2, no traceback, and no output or
    # policy cache: a scripted --trial checks the hybrid controller's modes, so
    # another controller stops before any solve. The child is given no cache
    # directory, so a solve would write .pomdp_cache here.
    (tmp_path / "no-header.ini").write_text("k_s = 1\n")
    (tmp_path / "no-equals.ini").write_text("[controller]\nk_s\n")
    child = console(tmp_path, *argv, "--out", "out")
    assert child.returncode == 2
    assert child.stderr.startswith("config error: ") and child.stderr.count("\n") == 1, \
        child.stderr
    assert child.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["no-equals.ini", "no-header.ini"]


class TestTablesMatchCsvModule:
    """The one-pass tables against the csv module rendering the same trials:
    ``csv.DictWriter`` rows for trials.csv, ``csv.writer`` for summary.csv and
    panels_*.csv, and the stdout totals, byte for byte."""

    @staticmethod
    def render(header: list[str], rows: list[list]) -> bytes:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode("utf-8")

    @classmethod
    def oracle(cls, gaps: list, batches: dict, compare: bool,
               out_dir: Path) -> tuple[dict, list[str]]:
        """Every table and stdout line of a run from its gaps and its trials, keyed
        by (side, lane, method) in row order; trial i of a batch has gap ``gaps[i]``."""
        fmt = cli._fmt
        rows = []
        for (side, lane, method), batch in batches.items():
            for gap, r in zip(gaps, batch, strict=True):
                rows.append({
                    "trial_id": len(rows), "method": method, "lane": lane, "entry_side": side,
                    "accepted_gap_s": fmt(gap),
                    **{column: fmt(getattr(r, metric))
                       for metric, (column, _) in cli.METRIC_COLUMNS.items()},
                    "collision": str(r.collision).lower(),
                    "final_mode_sequence": r.mode_sequence(),
                })
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=TRIALS_HEADER)
        writer.writeheader()
        writer.writerows(rows)
        files = {"trials.csv": buf.getvalue().encode("utf-8")}

        columns = [column for column, _ in cli.METRIC_COLUMNS.values()]
        bins: dict = {}
        for r in rows:
            b = int(float(r["accepted_gap_s"]) // cli.SUMMARY_BIN)
            bins.setdefault((r["method"], b), []).append(r)
        files["summary.csv"] = cls.render(
            ["method", "gap_bin_lo_s", "gap_bin_hi_s", "n_trials",
             *(f"mean_{c}" for c in columns), "max_peak_accel_mps2", "collisions"],
            [[method, fmt(b * cli.SUMMARY_BIN), fmt((b + 1) * cli.SUMMARY_BIN), len(sel),
              *(fmt(reduce(add, (float(r[c]) for r in sel), 0) / len(sel)) for c in columns),
              fmt(max(float(r["peak_accel_mps2"]) for r in sel)),
              sum(r["collision"] == "true" for r in sel)]
             for (method, b), sel in sorted(bins.items())],
        )

        results = [r for batch in batches.values() for r in batch]
        stdout = []
        if compare:
            for side in ("near", "far"):
                files[f"panels_{side}.csv"] = cls.render(
                    ["panel", "lane", "metric", "accepted_gap_s", "hybrid", "pomdp"],
                    [[f"{metric}_lane_{lane}", lane, metric, fmt(gap),
                      fmt(getattr(h, metric)), fmt(getattr(p, metric))]
                     for lane in ("A", "B")
                     for gap, h, p in zip(gaps, batches[side, lane, "hybrid"],
                                          batches[side, lane, "pomdp"], strict=True)
                     for metric in cli.METRIC_COLUMNS],
                )
            counts = {m: sum(r.collision for (_, _, method), batch in batches.items()
                             if method == m for r in batch) for m in cli.METHODS}
            stdout.append("per-method collisions: "
                          + " ".join(f"{m}={c}" for m, c in counts.items()))
        mean_v = reduce(add, (r.avg_velocity for r in results), 0) / len(results)
        stdout.append(
            f"n={len(results)} collisions={sum(r.collision for r in results)} "
            f"timeouts={sum(r.timed_out for r in results)} "
            f"mean_avg_velocity={mean_v:.3f} "
            f"max_peak_accel={max(r.peak_accel for r in results):.3f} -> {out_dir}"
        )
        return files, stdout

    @pytest.mark.parametrize(
        "env,argv,collisions",
        [
            (None, ["compare", "--trials", "20", "--seed", "0"], 0),
            (None, ["simulate", "--preset", "experiment", "--lane", "B", "--side", "far",
                    "--sweep", "1.0:0.05:1.4"], 6),
            # Both methods collide in more than one quadrant, so per-method counts add up.
            ("6.0", ["compare", "--sweep", "1:0.25:4"], 48),
        ],
        ids=["compare", "simulate-collisions", "compare-collisions"],
    )
    def test_tables_and_stdout_match(self, tmp_path, monkeypatch, capsys, env, argv, collisions):
        if env is not None:
            monkeypatch.setenv("CWSIM_RUN__COLLISION_RADIUS", env)
        calls = []
        run_batch = cli.run_batch

        def recorded(scenarios, gaps, *controllers):
            calls.append((scenarios, list(gaps), run_batch(scenarios, gaps, *controllers)))
            return calls[-1][2]

        monkeypatch.setattr(cli, "run_batch", recorded)
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == (1 if collisions else 0)
        compare = argv[0] == "compare"
        methods = cli.METHODS if compare else ("hybrid",)
        assert len(calls) == 1  # every method in one lockstep call
        scenarios, gaps, results = calls[0]
        n = len(gaps)
        batches = {}
        for k, scenario in enumerate(scenarios):
            for j, method in enumerate(methods):
                block = (j * len(scenarios) + k) * n
                batches[scenario.entry_side.value, scenario.lane.value, method] = \
                    results[block:block + n]
        files, stdout = self.oracle(gaps, batches, compare, out)
        assert sum(r.collision for batch in batches.values() for r in batch) == collisions
        for name, data in files.items():
            assert (out / name).read_bytes() == data, name
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if not line.startswith("pomdp policy:")] == stdout


def test_each_gap_class_is_one_result_rendered_once(tmp_path, monkeypatch):
    config = load_config(cli_overrides={"run": {"trials": 40, "seed": 0}})
    scenarios = [config.scenario(lane=lane, side=side)
                 for side, lane in (("near", "A"), ("far", "B"))]
    gaps = seeded_gaps(config.gap_model(), 0, 40)
    methods = dict(cli._controller(config, method, scenarios[0]) for method in cli.METHODS)
    results = run_batch(scenarios, gaps, *methods.values())
    classes = plan_batch(scenarios, gaps, *methods.values()).classes
    n = len(gaps)
    batches = {}
    for j, method in enumerate(methods):
        for k, scenario in enumerate(scenarios):
            batch = results[(j * len(scenarios) + k) * n:(j * len(scenarios) + k + 1) * n]
            arms = classes[j * len(scenarios) + k]
            # The trials of one class share one result object, and only they do.
            assert all((a is b) == (arm_a == arm_b) for a, arm_a in zip(batch, arms)
                       for b, arm_b in zip(batch, arms))
            batches[scenario.entry_side.value, scenario.lane.value, method] = batch
    distinct = len({id(r) for r in results})
    assert distinct < len(results)  # classes repeat

    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or fmt(x))
    table = cli.write_trials_csv(tmp_path / "trials.csv", gaps, batches)
    # Once per gap, and once per metric of each distinct result; a per-trial
    # copy of the results would be rendered once per trial.
    assert len(calls) == n + 3 * distinct
    rows = read_rows(tmp_path / "trials.csv")
    assert [(r["method"], r["accepted_gap_s"], *(r[c] for c, _ in cli.METRIC_COLUMNS.values()),
             r["collision"]) for r in rows] == [c for cells in table.values() for c in cells]
    assert [r["final_mode_sequence"] for r in rows] == [
        r.mode_sequence() for batch in batches.values() for r in batch]


class TestPlot:
    def make_trials(self, tmp_path) -> Path:
        out = tmp_path / "run"
        main(["simulate", "--sweep", "1:1:9", "--out", str(out)])
        return out / "trials.csv"

    def test_marker_per_trial(self, tmp_path):
        trials = self.make_trials(tmp_path)
        svg_path = tmp_path / "plot.svg"
        rc = main(["plot", str(trials), str(svg_path), "--metric", "min_distance"])
        assert rc == 0
        svg = svg_path.read_text()
        assert svg.count('class="marker"') == 9
        assert "pedestrian accepted gap (s)" in svg
        assert "closest vehicle-pedestrian distance (m)" in svg

    def test_deterministic_bytes(self, tmp_path):
        trials = self.make_trials(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", str(trials), str(a)])
        main(["plot", str(trials), str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_empty_csv_errors_without_output(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(TRIALS_HEADER) + "\n")
        out = tmp_path / "e.svg"
        rc = main(["plot", str(empty), str(out)])
        assert rc == 2
        assert not out.exists()

    def test_malformed_csv_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        rc = main(["plot", str(bad), str(tmp_path / "x.svg")])
        assert rc == 2

    @pytest.mark.parametrize("row", ["hybrid,1", "hybrid,1," + "9" * 200_000])
    def test_unreadable_row_exits_2_with_one_line(self, tmp_path, capsys, row):
        # A short row and a field past the csv module's size limit.
        bad = tmp_path / "bad.csv"
        bad.write_text(f"method,accepted_gap_s,min_distance_m\n{row}\n")
        assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["accepted_gap_s", "min_distance_m"])
    def test_non_finite_value_exits_2_with_one_line(self, tmp_path, capsys, column, value):
        rows = {"accepted_gap_s": ["2", "3"], "min_distance_m": ["4", "5"]}
        rows[column][1] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("method,accepted_gap_s,min_distance_m\n"
                       + "".join(f"hybrid,{g},{d}\n" for g, d in zip(*rows.values())))
        out = tmp_path / "x.svg"
        assert main(["plot", str(bad), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert value in err and not out.exists()

    @pytest.mark.parametrize("column,values,message", [
        ("accepted_gap_s", ["1e308", "-1e308"], "the axis span overflows a float"),
        ("min_distance_m", ["1e308", "-1e308"], "the axis span overflows a float"),
        # Values all so large that the one-unit width of a flat axis rounds away.
        ("accepted_gap_s", ["1e300", "1e300"], "cannot plot x values all at 1e+300: "),
        ("min_distance_m", ["-1e300", "-1e300"], "cannot plot y values all at -1e+300: "),
    ], ids=["accepted_gap_s", "min_distance_m", "accepted_gap_s-flat", "min_distance_m-flat"])
    def test_overflowing_axis_span_exits_2_with_one_line(self, tmp_path, capsys, column, values,
                                                         message):
        # Finite values whose axis a float cannot lay out.
        rows = {"accepted_gap_s": ["2", "3"], "min_distance_m": ["4", "5"]}
        rows[column] = values
        bad = tmp_path / "bad.csv"
        bad.write_text("method,accepted_gap_s,min_distance_m\n"
                       + "".join(f"hybrid,{g},{d}\n" for g, d in zip(*rows.values())))
        out = tmp_path / "x.svg"
        assert main(["plot", str(bad), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert message in err and not out.exists()

    def test_title_and_methods_are_escaped(self, tmp_path):
        import xml.etree.ElementTree as ET

        trials = tmp_path / "t.csv"
        trials.write_text("method,accepted_gap_s,min_distance_m\n"
                          "hybrid,2,3\n\"a<b & c>\",3,4\n")
        svg = tmp_path / "t.svg"
        assert main(["plot", str(trials), str(svg), "--title", "A & B <1>"]) == 0
        texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "A & B <1>"
        assert texts[-2:] == ["hybrid", "a<b & c>"]

    def test_plain_title_is_unchanged(self, tmp_path):
        trials = self.make_trials(tmp_path)
        svg = tmp_path / "t.svg"
        assert main(["plot", str(trials), str(svg), "--title", "min distance, lane A"]) == 0
        assert '<text x="320.0" y="24" text-anchor="middle" font-family="sans-serif" ' \
               'font-size="15">min distance, lane A</text>' in svg.read_text()


class TestReplay:
    def test_trace_schema(self, tmp_path):
        out = tmp_path / "rep"
        rc = main(
            ["replay", "--gap", "2.5", "--side", "near", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "trace.csv", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            assert header == ["t", "d", "v", "a_cmd", "a_actual", "x_p", "mode"]
            first = next(reader)
            assert len(first) == 7

    def test_preset_trial_mode_check(self, tmp_path):
        rc = main(
            ["replay", "--preset", "experiment", "--trial", "2",
             "--out", str(tmp_path / "t2")]
        )
        assert rc == 0

    def test_preset_trial_mode_mismatch(self, tmp_path, monkeypatch, capsys):
        # With tau_max at 0.01 s the vehicle of trial 2 passes first and never
        # leaves Driving: exit 1, one error line, and the trace is still written.
        monkeypatch.setenv("CWSIM_CONTROLLER__TAU_MAX", "0.01")
        out = tmp_path / "t2"
        assert main(["replay", "--preset", "experiment", "--trial", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: expected mode SpeedUp, saw []\n"
        assert {r["mode"] for r in read_rows(out / "trace.csv")} == {"Driving"}

    def test_gap_required_without_trial(self, tmp_path):
        rc = main(["replay", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_controller_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CWSIM_RUN__CONTROLLER", "pomdp")
        out = tmp_path / "rep"
        assert main(["replay", "--gap", "2.5", "--out", str(out)]) == 0
        assert {r["mode"] for r in read_rows(out / "trace.csv")} == {"pomdp"}

    def test_controller_flag(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["replay", "--gap", "2.5", "--controller", "POMDP", "--out", str(out)]) == 0
        assert {r["mode"] for r in read_rows(out / "trace.csv")} == {"pomdp"}
        # A bad flag value, argparse's usage errors included, is one config error line.
        for flags in (["--gap", "2.5", "--controller", "mpc"], ["--gap", "2.5", "--lane", "C"],
                      ["--preset", "experiment", "--trial", "9"]):
            capsys.readouterr()
            assert main(["replay", *flags, "--out", str(tmp_path / "x")]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("how", ["flag", "env", "file"])
    def test_trial_needs_the_hybrid_controller(self, tmp_path, monkeypatch, capsys, how):
        # A scripted trial checks the hybrid controller's modes, so --trial with
        # another controller, however it is set, is rejected before any policy is
        # solved: one line, no cache file and no output.
        monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
        argv = ["replay", "--preset", "experiment", "--trial", "1", "--out", str(tmp_path / "out")]
        if how == "flag":
            argv += ["--controller", "pomdp"]
        elif how == "env":
            monkeypatch.setenv("CWSIM_RUN__CONTROLLER", "POMDP")
        else:
            (tmp_path / "run.ini").write_text("[run]\ncontroller = pomdp\n")
            argv += ["--config", str(tmp_path / "run.ini")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --trial ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.ini"] if how == "file" else [])

    def test_seed_is_not_a_replay_flag(self, tmp_path, capsys):
        # A replay draws nothing, so a seed would change only the config echo.
        assert main(["replay", "--gap", "2.5", "--seed", "5", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unrecognized arguments: --seed 5\n"
        assert not (tmp_path / "x").exists()

    @pytest.fixture
    def trials(self, monkeypatch):
        """The results of the CLI's ``run_trial`` calls, in call order."""
        results = []
        run_trial = cli.run_trial

        def recorded(*args, **kwargs):
            results.append(run_trial(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_trial", recorded)
        return results

    @staticmethod
    def csv_writer_trace(trace: list[tuple]) -> bytes:
        """trace.csv as ``csv.writer`` renders it, numbers through ``_fmt``: the
        reference the one-template writer must match byte for byte."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["t", "d", "v", "a_cmd", "a_actual", "x_p", "mode"])
        for *numbers, mode in trace:
            writer.writerow([*map(cli._fmt, numbers), mode])
        return buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--preset", "experiment", "--trial", "4"],  # 0.5 s delay, HardBraking
            ["replay", "--gap", "2.5", "--controller", "pomdp"],
        ],
    )
    def test_trace_matches_csv_writer(self, tmp_path, trials, argv):
        out = tmp_path / "rep"
        assert main([*argv, "--out", str(out)]) == 0
        (result,) = trials
        data = (out / "trace.csv").read_bytes()
        assert data == self.csv_writer_trace(result.trace)
        assert data.startswith(b"t,d,v,a_cmd,a_actual,x_p,mode\r\n") and data.endswith(b"\r\n")

    def test_colliding_trace_ends_on_the_collision(self, tmp_path, trials):
        # The hybrid's known collision (experiment preset, lane B, far side): the
        # trace's last row is the colliding tick, which the metrics leave out.
        out = tmp_path / "rep"
        argv = ["replay", "--preset", "experiment", "--lane", "B", "--side", "far", "--gap", "1.1"]
        assert main([*argv, "--out", str(out)]) == 1
        (result,) = trials
        assert result.collision
        assert (out / "trace.csv").read_bytes() == self.csv_writer_trace(result.trace)
        scenario = load_config(preset="experiment", env={}).scenario(lane="B", side="far")
        *counted, (_, d, _, _, _, x_p, _) = result.trace
        dx, line = x_p - scenario.lane_center(), d + scenario.geometry.delta
        distance = math.sqrt(dx * dx + line * line)
        assert distance < scenario.collision_radius and distance == result.min_distance
        assert result.avg_velocity == reduce(add, (row[2] for row in counted), 0) / len(counted)
        assert result.peak_accel == max(abs(row[4]) for row in counted)

    def test_reused_parser_keeps_no_state(self, tmp_path, monkeypatch):
        trial_4 = ["replay", "--preset", "experiment", "--trial", "4"]
        cli._parser.cache_clear()
        assert main([*trial_4, "--out", str(tmp_path / "fresh")]) == 0
        cli._parser.cache_clear()
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        try:
            assert main(["replay", "--preset", "experiment", "--gap", "3.2", "--side", "far",
                         "--out", str(tmp_path / "gap")]) == 0
            assert main([*trial_4, "--out", str(tmp_path / "t4")]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert (tmp_path / "t4" / "trace.csv").read_bytes() == \
            (tmp_path / "fresh" / "trace.csv").read_bytes()


class TestRerunIntoOneOut:
    """A run into an --out that holds a longer earlier run writes the same
    bytes as the same run into a fresh directory. Runs use a relative --out,
    so every config echo names the same one."""

    @staticmethod
    def run_in(root: Path, monkeypatch, argvs: list[list[str]]) -> dict[str, bytes]:
        """Run ``argvs`` from ``root``; return every file below it."""
        root.mkdir(exist_ok=True)
        monkeypatch.chdir(root)
        for argv in argvs:
            assert main(argv) == 0, argv
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file()}

    def test_replay_long_trace_then_short(self, tmp_path, monkeypatch):
        def replay(gap: str) -> list[list[str]]:
            return [["replay", "--gap", gap, "--out", "out"]]

        long = self.run_in(tmp_path / "reused", monkeypatch, replay("2.5"))
        reused = self.run_in(tmp_path / "reused", monkeypatch, replay("5"))
        fresh = self.run_in(tmp_path / "fresh", monkeypatch, replay("5"))
        assert len(long["out/trace.csv"]) > len(fresh["out/trace.csv"])
        assert reused == fresh

    def test_compare_20_then_5(self, tmp_path, monkeypatch):
        def compare(trials: str) -> list[list[str]]:
            return [["compare", "--trials", trials, "--seed", "0", "--out", "out"],
                    ["plot", "out/trials.csv", "out/plot.svg"]]

        long = self.run_in(tmp_path / "reused", monkeypatch, compare("20"))
        reused = self.run_in(tmp_path / "reused", monkeypatch, compare("5"))
        fresh = self.run_in(tmp_path / "fresh", monkeypatch, compare("5"))
        assert sorted(fresh) == sorted(long)
        for name, data in fresh.items():
            assert len(long[name]) > len(data), name  # each file had a longer tail to cut
        assert reused == fresh


class TestBadOutputPath:
    """An output path that cannot be written is a config error, found before any
    trial runs or any solve starts."""

    @staticmethod
    def forbid(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    @pytest.mark.parametrize(
        "env,argv",
        [
            (None, ["simulate", "--sweep", "2:1:3", "--out", "afile"]),
            (None, ["compare", "--sweep", "2:1:3", "--out", "afile"]),
            (None, ["replay", "--gap", "2.5", "--out", "afile/sub"]),
            (None, ["plot", "trials.csv", "afile/x.svg"]),
            (None, ["plot", "trials.csv", "adir"]),
            (None, ["solve-pomdp", "--export", "afile/x.csv"]),
            ("afile", ["solve-pomdp"]),
        ],
        ids=["simulate", "compare", "replay", "plot", "plot-onto-dir", "solve-pomdp",
             "pomdp-cache-dir"],
    )
    def test_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, env, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        (tmp_path / "trials.csv").write_text("method,accepted_gap_s,min_distance_m\nhybrid,2,3\n")
        if env is not None:
            monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", env)
        for name in ("run_batch", "run_trial", "solve_or_load", "scatter_svg"):
            monkeypatch.setattr(cli, name, self.forbid)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert (tmp_path / "afile").read_text() == ""


class TestSolvePomdp:
    def test_export(self, tmp_path):
        for export in (tmp_path / "table.csv", tmp_path / "newdir" / "table.csv"):
            rc = main(["solve-pomdp", "--export", str(export)])
            assert rc == 0
            with open(export, newline="") as f:
                header = f.readline().strip()
            assert header == "state_index,action_index,q_value"

    def test_export_over_a_longer_file(self, tmp_path):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        assert main(["solve-pomdp", "--export", str(fresh)]) == 0
        reused.write_bytes(fresh.read_bytes() + b"0,0,1\n" * 100)
        assert main(["solve-pomdp", "--export", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()

    def test_empty_export_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        assert main(["solve-pomdp", "--export", ""]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --export needs a file path\n"
        assert list(tmp_path.iterdir()) == []  # rejected before the solve
