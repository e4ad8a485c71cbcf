import csv
from pathlib import Path

import pytest

from crosswalk_sim.cli import TRIALS_HEADER, main

pytestmark = pytest.mark.usefixtures("pomdp_cache_env")


@pytest.fixture(scope="module")
def pomdp_cache_env(tmp_path_factory):
    import os

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
        out = tmp_path / "run"
        rc = main(
            ["simulate", "--sweep", "1:0.5:9", "--lane", "A", "--side", "near",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_rows(out / "trials.csv")
        assert len(rows) == 17
        assert list(rows[0].keys()) == TRIALS_HEADER
        assert (out / "summary.csv").exists()
        assert (out / "resolved_config.ini").exists()

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
        ],
    )
    def test_bad_value_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, var, value, argv):
        if var is not None:
            monkeypatch.setenv(var, value)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_pomdp_controller_solves_and_caches(self, tmp_path, capsys):
        import os

        cache_dir = Path(os.environ["CWSIM_POMDP__CACHE_DIR"])
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
        from crosswalk_sim.config import load_config
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
            key = (r["lane"], r["entry_side"], r["trial_id"])
            by_key.setdefault((r["lane"], r["entry_side"]), {}).setdefault(
                r["method"], []
            ).append(r["accepted_gap_s"])
        for quadrant, methods in by_key.items():
            assert methods["hybrid"] == methods["pomdp"]


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

    def test_gap_required_without_trial(self, tmp_path):
        rc = main(["replay", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestSolvePomdp:
    def test_export(self, tmp_path):
        for export in (tmp_path / "table.csv", tmp_path / "newdir" / "table.csv"):
            rc = main(["solve-pomdp", "--export", str(export)])
            assert rc == 0
            with open(export, newline="") as f:
                header = f.readline().strip()
            assert header == "state_index,action_index,q_value"
