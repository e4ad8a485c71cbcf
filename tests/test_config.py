import configparser
import inspect
import io
import math
from collections.abc import Mapping
from dataclasses import MISSING, fields

import pytest

from crosswalk_sim.config import (
    DEFAULTS,
    MAX_TICKS,
    MAX_TRIALS,
    ConfigError,
    RunConfig,
    load_config,
    resolved_ini,
    write_config_echo,
)
from crosswalk_sim.core import ControllerParams, WorldGeometry
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import GapAcceptanceModel
from crosswalk_sim.pomdp import PomdpModel, RewardWeights, qmdp_solve
from crosswalk_sim.simulator import Lane, Scenario, sweep_gaps


class TestDefaults:
    def test_simulation_parameter_values(self):
        cfg = load_config(env={})
        assert cfg.world["n_lanes"] == 4
        assert cfg.pedestrian["sigma2_gap"] == 2.5
        assert cfg.pedestrian["walk_speed"] == 1.2
        assert cfg.pedestrian["mu_gap"] == 4.0
        assert cfg.world["delta"] == 5.0
        assert cfg.controller["k_s"] == 2.0
        assert cfg.controller["t_delay"] == 0.0
        assert cfg.controller["v_speedlimit"] == 4.5
        assert cfg.controller["a_cmf"] == 2.0
        assert cfg.controller["tau_max"] == 4.0
        assert cfg.controller["a_max"] == 9.0

    def test_gap_model_uses_sigma_not_variance(self):
        cfg = load_config(env={})
        assert cfg.gap_model().sigma_gap == pytest.approx(math.sqrt(2.5))

    def test_scenario_defaults(self):
        cfg = load_config(env={})
        sc = cfg.scenario()
        assert sc.lane is Lane.A
        assert cfg.run["controller"] == "hybrid"
        assert sc.initial_d == 50.0
        assert sc.initial_v == 4.5  # falls back to the speed limit
        assert sc.dt == 0.05 and sc.max_sim_time == 60.0

    def test_experiment_preset(self):
        cfg = load_config(preset="experiment", env={})
        assert cfg.world["n_lanes"] == 2
        assert cfg.controller == dict(
            k_s=1.0, t_delay=0.5, v_speedlimit=7.0, a_cmf=2.0, a_max=9.0, tau_max=4.0
        )
        assert cfg.run["t_delay_plant"] == 0.5
        assert cfg.pedestrian["max_trigger_gap"] == 10.0
        sc = cfg.scenario()
        assert sc.initial_v == 7.0

    def test_parameter_records_have_no_defaults(self):
        # DEFAULTS and PRESETS are the one place a parameter value is written:
        # every model object comes from the config, never from a constructor default.
        for record in (WorldGeometry, ControllerParams, GapAcceptanceModel, RewardWeights,
                       Scenario):
            for f in fields(record):
                assert f.default is MISSING and f.default_factory is MISSING, \
                    f"{record.__name__}.{f.name}"
        assert "seed" not in {f.name for f in fields(Scenario)}  # only seeded_gaps reads it
        keyword_defaults = {
            PomdpModel.__init__: [],
            HybridController.__init__: [],
            qmdp_solve: [],
            sweep_gaps: [],
        }
        for fn, expected in keyword_defaults.items():
            params = inspect.signature(fn).parameters.values()
            assert [p.name for p in params if p.default is not p.empty] == expected, \
                fn.__qualname__

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(preset="nope", env={})


class TestFileAndOverrides:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[controller]\nk_s = 1.5\n\n[run]\ntrials = 10\n")
        cfg = load_config(path=path, env={})
        assert cfg.controller["k_s"] == 1.5
        assert cfg.run["trials"] == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[controller]\nk_p = 1.5\n")
        with pytest.raises(ConfigError):
            load_config(path=path, env={})

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[steering]\ngain = 1\n")
        with pytest.raises(ConfigError):
            load_config(path=path, env={})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(path=tmp_path / "absent.ini", env={})

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ntrials = many\n")
        with pytest.raises(ConfigError):
            load_config(path=path, env={})

    def test_env_override(self):
        cfg = load_config(env={"CWSIM_CONTROLLER__K_S": "3.0", "UNRELATED": "x"})
        assert cfg.controller["k_s"] == 3.0

    def test_env_reads_only_prefixed_values(self):
        class Recorded(Mapping):
            def __init__(self, values):
                self.values, self.read = values, []

            def __getitem__(self, key):
                self.read.append(key)
                return self.values[key]

            def __iter__(self):
                return iter(self.values)

            def __len__(self):
                return len(self.values)

        env = Recorded({"PATH": "/bin", "CWSIM_RUN__SEED": "4", "HOME": "/h", "CWSIMX": "y"})
        assert load_config(env=env).run["seed"] == 4
        assert env.read == ["CWSIM_RUN__SEED"]

    def test_env_override_bad_key(self):
        with pytest.raises(ConfigError):
            load_config(env={"CWSIM_CONTROLLER__NOPE": "3.0"})

    def test_cli_override_wins(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 5\n")
        cfg = load_config(
            path=path, env={}, cli_overrides={"run": {"seed": 9, "lane": None}}
        )
        assert cfg.run["seed"] == 9

    @pytest.mark.parametrize("flags", [{"run": {"trials": "many"}}, {"run": {"wheels": 4}},
                                       {"steering": {"gain": 1}}])
    def test_cli_override_checked(self, flags):
        with pytest.raises(ConfigError):
            load_config(env={}, cli_overrides=flags)

    def test_cli_override_coerced(self):
        cfg = load_config(env={}, cli_overrides={"run": {"trials": "12", "initial_d": 40}})
        assert cfg.run["trials"] == 12 and cfg.run["initial_d"] == 40.0


class TestGeometryFactory:
    def test_full_span(self):
        cfg = load_config(env={})
        assert cfg.geometry().x_f == 14.0

    def test_half_span(self):
        cfg = load_config(env={"CWSIM_WORLD__X_F_SPAN": "half"})
        assert cfg.geometry().x_f == 7.0

    def test_bad_span(self):
        cfg = load_config(env={"CWSIM_WORLD__X_F_SPAN": "third"})
        with pytest.raises(ConfigError):
            cfg.geometry()


class TestSweepSpec:
    def test_parse(self):
        cfg = load_config(env={"CWSIM_RUN__SWEEP": "0.5:0.1:10"})
        values = cfg.sweep_values()
        assert len(values) == 96
        assert values[0] == 0.5 and values[-1] == 10.0

    def test_empty_means_none(self):
        assert load_config(env={}).sweep_values() is None

    @pytest.mark.parametrize("spec", ["1:2", "a:b:c", "5:0:6", "9:1:2", "nan:1:2", "1:1:inf",
                                      f"1:1:{MAX_TRIALS + 1}", "0.5:1e-300:1", "1:1e-11:1"])
    def test_bad_specs(self, spec):
        cfg = load_config(env={"CWSIM_RUN__SWEEP": spec})
        with pytest.raises(ConfigError):
            cfg.sweep_values()

    def test_point_limit(self):
        # MAX_TRIALS points pass, and so does a step of 1e-10, whose gaps are distinct.
        at_limit = load_config(env={"CWSIM_RUN__SWEEP": f"1:1:{MAX_TRIALS}"}).sweep_values()
        assert len(at_limit) == MAX_TRIALS and at_limit[-1] == MAX_TRIALS
        assert load_config(env={"CWSIM_RUN__SWEEP": "1:1e-10:1.0000000005"}).sweep_values() == [
            1.0, 1.0000000001, 1.0000000002, 1.0000000003, 1.0000000004, 1.0000000005]

    def test_trial_limit(self):
        assert load_config(env={"CWSIM_RUN__TRIALS": str(MAX_TRIALS)}).trial_count() == MAX_TRIALS
        with pytest.raises(ConfigError, match="MAX_TRIALS"):
            load_config(env={"CWSIM_RUN__TRIALS": str(MAX_TRIALS + 1)}).trial_count()

    def test_plant_delay_shorter_than_the_run(self):
        # A delay as long as the 60 s run would apply no command; one tick less applies one.
        scenario = load_config(env={"CWSIM_RUN__T_DELAY_PLANT": "59.95"}).scenario()
        assert scenario.delay_ticks() == 1199
        with pytest.raises(ConfigError, match="run.t_delay_plant = 60.0 s is not shorter"):
            load_config(env={"CWSIM_RUN__T_DELAY_PLANT": "60"}).scenario()

    def test_tick_limit(self):
        # A trial of MAX_TICKS ticks passes, one more tick does not; an overflowing ratio neither.
        dt = 0.0625  # exact in binary, so max_sim_time / dt is exact
        env = {"CWSIM_RUN__DT": repr(dt), "CWSIM_RUN__MAX_SIM_TIME": repr(MAX_TICKS * dt)}
        assert load_config(env=env).scenario().max_sim_time / dt == MAX_TICKS
        for env in ({**env, "CWSIM_RUN__MAX_SIM_TIME": repr((MAX_TICKS + 1) * dt)},
                    {"CWSIM_RUN__DT": "5e-324"}):
            with pytest.raises(ConfigError, match="MAX_TICKS"):
                load_config(env=env).scenario()

    def test_decision_period_whose_distance_step_overflows(self):
        # 0.5 * a * dt * dt overflows at 1e300 s: one config error naming dt, and
        # no RuntimeWarning, which the suite turns into an error.
        config = load_config(env={"CWSIM_RUN__DT": "1e300", "CWSIM_POMDP__DT": "1e300"})
        with pytest.raises(ConfigError, match=r"^dt = 1e\+300 s overflows"):
            config.pomdp_model()


class TestEcho:
    def test_resolved_echo_parses_back(self, tmp_path):
        cfg = load_config(env={"CWSIM_CONTROLLER__K_S": "2.5"})
        out = write_config_echo(cfg, tmp_path)
        cfg2 = load_config(path=out, env={})
        assert cfg2.controller["k_s"] == 2.5
        assert cfg2 == cfg

    def test_echo_contains_all_sections(self):
        text = resolved_ini(load_config(env={}))
        for section in ("world", "controller", "pedestrian", "pomdp", "run"):
            assert f"[{section}]" in text
        assert "\nsweep = \n" in text and "\ntol = 1e-06\n" in text

    @staticmethod
    def configparser_ini(cfg: RunConfig) -> str:
        """The echo as ``ConfigParser.write`` renders it: the reference that
        ``resolved_ini`` must match byte for byte."""
        parser = configparser.ConfigParser(interpolation=None)
        for name in DEFAULTS:
            parser[name] = {}
            for key, value in getattr(cfg, name).items():
                parser[name][key] = repr(value) if isinstance(value, float) else str(value)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "preset,env",
        [
            (None, {}),
            ("experiment", {}),
            (None, {"CWSIM_RUN__SWEEP": "", "CWSIM_POMDP__TOL": "1e-06"}),
            (None, {"CWSIM_RUN__SWEEP": "1:0.5:9", "CWSIM_CONTROLLER__K_S": "0.1"}),
            (None, {"CWSIM_POMDP__CACHE_DIR": "a\nb"}),  # continuation line
        ],
    )
    def test_echo_matches_configparser(self, tmp_path, preset, env):
        cfg = load_config(preset=preset, env=env)
        expected = self.configparser_ini(cfg)
        assert resolved_ini(cfg) == expected
        assert write_config_echo(cfg, tmp_path).read_bytes() == expected.encode("utf-8")
