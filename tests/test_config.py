import math

import pytest

from crosswalk_sim.config import (
    ConfigError,
    RunConfig,
    load_config,
    resolved_ini,
    write_config_echo,
)
from crosswalk_sim.simulator import Lane


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

    def test_shipped_experiment_preset_file_matches(self, tmp_path):
        from pathlib import Path

        shipped = Path(__file__).resolve().parents[1] / "presets" / "experiment.ini"
        cfg_file = load_config(path=shipped, env={})
        cfg_preset = load_config(preset="experiment", env={})
        assert cfg_file == cfg_preset


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

    @pytest.mark.parametrize("spec", ["1:2", "a:b:c", "5:0:6", "9:1:2", "nan:1:2", "1:1:inf"])
    def test_bad_specs(self, spec):
        cfg = load_config(env={"CWSIM_RUN__SWEEP": spec})
        with pytest.raises(ConfigError):
            cfg.sweep_values()


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
