"""Run configuration: INI files, environment overrides, presets, echo.

Configuration is a flat key-value file with one section per subsystem.
Unknown sections or keys are rejected so typos fail loudly. Every key can
also be overridden from the environment as ``CWSIM_<SECTION>__<KEY>``
(for example ``CWSIM_CONTROLLER__K_S=1.5``). After resolution the full
config, defaults included, is echoed beside the outputs so a run can be
reproduced bit-for-bit.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Optional

from .core import MAX_TICKS, ControllerParams, EntrySide, WorldGeometry, write_output
from .pedestrian import GapAcceptanceModel
from .pomdp import PomdpModel, RewardWeights
from .simulator import Lane, Scenario, sweep_gaps

ENV_PREFIX = "CWSIM_"

# The most gaps a run may take per quadrant, from a seeded draw or a sweep.
MAX_TRIALS = 1_000_000
# The longest accepted gap a run may take, in seconds. Every gap above
# pedestrian.max_trigger_gap gives the same trial, so no longer one is meant; the
# bound keeps each gap's summary.csv bin, gap // 0.5, a finite whole number.
MAX_GAP = 1e9

METHODS = ("hybrid", "pomdp")
LANES, SIDES = tuple(x.value for x in Lane), tuple(x.value for x in EntrySide)

DEFAULTS: dict[str, dict[str, object]] = {
    "world": {
        "n_lanes": 4,
        "lane_width": 3.5,
        "delta": 5.0,
        "crosswalk_depth": 3.0,
        "x_f_span": "full",  # full | half
    },
    "controller": {
        "k_s": 2.0,
        "t_delay": 0.0,
        "v_speedlimit": 4.5,
        "a_cmf": 2.0,
        "a_max": 9.0,
        "tau_max": 4.0,
    },
    "pedestrian": {
        "mu_gap": 4.0,
        "sigma2_gap": 2.5,
        "walk_speed": 1.2,
        "min_gap": 0.5,
        "max_trigger_gap": 6.0,
        "start_delay": 0.2,
        "near_setback": 2.5,
        "far_setback": 0.25,
    },
    "pomdp": {
        "w_legality": 10.0,
        "w_safety": 50.0,
        "w_efficient": 1.0,
        "w_smooth": 2.0,
        "gamma": 0.99,
        "dt": 0.25,
        "tol": 1e-6,
        "n_v_bins": 13,
        "n_d_bins": 51,
        "d_min": -5.0,
        "d_max": 45.0,
        "actions": "-4,-2,-1,0,1,2",
        "cache_dir": ".pomdp_cache",
    },
    "run": {
        "lane": "A",
        "side": "near",
        "controller": "hybrid",
        "trials": 750,
        "sweep": "",  # LO:STEP:HI, overrides trials when set
        "seed": 0,
        "initial_d": 50.0,
        "initial_v": -1.0,  # negative = use the speed limit
        "dt": 0.05,
        "t_delay_plant": 0.0,
        "max_sim_time": 60.0,
        "collision_radius": 1.0,
        "out_dir": "out",
    },
}

PRESETS: dict[str, dict[str, dict[str, object]]] = {
    # Two-lane experimental setup: slower gains, brake delay in both the
    # controller lead term and the plant, higher speed limit, and a
    # pedestrian population that acts on any offered gap.
    "experiment": {
        "world": {"n_lanes": 2},
        "controller": {"k_s": 1.0, "t_delay": 0.5, "v_speedlimit": 7.0},
        "pedestrian": {"max_trigger_gap": 10.0},
        "run": {"t_delay_plant": 0.5},
    },
}

# Gap accepted, entry side, expected dominant controller mode for the six
# scripted two-lane trials exercised by `replay --preset experiment`.
EXPERIMENT_TRIALS: list[tuple[float, str, str]] = [
    (4.0, "near", "Yielding"),
    (1.0, "near", "SpeedUp"),
    (7.0, "near", "Yielding"),
    (2.5, "near", "HardBraking"),
    (3.0, "far", "Yielding"),
    (1.0, "far", "SpeedUp"),
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; one attribute per section."""

    world: dict = field(default_factory=dict)
    controller: dict = field(default_factory=dict)
    pedestrian: dict = field(default_factory=dict)
    pomdp: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    # -- factories -----------------------------------------------------------

    def geometry(self) -> WorldGeometry:
        w = self.world
        width = w["n_lanes"] * w["lane_width"]
        span = w["x_f_span"]
        if span not in ("full", "half"):
            raise ConfigError(f"world.x_f_span must be full or half, got {span!r}")
        x_f = width if span == "full" else width / 2.0
        return WorldGeometry(
            n_lanes=w["n_lanes"],
            lane_width=w["lane_width"],
            x_f=x_f,
            delta=w["delta"],
            crosswalk_depth=w["crosswalk_depth"],
        )

    def controller_params(self) -> ControllerParams:
        return ControllerParams(**self.controller)

    def gap_model(self) -> GapAcceptanceModel:
        p = dict(self.pedestrian)
        sigma2 = p.pop("sigma2_gap")
        if sigma2 <= 0.0:
            raise ConfigError("pedestrian.sigma2_gap must be positive")
        return GapAcceptanceModel(sigma_gap=math.sqrt(sigma2), **p)

    def reward_weights(self) -> RewardWeights:
        return RewardWeights(**{f.name: self.pomdp[f.name] for f in fields(RewardWeights)})

    def pomdp_model(self) -> PomdpModel:
        p = self.pomdp
        if p["tol"] <= 0.0:
            raise ConfigError(f"pomdp.tol must be positive, got {p['tol']!r}")
        try:
            actions = tuple(float(tok) for tok in str(p["actions"]).split(","))
            return PomdpModel(
                self.controller_params(),
                self.geometry(),
                self.gap_model(),
                weights=self.reward_weights(),
                dt=p["dt"],
                discount=p["gamma"],
                n_v_bins=p["n_v_bins"],
                n_d_bins=p["n_d_bins"],
                d_range=(p["d_min"], p["d_max"]),
                actions=actions,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def scenario(self, lane: Optional[str] = None, side: Optional[str] = None) -> Scenario:
        r = self.run
        if r["seed"] < 0:  # rejected by every verb that runs trials, even one that draws no gap
            raise ConfigError(f"run.seed must be non-negative, got {r['seed']}")
        try:
            params = self.controller_params()
            initial_v = r["initial_v"] if r["initial_v"] >= 0.0 else params.v_speedlimit
            scenario = Scenario(
                geometry=self.geometry(),
                params=params,
                gap_model=self.gap_model(),
                lane=Lane((lane or r["lane"]).upper()),
                entry_side=EntrySide((side or r["side"]).lower()),
                initial_d=r["initial_d"],
                initial_v=initial_v,
                dt=r["dt"],
                t_delay_plant=r["t_delay_plant"],
                max_sim_time=r["max_sim_time"],
                collision_radius=r["collision_radius"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if scenario.max_sim_time / scenario.dt > MAX_TICKS:
            raise ConfigError(f"run.max_sim_time / run.dt = {r['max_sim_time']!r} / {r['dt']!r} "
                              f"is more than MAX_TICKS = {MAX_TICKS} ticks")
        if scenario.t_delay_plant >= scenario.max_sim_time:  # no command would ever apply
            raise ConfigError(f"run.t_delay_plant = {r['t_delay_plant']!r} s is not shorter "
                              f"than run.max_sim_time = {r['max_sim_time']!r} s")
        return scenario

    def sweep_values(self) -> Optional[list[float]]:
        spec = str(self.run["sweep"]).strip()
        if not spec:
            return None
        try:
            lo, step, hi = (float(tok) for tok in spec.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad sweep spec {spec!r}, expected LO:STEP:HI") from exc
        if (not all(map(math.isfinite, (lo, step, hi))) or step <= 0 or hi < lo
                or not math.isfinite((hi - lo) / step)):  # too many points to count
            raise ConfigError(f"bad sweep spec {spec!r}")
        if math.floor((hi - lo) / step + 1e-9) + 1 > MAX_TRIALS:  # sweep_gaps's point count
            raise ConfigError(f"bad sweep spec {spec!r}: more than MAX_TRIALS = {MAX_TRIALS} points")
        if step < 1e-10:  # sweep_gaps rounds to 10 decimals, so a finer step repeats gaps
            raise ConfigError(f"bad sweep spec {spec!r}: step below 1e-10")
        gaps = sweep_gaps(lo, step, hi)
        self.accepted_gap(gaps[0])
        return gaps

    def trial_count(self) -> int:
        """``run.trials``, the number of seeded gaps per quadrant, if a run can draw them."""
        n = self.run["trials"]
        if not 1 <= n <= MAX_TRIALS:
            raise ConfigError(f"run.trials must be in [1, MAX_TRIALS = {MAX_TRIALS}], got {n}")
        return n

    def accepted_gap(self, gap: float) -> float:
        """``gap`` if a pedestrian can accept it: no shorter than
        ``pedestrian.min_gap``, the floor the gap sampler applies, and no longer
        than ``MAX_GAP``."""
        min_gap = self.pedestrian["min_gap"]
        if not min_gap <= gap <= MAX_GAP:  # NaN included
            raise ConfigError(f"accepted gap {gap!r} s must be finite, >= pedestrian.min_gap "
                              f"({min_gap!r} s) and <= MAX_GAP ({MAX_GAP:g} s)")
        return gap


def _coerce(section: str, key: str, raw: str) -> object:
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, int):
            return int(raw)
        if not isinstance(default, float):
            return raw.strip()
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not finite")
    return value


Layer = dict[str, dict[str, object]]


def _file_layer(path: Path) -> Layer:
    parser = configparser.ConfigParser(interpolation=None)
    try:  # ConfigParser.read would skip a file it cannot open, a directory included
        with open(path, encoding="utf-8") as f:
            parser.read_file(f, source=os.fspath(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span several lines; a config error is one.
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _env_layer(env: Mapping[str, str]) -> Layer:
    layer: Layer = {}
    for var in env:
        if not var.startswith(ENV_PREFIX):
            continue
        body = var[len(ENV_PREFIX):].lower()
        if "__" not in body:
            raise ConfigError(f"bad override {var}: expected {ENV_PREFIX}SECTION__KEY")
        name, key = body.split("__", 1)
        layer.setdefault(name, {})[key] = env[var]
    return layer


def load_config(
    path: Optional[Path] = None,
    preset: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
    cli_overrides: Optional[Layer] = None,
) -> RunConfig:
    """Resolve defaults -> preset -> file -> environment -> CLI flags.

    Every layer is checked the same way: unknown sections and keys are
    rejected, and each value is parsed against the type of its default.
    """
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    layers: list[tuple[str, Layer]] = [
        (f"preset {preset!r}", PRESETS[preset] if preset is not None else {}),
        (str(path), _file_layer(path) if path is not None else {}),
        ("environment", _env_layer(os.environ if env is None else env)),
        ("flags", cli_overrides or {}),
    ]
    sections = {name: dict(values) for name, values in DEFAULTS.items()}
    for source, layer in layers:
        for name, values in layer.items():
            if name not in sections:
                raise ConfigError(f"{source}: unknown section [{name}]")
            for key, value in values.items():
                if value is None:
                    continue
                if key not in sections[name]:
                    raise ConfigError(f"{source}: unknown key {key!r} in section [{name}]")
                sections[name][key] = _coerce(name, key, str(value))
    run = sections["run"]  # checked for every verb, in any case, and echoed as given
    for key, allowed, spelled in (("controller", METHODS, run["controller"].lower()),
                                  ("lane", LANES, run["lane"].upper()),
                                  ("side", SIDES, run["side"].lower())):
        if spelled not in allowed:
            raise ConfigError(f"run.{key} must be one of {', '.join(allowed)}, got {run[key]!r}")
    return RunConfig(**sections)


def resolved_ini(config: RunConfig) -> str:
    """Render the fully resolved config as an INI document, in the exact text
    ``ConfigParser.write`` gives for it (so ``_file_layer`` reads it back)."""
    parts = []
    for name in DEFAULTS:
        parts.append(f"[{name}]\n")
        for key, value in getattr(config, name).items():
            text = repr(value) if isinstance(value, float) else str(value)
            parts.append(f"{key} = " + text.replace("\n", "\n\t") + "\n")
        parts.append("\n")
    return "".join(parts)


def write_config_echo(config: RunConfig, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved_config.ini"
    write_output(path, resolved_ini(config))
    return path
