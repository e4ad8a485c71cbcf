"""Command-line front end: batch runs, method comparison, plots, replays.

Verbs:

* ``simulate``   one controller, one scenario quadrant, N trials or a sweep
* ``compare``    both controllers on identical seeds across all quadrants
* ``plot``       trials CSV -> SVG scatter (one marker per trial)
* ``replay``     one trial with a fixed gap, full event trace CSV
* ``solve-pomdp``  pre-solve and cache the baseline policy

Exit status is 0 only when the run completed with zero collisions and zero
timeouts; configuration errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import (
    EXPERIMENT_TRIALS,
    ConfigError,
    PRESETS,
    RunConfig,
    load_config,
    write_config_echo,
)
from .pomdp import (PomdpController, PomdpModel, QTable, export_policy_csv,
                    policy_cache_path, solve_or_load)
from .simulator import Scenario, TrialResult, run_batch, run_trial
from .svgplot import scatter_svg

TRIALS_HEADER = [
    "trial_id",
    "method",
    "lane",
    "entry_side",
    "accepted_gap_s",
    "min_distance_m",
    "avg_velocity_mps",
    "peak_accel_mps2",
    "collision",
    "final_mode_sequence",
]

METRIC_COLUMNS = {
    "min_distance": ("min_distance_m", "closest vehicle-pedestrian distance (m)"),
    "avg_velocity": ("avg_velocity_mps", "average vehicle velocity (m/s)"),
    "peak_accel": ("peak_accel_mps2", "peak |acceleration| (m/s^2)"),
}

METHODS = ("hybrid", "pomdp")

SUMMARY_BIN = 0.5
SUMMARY_RANGE = (0.0, 10.0)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trials_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=TRIALS_HEADER)
        writer.writeheader()
        writer.writerows(rows)


def trial_row(trial_id: int, method: str, scenario: Scenario, result: TrialResult) -> dict:
    return {
        "trial_id": trial_id,
        "method": method,
        "lane": scenario.lane.value,
        "entry_side": scenario.entry_side.value,
        "accepted_gap_s": _fmt(result.accepted_gap),
        "min_distance_m": _fmt(result.min_distance),
        "avg_velocity_mps": _fmt(result.avg_velocity),
        "peak_accel_mps2": _fmt(result.peak_accel),
        "collision": str(result.collision).lower(),
        "final_mode_sequence": result.mode_sequence(),
    }


def write_summary_csv(path: Path, rows: list[dict]) -> None:
    """Per-gap-bin aggregates of a trials table."""
    lo, hi = SUMMARY_RANGE
    n_bins = int(round((hi - lo) / SUMMARY_BIN))
    methods = sorted({r["method"] for r in rows})
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["method", "gap_bin_lo_s", "gap_bin_hi_s", "n_trials",
             "mean_min_distance_m", "mean_avg_velocity_mps",
             "mean_peak_accel_mps2", "max_peak_accel_mps2", "collisions"]
        )
        for method in methods:
            for b in range(n_bins):
                b_lo, b_hi = lo + b * SUMMARY_BIN, lo + (b + 1) * SUMMARY_BIN
                sel = [
                    r for r in rows
                    if r["method"] == method and b_lo <= float(r["accepted_gap_s"]) < b_hi
                ]
                if not sel:
                    continue
                n = len(sel)

                def mean(key: str) -> float:
                    return sum(float(r[key]) for r in sel) / n

                writer.writerow(
                    [method, _fmt(b_lo), _fmt(b_hi), n,
                     _fmt(mean("min_distance_m")), _fmt(mean("avg_velocity_mps")),
                     _fmt(mean("peak_accel_mps2")),
                     _fmt(max(float(r["peak_accel_mps2"]) for r in sel)),
                     sum(r["collision"] == "true" for r in sel)]
                )


# Trial results keyed by (side, lane, method), in run order.
Batches = dict[tuple[str, str, str], list[TrialResult]]


def _policy(config: RunConfig) -> tuple[PomdpModel, QTable]:
    model = config.pomdp_model()
    table = solve_or_load(model, Path(config.pomdp["cache_dir"]), tol=config.pomdp["tol"])
    return model, table


def _run(config: RunConfig, quadrants: Sequence[tuple[str, str]], methods: Sequence[str],
         out_dir: Path) -> Batches:
    """Run every method on every (side, lane) quadrant and write the trial tables.

    All batches share the base seed, so the methods see identical gaps.
    """
    sweep = config.sweep_values()
    if sweep is None and config.run["trials"] < 1:
        raise ConfigError(f"run.trials must be >= 1, got {config.run['trials']}")
    batch_args = {"gap_sweep": sweep} if sweep is not None else {"n_trials": config.run["trials"]}
    write_config_echo(config, out_dir)

    pomdp: Optional[PomdpController] = None
    batches: Batches = {}
    rows: list[dict] = []
    for side, lane in quadrants:
        scenario = config.scenario(lane=lane, side=side)
        for method in methods:
            if method == "pomdp" and pomdp is None:
                model, table = _policy(config)
                n_sweeps = len(table.residuals)  # 0 for a table loaded from the cache
                origin = f"solved ({n_sweeps} iterations)" if n_sweeps else "cache"
                print(f"pomdp policy: {origin}, key={model.cache_key}")
                pomdp = PomdpController(model, table, sim_dt=scenario.dt)
            results = run_batch(
                scenario,
                controller_factory=(lambda: pomdp) if method == "pomdp" else None,
                **batch_args,
            )
            batches[side, lane, method] = results
            for r in results:
                rows.append(trial_row(len(rows), method, scenario, r))

    write_trials_csv(out_dir / "trials.csv", rows)
    write_summary_csv(out_dir / "summary.csv", rows)
    return batches


def _finish(batches: Batches, out_dir: Path) -> int:
    results = [r for batch in batches.values() for r in batch]
    n = len(results)
    collisions = sum(r.collision for r in results)
    timeouts = sum(r.timed_out for r in results)
    mean_v = sum(r.avg_velocity for r in results) / n
    max_peak = max(r.peak_accel for r in results)
    print(
        f"n={n} collisions={collisions} timeouts={timeouts} "
        f"mean_avg_velocity={mean_v:.3f} max_peak_accel={max_peak:.3f} -> {out_dir}"
    )
    return 0 if collisions == 0 and timeouts == 0 else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    method = config.run["controller"].lower()
    if method not in METHODS:
        raise ConfigError(f"run.controller must be one of {', '.join(METHODS)}, got {method!r}")
    out_dir = Path(config.run["out_dir"])
    batches = _run(config, [(config.run["side"], config.run["lane"])], [method], out_dir)
    return _finish(batches, out_dir)


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.run["out_dir"])
    quadrants = [(side, lane) for side in ("near", "far") for lane in ("A", "B")]
    batches = _run(config, quadrants, METHODS, out_dir)

    for side in ("near", "far"):
        with open(out_dir / f"panels_{side}.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["panel", "lane", "metric", "accepted_gap_s", "hybrid", "pomdp"])
            for lane in ("A", "B"):
                for h, p in zip(batches[side, lane, "hybrid"], batches[side, lane, "pomdp"]):
                    for metric in ("min_distance", "avg_velocity", "peak_accel"):
                        writer.writerow(
                            [f"{metric}_lane_{lane}", lane, metric, _fmt(h.accepted_gap),
                             _fmt(getattr(h, metric)), _fmt(getattr(p, metric))]
                        )
    collisions = dict.fromkeys(METHODS, 0)
    for (_, _, method), results in batches.items():
        collisions[method] += sum(r.collision for r in results)
    print("per-method collisions: " + " ".join(f"{m}={c}" for m, c in collisions.items()))
    return _finish(batches, out_dir)


def cmd_plot(args: argparse.Namespace) -> int:
    csv_in = Path(args.csv_in)
    column, label = METRIC_COLUMNS[args.metric]
    try:
        with open(csv_in, encoding="utf-8", newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or column not in reader.fieldnames:
                print(f"error: {csv_in} lacks column {column}", file=sys.stderr)
                return 2
            points = [
                (row["method"], float(row["accepted_gap_s"]), float(row[column]))
                for row in reader
            ]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {csv_in}: {exc}", file=sys.stderr)
        return 2
    if not points:
        print(f"error: {csv_in} has no trials", file=sys.stderr)
        return 2
    svg = scatter_svg(points, "pedestrian accepted gap (s)", label, title=args.title or "")
    out = Path(args.out_svg)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    print(f"{len(points)} markers -> {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.run["out_dir"])
    write_config_echo(config, out_dir)

    if args.trial is not None:
        if args.preset != "experiment":
            print("error: --trial requires --preset experiment", file=sys.stderr)
            return 2
        gap, side, expected = EXPERIMENT_TRIALS[args.trial - 1]
    else:
        if args.gap is None:
            print("error: need --gap or --trial", file=sys.stderr)
            return 2
        gap, side, expected = args.gap, config.run["side"], None

    scenario = config.scenario(side=side)
    result = run_trial(scenario, accepted_gap_override=gap, record_trace=True)

    trace_path = out_dir / "trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "d", "v", "a_cmd", "a_actual", "x_p", "mode"])
        for t, d, v, a_cmd, a_actual, x_p, mode in result.trace:
            writer.writerow([_fmt(t), _fmt(d), _fmt(v), _fmt(a_cmd), _fmt(a_actual), _fmt(x_p), mode])

    modes = result.mode_sequence()
    print(
        f"gap={gap} side={side} modes={modes} min_distance={result.min_distance:.3f} "
        f"avg_velocity={result.avg_velocity:.3f} peak={result.peak_accel:.3f} -> {trace_path}"
    )
    status = 0 if not result.collision and not result.timed_out else 1
    if expected is not None:
        visited = result.visited_modes() - {"Driving"}
        if visited != {expected}:
            print(f"error: expected mode {expected}, saw {sorted(visited)}", file=sys.stderr)
            status = 1
        else:
            print(f"trial {args.trial}: expected mode {expected} confirmed")
    return status


def cmd_solve_pomdp(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    model, table = _policy(config)
    path = policy_cache_path(Path(config.pomdp["cache_dir"]), model)
    print(
        f"policy key={model.cache_key} states={model.n_states} actions={model.n_actions} "
        f"cached at {path}"
    )
    if args.export:
        export_policy_csv(Path(args.export), model, table)
        print(f"exported flat table -> {args.export}")
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = ("lane", "side", "controller", "trials", "sweep", "seed", "out_dir")
    return load_config(
        path=Path(args.config) if args.config else None,
        preset=getattr(args, "preset", None),
        cli_overrides={"run": {key: getattr(args, key, None) for key in flags}},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswalk-sim",
        description="Crosswalk interaction simulator: hybrid controller vs POMDP baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        p.add_argument("--lane", choices=["A", "B"])
        p.add_argument("--side", choices=["near", "far"])
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")

    p_sim = sub.add_parser("simulate", help="run one scenario batch")
    common(p_sim)
    p_sim.add_argument("--controller", choices=METHODS)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--sweep", help="deterministic gap sweep LO:STEP:HI")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="both controllers, all four quadrants")
    common(p_cmp)
    p_cmp.add_argument("--trials", type=int)
    p_cmp.add_argument("--sweep", help="deterministic gap sweep LO:STEP:HI")
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="scatter plot from a trials CSV")
    p_plot.add_argument("csv_in")
    p_plot.add_argument("out_svg")
    p_plot.add_argument("--metric", choices=sorted(METRIC_COLUMNS), default="min_distance")
    p_plot.add_argument("--title", default="")
    p_plot.set_defaults(func=cmd_plot)

    p_rep = sub.add_parser("replay", help="single trial with a fixed accepted gap")
    common(p_rep)
    p_rep.add_argument("--gap", type=float, help="accepted gap in seconds")
    p_rep.add_argument(
        "--trial", type=int, choices=range(1, len(EXPERIMENT_TRIALS) + 1),
        help="scripted two-lane trial number (with --preset experiment)",
    )
    p_rep.set_defaults(func=cmd_replay)

    p_solve = sub.add_parser("solve-pomdp", help="pre-solve and cache the baseline policy")
    p_solve.add_argument("--config", help="INI config file")
    p_solve.add_argument("--preset", choices=sorted(PRESETS))
    p_solve.add_argument("--export", help="also export a flat CSV Q-table")
    p_solve.set_defaults(func=cmd_solve_pomdp)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
