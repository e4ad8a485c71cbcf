"""Command-line front end: batch runs, method comparison, plots, replays.

Verbs:

* ``simulate``   one controller, one scenario quadrant, N trials or a sweep
* ``compare``    both controllers on identical seeds across all quadrants
* ``plot``       trials CSV -> SVG scatter (one marker per trial)
* ``replay``     one trial with a fixed gap, full event trace CSV
* ``solve-pomdp``  pre-solve and cache the baseline policy

``simulate`` and ``compare`` render each gap and each gap class once, and
build ``summary.csv`` and ``panels_*.csv`` from the cells in ``trials.csv`` row
order. Every table has CRLF rows, as ``csv.writer`` writes them; no field needs
quoting.
Every output file is written in place by ``core.write_output``.

Exit status is 0 only when the run completed with zero collisions and zero
timeouts; bad input of any kind is a configuration error, which ``main``
reports as one ``config error:`` line before exiting 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import operator
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .config import (
    EXPERIMENT_TRIALS,
    METHODS,
    ConfigError,
    PRESETS,
    RunConfig,
    load_config,
    write_config_echo,
)
from .core import write_output
from .hybrid import HybridController
from .pomdp import (ConvergenceError, PomdpController, PomdpModel, QTable, decision_ticks,
                    export_policy_csv, policy_cache_path, solve_or_load)
from .simulator import Controller, Scenario, TrialResult, run_batch, run_trial, seeded_gaps
from .svgplot import scatter_svg

# The per-trial metrics, in column order: TrialResult attribute -> (trials.csv
# column, plot axis label). Every table that lists the metrics follows this one.
METRIC_COLUMNS = {
    "min_distance": ("min_distance_m", "closest vehicle-pedestrian distance (m)"),
    "avg_velocity": ("avg_velocity_mps", "average vehicle velocity (m/s)"),
    "peak_accel": ("peak_accel_mps2", "peak |acceleration| (m/s^2)"),
}

TRIALS_HEADER = [
    "trial_id",
    "method",
    "lane",
    "entry_side",
    "accepted_gap_s",
    *(column for column, _ in METRIC_COLUMNS.values()),
    "collision",
    "final_mode_sequence",
]

SUMMARY_BIN = 0.5

# Every table as csv.writer would write it: CRLF rows, every number as _fmt
# renders it. Methods, lanes, sides and mode labels hold no comma, quote or line
# break, so no field needs quoting.
SUMMARY_HEADER = ("method,gap_bin_lo_s,gap_bin_hi_s,n_trials,"
                  + "".join(f"mean_{column}," for column, _ in METRIC_COLUMNS.values())
                  + "max_peak_accel_mps2,collisions\r\n")
SUMMARY_ROW = "%s,%s,%s,%d,%s,%s,%s,%s,%d\r\n"
TRACE_HEADER = "t,d,v,a_cmd,a_actual,x_p,mode\r\n"
TRACE_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%s\r\n"

# One trial as every table prints it: method, accepted gap, the METRIC_COLUMNS
# values in order, and collision, each rendered once per gap or per result.
Cells = tuple[str, str, str, str, str, str]
# A run's trials or their cells keyed by (side, lane, method), in trials.csv row order.
Key = tuple[str, str, str]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values``, added left to right as the engine adds a trial's
    speeds: from Python 3.12 on, ``sum`` of floats compensates its rounding, which
    would change a table's last digits with the Python version."""
    return functools.reduce(operator.add, values, 0) / len(values)


def write_trials_csv(path: Path, gaps: Sequence[float],
                     batches: dict[Key, list[TrialResult]]) -> dict[Key, list[Cells]]:
    """Render trials.csv; return the cells of every row. Trial i of every batch
    has accepted gap ``gaps[i]``. Each gap is formatted once, and so is each
    distinct result, which ``run_batch`` shares among a gap class's trials."""
    gap_cells = [_fmt(g) for g in gaps]
    # Each distinct result's metric and collision cells and the rest of its rows
    # (a row is its id, quadrant and gap cell, then that rest), keyed by the
    # object, which ``batches`` keeps alive. Lists, not tuples: CPython keeps up
    # to 2000 freed tuples of each length for reuse, so about 500 freed 4- and
    # 2-tuples per run stayed allocated for the life of the process.
    rendered: dict[int, list[str]] = {}
    table: dict[Key, list[Cells]] = {}
    lines: list[str] = []
    for (side, lane, method), batch in batches.items():
        quadrant = f",{method},{lane},{side},"
        cells = table[side, lane, method] = []
        for gap, r in zip(gap_cells, batch):
            known = rendered.get(id(r))
            if known is None:
                known = rendered[id(r)] = [_fmt(r.min_distance), _fmt(r.avg_velocity),
                                           _fmt(r.peak_accel), "true" if r.collision else "false"]
                known.append(f",{','.join(known)},{r.mode_sequence()}\r\n")
            distance, velocity, accel, collision, rest = known
            cells.append((method, gap, distance, velocity, accel, collision))
            lines.append(f"{len(lines)}{quadrant}{gap}{rest}")
    write_output(path, ",".join(TRIALS_HEADER) + "\r\n" + "".join(lines))
    return table


def write_summary_csv(path: Path, table: dict[Key, list[Cells]]) -> None:
    """Per-gap-bin aggregates of the trials table, one row per populated bin,
    computed from the numbers as trials.csv prints them."""
    peak = list(METRIC_COLUMNS).index("peak_accel")
    bins: dict[tuple[str, int], list[Cells]] = {}
    for cells in table.values():
        for c in cells:
            bins.setdefault((c[0], int(float(c[1]) // SUMMARY_BIN)), []).append(c)
    lines = [SUMMARY_HEADER]
    for (method, b), sel in sorted(bins.items()):
        _, _, *metrics, collisions = zip(*sel)
        means = [_fmt(_mean(tuple(map(float, values)))) for values in metrics]
        lines.append(SUMMARY_ROW % (method, _fmt(b * SUMMARY_BIN), _fmt((b + 1) * SUMMARY_BIN),
                                    len(sel), *means, _fmt(max(map(float, metrics[peak]))),
                                    collisions.count("true")))
    write_output(path, "".join(lines))


def _output_path(path: Path, directory: bool) -> Path:
    """``path`` once it is known the run can write it: it is not an existing
    file of the wrong kind, and its nearest existing ancestor is a directory.
    Checked before any trial runs or any solve starts."""
    if path.exists():
        if path.is_dir() != directory:
            raise ConfigError(f"output path {path} is {'not ' if directory else ''}a directory")
        return path
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise ConfigError(f"cannot create {path}: {parent} is not a directory")
            break
    return path


def _policy(config: RunConfig) -> tuple[PomdpModel, QTable]:
    model = config.pomdp_model()
    cache_dir = _output_path(Path(config.pomdp["cache_dir"]), directory=True)
    try:  # a failed solve writes no cache file
        table = solve_or_load(model, cache_dir, tol=config.pomdp["tol"])
    except ConvergenceError as exc:
        raise ConfigError(f"pomdp policy: {exc}; check the [pomdp] weights, gamma and tol") from exc
    origin = (f"solved exactly ({len(model.d_grid)} layers, {table.rounds} policy-iteration "
              f"rounds, residual {table.residuals[0]:.3e})" if table.residuals else "cache")
    print(f"pomdp policy: {origin}, key={model.cache_key}")
    return model, table


def _check_decision_period(config: RunConfig, sim_dt: float) -> None:
    """``decision_ticks`` of ``pomdp.dt`` as a config error. Called before the policy
    is solved, so a rejected run writes no cache file."""
    try:
        decision_ticks(config.pomdp["dt"], sim_dt, "pomdp.dt")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _controller(config: RunConfig, method: str, scenario: Scenario) -> tuple[str, Controller]:
    """The method's canonical name and the one controller a run uses for it;
    ``method`` is one of ``METHODS`` in any case, as ``load_config`` checks.

    A controller keeps no per-trial state: each trial's mode and held command
    live in its ``TrialState``, or in the arrays of ``run_batch``'s
    ``BatchState``, so a single instance serves every trial and quadrant of
    the run.
    """
    method = method.lower()
    if method == "hybrid":
        return method, HybridController(scenario.params, scenario.geometry, dt=scenario.dt)
    _check_decision_period(config, scenario.dt)
    model, table = _policy(config)
    return method, PomdpController(model, table, sim_dt=scenario.dt)


def _run(config: RunConfig, quadrants: Sequence[tuple[str, str]], methods: Sequence[str],
         out_dir: Path) -> tuple[dict[Key, list[Cells]], list[TrialResult]]:
    """Run every method on every (side, lane) quadrant and write the trial tables.

    The gaps (the sweep, else one seeded draw from the shared base seed) are
    fixed once per run, so every method and quadrant sees the same ones. One
    lockstep ``run_batch`` call runs every method on every quadrant; trial i of
    quadrant k under ``methods[j]`` is its result ``(j * len(quadrants) + k) * n + i``
    for n gaps. The tables and the returned cells and trials list the trials by
    (side, lane), then method.
    """
    _output_path(out_dir, directory=True)
    scenarios = [config.scenario(lane=lane, side=side) for side, lane in quadrants]
    gaps = config.sweep_values() or seeded_gaps(scenarios[0].gap_model, config.run["seed"],
                                                  config.trial_count())
    config.accepted_gap(max(gaps))  # a sweep's last gap, or the longest seeded draw
    n = len(gaps)  # trials per quadrant
    controllers = dict(_controller(config, method, scenarios[0]) for method in methods)
    write_config_echo(config, out_dir)

    results = run_batch(scenarios, gaps, *controllers.values())
    batches = {(s.entry_side.value, s.lane.value, method):
               results[(j * len(scenarios) + k) * n:(j * len(scenarios) + k + 1) * n]
               for k, s in enumerate(scenarios) for j, method in enumerate(controllers)}
    table = write_trials_csv(out_dir / "trials.csv", gaps, batches)
    write_summary_csv(out_dir / "summary.csv", table)
    return table, [r for batch in batches.values() for r in batch]


def _finish(results: list[TrialResult], out_dir: Path) -> int:
    n = len(results)
    collisions = sum(r.collision for r in results)
    timeouts = sum(r.timed_out for r in results)
    mean_v = _mean([r.avg_velocity for r in results])
    max_peak = max(r.peak_accel for r in results)
    print(
        f"n={n} collisions={collisions} timeouts={timeouts} "
        f"mean_avg_velocity={mean_v:.3f} max_peak_accel={max_peak:.3f} -> {out_dir}"
    )
    return 0 if collisions == 0 and timeouts == 0 else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.run["out_dir"])
    quadrant = (config.run["side"], config.run["lane"])
    _, results = _run(config, [quadrant], [config.run["controller"]], out_dir)
    return _finish(results, out_dir)


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir = Path(config.run["out_dir"])
    quadrants = [(side, lane) for side in ("near", "far") for lane in ("A", "B")]
    table, results = _run(config, quadrants, METHODS, out_dir)

    for side in ("near", "far"):
        lines = ["panel,lane,metric,accepted_gap_s,hybrid,pomdp\r\n"]
        for lane in ("A", "B"):
            # A pair's rows, one per metric: the hybrid trial's gap, then each method's value.
            rows = "".join(f"{metric}_lane_{lane},{lane},{metric},%s,%s,%s\r\n"
                           for metric in METRIC_COLUMNS)
            lines += [rows % (h[1], h[2], p[2], h[1], h[3], p[3], h[1], h[4], p[4])
                      for h, p in zip(table[side, lane, "hybrid"], table[side, lane, "pomdp"])]
        write_output(out_dir / f"panels_{side}.csv", "".join(lines))
    collisions = dict.fromkeys(METHODS, 0)
    for (_, _, method), cells in table.items():
        collisions[method] += sum(c[-1] == "true" for c in cells)
    print("per-method collisions: " + " ".join(f"{m}={c}" for m, c in collisions.items()))
    return _finish(results, out_dir)


def cmd_plot(args: argparse.Namespace) -> int:
    csv_in = Path(args.csv_in)
    out = _output_path(Path(args.out_svg), directory=False)
    column, label = METRIC_COLUMNS[args.metric]
    try:
        with open(csv_in, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            # As csv.DictReader reads it: the last of repeated names wins, blank rows are skipped.
            index = {name: i for i, name in enumerate(next(reader, []))}
            method, gap, metric = (index[name] for name in ("method", "accepted_gap_s", column))
            points = [(row[method], float(row[gap]), float(row[metric])) for row in reader if row]
    except KeyError as exc:
        raise ConfigError(f"{csv_in} lacks column {exc}") from exc
    except (OSError, ValueError, IndexError, csv.Error) as exc:
        raise ConfigError(f"cannot read {csv_in}: {exc}") from exc
    if not points:
        raise ConfigError(f"{csv_in} has no trials")
    bad = [p for p in points if not (math.isfinite(p[1]) and math.isfinite(p[2]))]
    if bad:
        raise ConfigError(f"{csv_in}: {len(bad)} non-finite points to plot, first {bad[0]}")
    try:
        svg = scatter_svg(points, "pedestrian accepted gap (s)", label, title=args.title or "")
    except ValueError as exc:  # an axis that a float cannot lay out
        raise ConfigError(f"{csv_in}: {exc}") from exc
    out.parent.mkdir(parents=True, exist_ok=True)
    write_output(out, svg)
    print(f"{len(points)} markers -> {out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.trial is None:  # the parser takes exactly one of --gap and --trial
        gap, side, expected = config.accepted_gap(args.gap), config.run["side"], None
    else:
        if args.preset != "experiment":
            raise ConfigError("--trial requires --preset experiment")
        if args.side is not None:
            raise ConfigError("--trial takes its side from the script; omit --side")
        if config.run["controller"].lower() != "hybrid":  # before any policy is solved
            raise ConfigError(f"--trial checks the hybrid controller's modes; "
                              f"run.controller is {config.run['controller']!r}")
        gap, side, expected = EXPERIMENT_TRIALS[args.trial - 1]
    scenario = config.scenario(side=side)
    out_dir = _output_path(Path(config.run["out_dir"]), directory=True)
    _, controller = _controller(config, config.run["controller"], scenario)
    write_config_echo(config, out_dir)

    result = run_trial(scenario, gap, controller)

    trace_path = out_dir / "trace.csv"
    write_output(trace_path, TRACE_HEADER + "".join([TRACE_ROW % row for row in result.trace]))

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
    _check_decision_period(config, config.run["dt"])  # as a pomdp run checks it
    if args.export == "":
        raise ConfigError("--export needs a file path")
    export = args.export and _output_path(Path(args.export), directory=False)
    model, table = _policy(config)
    path = policy_cache_path(Path(config.pomdp["cache_dir"]), model)
    print(f"policy states={model.n_states} actions={model.n_actions} cached at {path}")
    if export:
        export_policy_csv(export, model, table)
        print(f"exported flat table -> {args.export}")
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = ("lane", "side", "controller", "trials", "sweep", "seed", "out_dir")
    return load_config(
        path=Path(args.config) if args.config else None,
        preset=getattr(args, "preset", None),
        cli_overrides={"run": {key: getattr(args, key, None) for key in flags}},
    )


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ConfigError``; subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crosswalk-sim",
        description="Crosswalk interaction simulator: hybrid controller vs POMDP baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")

    def run_flags(p: argparse.ArgumentParser) -> None:
        config_flags(p)
        p.add_argument("--lane", choices=["A", "B"])
        p.add_argument("--side", choices=["near", "far"])
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")

    def batch_flags(p: argparse.ArgumentParser) -> None:
        run_flags(p)
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--sweep", help="deterministic gap sweep LO:STEP:HI")

    p_sim = sub.add_parser("simulate", help="run one scenario batch")
    batch_flags(p_sim)
    p_sim.add_argument("--controller", help="hybrid or pomdp, in any case")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="both controllers, all four quadrants")
    batch_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="scatter plot from a trials CSV")
    p_plot.add_argument("csv_in")
    p_plot.add_argument("out_svg")
    p_plot.add_argument("--metric", choices=sorted(METRIC_COLUMNS), default="min_distance")
    p_plot.add_argument("--title", default="")
    p_plot.set_defaults(func=cmd_plot)

    p_rep = sub.add_parser("replay", help="single trial with a fixed accepted gap")
    run_flags(p_rep)
    p_rep.add_argument("--controller", help="hybrid or pomdp, in any case")
    gap_or_trial = p_rep.add_mutually_exclusive_group(required=True)
    gap_or_trial.add_argument("--gap", type=float, help="accepted gap in seconds")
    gap_or_trial.add_argument(
        "--trial", type=int, choices=range(1, len(EXPERIMENT_TRIALS) + 1),
        help="scripted two-lane trial number (with --preset experiment)",
    )
    p_rep.set_defaults(func=cmd_replay)

    p_solve = sub.add_parser("solve-pomdp", help="pre-solve and cache the baseline policy")
    config_flags(p_solve)
    p_solve.add_argument("--export", help="also export a flat CSV Q-table")
    p_solve.set_defaults(func=cmd_solve_pomdp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser. ``parse_args`` leaves a parser unchanged, so
    every ``main`` call can reuse it; ``build_parser`` is looked up when first
    needed, not bound at import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
