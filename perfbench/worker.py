"""One run of a workload's calls in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py SPEC_JSON T_SPAWN_NS

``SPEC_JSON`` names the argv list to pass to ``crosswalk_sim.cli.main`` and
where to write the result; ``T_SPAWN_NS`` is the parent's
``time.monotonic_ns()`` just before it started this process, so set-up time
includes interpreter start and the package import. Program output goes to
this process's stdout, which the runner sends to a log file.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

import speed

# Spans that start the main work: a trial batch, a single trial or a solve.
MAIN_WORK = ("simulator.run_batch", "simulator.run_trial", "pomdp.solve")
# Calls whose time is set-up even when the CLI makes them after main work has
# started: the model build and the policy cache lookup or load. Solves and
# saves inside ``solve_or_load`` stay main work.
LAZY_SETUP = ("pomdp.build", "pomdp.solve_or_load")


def _phase_times(tracer, sampler, reference: str, t_spawn: int, t_end: int) -> dict:
    """Split the run at the first call into main work (trials or a solve).

    Before it is set-up; after it, apart from LAZY_SETUP, is the timed body.
    The raw times have sampling taken out; the calibrated ones are rescaled
    by the host's speed sampled in each phase (see speed.py).
    """
    spans = tracer.spans
    starts = [s["start"] for s in spans if s["name"] in MAIN_WORK]
    first = min(starts) if starts else t_end
    later = [s for s in spans if s["start"] >= first]
    lookups = {s["id"] for s in later if s["name"] == "pomdp.solve_or_load"}
    lazy = sum(s["end"] - s["start"] for s in later if s["name"] in LAZY_SETUP)
    lazy -= sum(s["end"] - s["start"] for s in spans
                if s["name"] in ("pomdp.solve", "pomdp.save") and s["parent"] in lookups)
    batches = [s for s in spans if s["name"] == "simulator.run_batch"]
    setup = first - t_spawn + lazy
    wall = t_end - first - lazy
    batch = sum(s["end"] - s["start"] for s in batches)
    if sampler is None:
        return {"setup_raw_s": setup / 1e9, "wall_raw_s": wall / 1e9}
    setup -= sampler.spent(t_spawn, first)
    wall -= sampler.spent(first, t_end)
    batch -= sum(sampler.spent(s["start"], s["end"]) for s in batches)
    wall_s = sampler.calibrate(wall, reference, first, t_end)
    return {
        "setup_raw_s": setup / 1e9,
        "wall_raw_s": wall / 1e9,
        "setup_s": sampler.calibrate(setup, "python", t_spawn, first),
        "wall_s": wall_s,
        "trial_phase_s": wall_s * batch / wall if batches else wall_s,
        "speed_samples": len(sampler.samples),
    }


def _layers(tracer, checked: dict) -> dict:
    """Per-layer numbers of a traced run, named as in BENCHMARK.json."""
    def calls(name):
        return tracer.ticks.get(name, [0, 0])[0]

    def ns_per_call(name):
        n, ns = tracer.ticks.get(name, [0, 0])
        return ns / n if n else 0.0

    def seconds(*names):
        return sum(tracer.total(n)[1] for n in names) / 1e9

    decisions = calls("pomdp.decision")
    out_of_grid = tracer.counts["pomdp.decisions.out_of_grid"]
    sweeps = sum(checked["solve_sweeps"])
    return {
        "simulator.ticks": calls("simulator.plant_tick"),
        "simulator.run_trial.self_s": tracer.self_ns("simulator.run_trial") / 1e9,
        "simulator.plant_tick.ns_per_call": ns_per_call("simulator.plant_tick"),
        "simulator.distance.ns_per_call": ns_per_call("simulator.distance"),
        "hybrid.step.calls": calls("hybrid.step"),
        "hybrid.step.ns_per_call": ns_per_call("hybrid.step"),
        "hybrid.mode_switches": checked["mode_switches"],
        "pedestrian.tick.calls": calls("pedestrian.tick"),
        "pedestrian.tick.ns_per_call": ns_per_call("pedestrian.tick"),
        "pomdp.step.calls": calls("pomdp.step"),
        "pomdp.step.ns_per_call": ns_per_call("pomdp.step"),
        "pomdp.decisions": decisions,
        "pomdp.decision.ns_per_call": ns_per_call("pomdp.decision"),
        "pomdp.decisions.out_of_grid": out_of_grid,
        "pomdp.decisions.in_grid_frac": 1.0 - out_of_grid / decisions if decisions else 0.0,
        "pomdp.build_s": seconds("pomdp.build"),
        "pomdp.solve_s": seconds("pomdp.solve"),
        "pomdp.solve.sweeps": sweeps,
        "pomdp.solve.ms_per_sweep": seconds("pomdp.solve") * 1e3 / sweeps if sweeps else 0.0,
        "pomdp.save_s": seconds("pomdp.save"),
        "pomdp.load_s": seconds("pomdp.load"),
        "pomdp.cache.hits": tracer.counts["pomdp.cache.hits"],
        "pomdp.cache.misses": tracer.counts["pomdp.cache.misses"],
        "config.load_s": seconds("config.load"),
        "config.load.calls": tracer.total("config.load")[0],
        "config.echo_s": seconds("config.echo"),
        "cli.parse_s": seconds("cli.build_parser", "cli.parse_args"),
        "cli.replay.self_s": tracer.self_ns("cli.replay") / 1e9,
        "cli.compare.self_s": tracer.self_ns("cli.compare") / 1e9,
        "cli.write_trials_csv_s": seconds("cli.write_trials_csv"),
        "cli.write_summary_csv_s": seconds("cli.write_summary_csv"),
        "cli.bytes_written": checked["bytes_written"],
        "cli.summary.unbinned_trials": checked["unbinned_trials"],
        "svgplot.scatter_svg_s": seconds("svgplot.scatter_svg"),
        "svgplot.markers": tracer.counts["svgplot.markers"],
    }


def main(spec_path: str, t_spawn: int) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    # Traced and profiled iterations are not sampled, so that no sample lands
    # inside a span or a profile.
    sampler = None if spec["trace"] or spec.get("profile") else speed.SpeedSampler()
    if sampler is not None:
        sampler.start()
    # Imported only now, so that the host's speed is sampled during the
    # imports, which are most of set-up.
    import numpy as np

    import crosswalk_sim
    import tracing
    import workloads
    from crosswalk_sim import cli

    src = Path(spec["src"]).resolve()
    if Path(crosswalk_sim.__file__).resolve().parent.parent != src:
        print(f"error: imported crosswalk_sim from {crosswalk_sim.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = tracing.Tracer()
    tracing.install(tracer, fine=spec["trace"])
    work = Path.cwd()
    preexisting = {p for p in work.rglob("*") if p.is_file()}
    profiler = None
    if spec.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
    if sampler is not None:
        sampler.use(spec["reference"])

    entry = {}
    rcs = []
    for argv in spec["calls"]:
        verb = argv[0]
        if verb not in entry:
            entry[verb] = tracer.span(f"cli.{verb}", cli.main)
        if profiler is not None:
            profiler.enable()
        try:
            rcs.append(entry[verb](argv))
        except Exception:  # a crashing call is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rcs.append(None)
        finally:
            if profiler is not None:
                profiler.disable()
        sys.stdout.flush()
    t_end = tracing.now()
    if sampler is not None:
        sampler.stop()

    checked = workloads.check(spec["workload"], spec["calls"], rcs, tracer, work)
    files = workloads.digests(work, tracer.trials)
    checked["bytes_written"] = sum(p.stat().st_size for p in work.rglob("*")
                                   if p.is_file() and p not in preexisting)
    result = {
        "traced": bool(spec["trace"]),
        "rcs": rcs,
        "numpy": np.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": files,
        "unwrapped": tracer.unwrapped,
        **_phase_times(tracer, sampler, spec["reference"], t_spawn, t_end),
        **checked,
    }
    if spec["trace"]:
        result["layers"] = _layers(tracer, checked)
        with open(spec["spans"], "w", encoding="utf-8") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    if profiler is not None:
        import pstats
        with open(spec["profile"], "w", encoding="utf-8") as f:
            pstats.Stats(profiler, stream=f).sort_stats("tottime").print_stats(spec["profile_top"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
