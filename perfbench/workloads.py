"""The three workloads: the argv each passes to the CLI, and the checks on what it wrote.

Every workload is a closed loop with one client: one process makes one
``crosswalk_sim.cli.main(argv)`` call at a time, in the working directory the
runner gives it, so the default ``.pomdp_cache`` and every ``--out`` land in
that fresh directory.
"""

from __future__ import annotations

import csv
import hashlib
import random
from pathlib import Path

NAMES = ("compare-warm", "solve-cold", "replay-experiment")

# `compare` runs both controllers on four quadrants, so 250 trials per quadrant
# is 2000 trials per call.
COMPARE_TRIALS = 250
PLOT_METRICS = ("min_distance", "avg_velocity", "peak_accel")
# Seed-generated replays, followed by the six scripted two-lane trials. The
# seeded replays share one --out directory, each overwriting trace.csv: new
# files on ext4 cost about 1 ms each and vary a lot, which would swamp the CLI
# work this workload measures. Every trial's results are digested from the
# run_trial boundary instead.
REPLAY_GAPS = 191
REPLAY_GAP_RANGE = (0.5, 10.0)
# The paper's scripted trial outcomes (replay --preset experiment --trial N).
SCRIPTED_MODES = ("Yielding", "SpeedUp", "Yielding", "HardBraking", "Yielding", "SpeedUp")
# The kind of reference task that tracks the host's speed for each workload's
# hot layer (see speed.py).
REFERENCE = {"compare-warm": "python", "solve-cold": "numpy", "replay-experiment": "python"}
# summary.csv bins accepted gaps over [0, 10) s and drops the rest.
SUMMARY_RANGE = (0.0, 10.0)


def presolve(name: str) -> list[list[str]]:
    """Untimed calls that fill the policy cache before the timed calls."""
    return [["solve-pomdp"]] if name == "compare-warm" else []


def calls(name: str, seed: int) -> list[list[str]]:
    """The argv list of one run of workload ``name``; a pure function of the seed."""
    if name == "compare-warm":
        argvs = [["compare", "--trials", str(COMPARE_TRIALS), "--seed", str(seed % 2**31),
                  "--out", "out"]]
        argvs += [["plot", "out/trials.csv", f"out/{m}.svg", "--metric", m] for m in PLOT_METRICS]
        return argvs
    if name == "solve-cold":
        return [["solve-pomdp"], ["solve-pomdp", "--preset", "experiment"]]
    if name == "replay-experiment":
        rng = random.Random(seed)
        lo, hi = REPLAY_GAP_RANGE
        argvs = []
        for i in range(REPLAY_GAPS):
            gap = lo + (hi - lo) * rng.random()
            side = "near" if i % 2 == 0 else "far"
            argvs.append(["replay", "--preset", "experiment", "--gap", f"{gap:.3f}",
                          "--side", side, "--out", "out/gap"])
        argvs += [["replay", "--preset", "experiment", "--trial", str(k), "--out", f"out/t{k}"]
                  for k in range(1, len(SCRIPTED_MODES) + 1)]
        return argvs
    raise ValueError(f"unknown workload {name!r}; have {', '.join(NAMES)}")


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def digests(work: Path, trials: list[dict]) -> dict[str, str]:
    """sha256 of every file under ``work`` and of every trial's results."""
    out = {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*")) if p.is_file()
    }
    out["trial results"] = hashlib.sha256(repr(trials).encode()).hexdigest()
    return out


def check(name: str, argvs: list[list[str]], rcs: list, tracer, work: Path) -> dict:
    """Count failed operations and check the outputs of one run.

    Operations are CLI calls, trials and solves. A failed operation is a
    non-zero exit (or an exception), a trial with a collision or timeout, a
    scripted trial in the wrong mode, or a solve that did not converge. A
    failed check means the outputs are wrong or missing.
    """
    failures: list[str] = []
    errors: list[str] = []
    for argv, rc in zip(argvs, rcs):
        if rc != 0:
            failures.append(f"exit {rc}: {' '.join(argv)}")
    trials = tracer.trials
    for i, t in enumerate(trials):
        if t["collision"] or t["timed_out"]:
            failures.append(f"trial {i}: collision={t['collision']} timed_out={t['timed_out']}")
    out: dict = {"unbinned_trials": 0}

    if name == "compare-warm":
        expected = 8 * COMPARE_TRIALS
        trials_csv = work / "out" / "trials.csv"
        rows = _rows(trials_csv) if trials_csv.is_file() else []
        if not len(rows) == len(trials) == expected:
            errors.append(f"trials.csv has {len(rows)} rows, {len(trials)} trials ran, "
                          f"expected {expected}")
        lo, hi = SUMMARY_RANGE
        out["unbinned_trials"] = sum(not lo <= float(r["accepted_gap_s"]) < hi for r in rows)
        for f in ("summary.csv", "panels_near.csv", "panels_far.csv", "resolved_config.ini",
                  *(f"{m}.svg" for m in PLOT_METRICS)):
            if not (work / "out" / f).is_file():
                errors.append(f"missing out/{f}")
    elif name == "solve-cold":
        solves = tracer.solves
        if len(solves) != 2:
            errors.append(f"{len(solves)} solves ran, expected 2")
        for s in solves:
            if not s["finite"] or not s["final_residual"] < s["tol"]:
                failures.append(f"solve finite={s['finite']} residual={s['final_residual']:.3e}")
        if len(list((work / ".pomdp_cache").glob("*.npz"))) != 2:
            errors.append("expected two cached policies")
    elif name == "replay-experiment":
        if len(trials) != len(argvs):
            errors.append(f"{len(trials)} trials ran for {len(argvs)} replays")
        for argv in argvs:
            trace = work / argv[-1] / "trace.csv"
            if not trace.is_file():
                errors.append(f"missing {trace.relative_to(work)}")
            elif argv[3] == "--trial":
                k = int(argv[4])
                modes = {r["mode"] for r in _rows(trace)} - {"Driving"}
                if modes != {SCRIPTED_MODES[k - 1]}:
                    failures.append(f"scripted trial {k}: expected {SCRIPTED_MODES[k - 1]}, "
                                    f"saw {sorted(modes)}")

    if trials:
        out["science"] = {
            "min_clearance_m": min(t["min_distance_m"] for t in trials),
            "mean_avg_velocity_mps": sum(t["avg_velocity_mps"] for t in trials) / len(trials),
            "max_peak_accel_mps2": max(t["peak_accel_mps2"] for t in trials),
        }
    out.update(
        operations=len(argvs) + len(trials) + len(tracer.solves),
        failures=failures,
        errors=errors,
        trials=len(trials),
        mode_switches=sum(t["mode_switches"] for t in trials),
        solve_sweeps=[s["sweeps"] for s in tracer.solves],
    )
    return out
