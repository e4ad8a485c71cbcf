#!/usr/bin/env python3
"""crosswalk-sim benchmark: run one workload for a fixed time and report it.

Run from the repository root:

    python3 perfbench/run.py --workload compare-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload replay-experiment --seed 1 --profile 30

Each iteration of the workload runs in a fresh Python process (worker.py)
with a clean environment, in its own fresh directory, one iteration at a
time. The runner repeats iterations until ``--seconds`` is used up and
reports medians. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, including the tracing overhead. ``--profile N``
runs one untimed iteration under cProfile and writes the top N functions by
own time next to the results instead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Full
results, spans and profiles go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
# A run must end within 180 s; iterations are stopped well before that.
RUN_LIMIT_S = 170.0
MIN_UNTRACED = 3  # untimed runs: set-up and body are medians of at least this many
EXACT_UNITS = ("count", "B")  # per-layer metrics that must repeat exactly for a seed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, metavar="N",
                   help="profile one untimed iteration; write the top N by tottime")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def clean_env() -> dict:
    """A fixed environment: no config overrides, one BLAS thread, the package from src.

    ``load_config`` reads every variable, so only PATH and HOME are inherited.
    """
    env = {k: os.environ[k] for k in ("PATH", "HOME") if k in os.environ}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def code_id() -> str:
    """Hash of the package and benchmark sources: same code, same id."""
    h = hashlib.sha256()
    for p in sorted([*(SRC / "crosswalk_sim").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "code_id": code_id(), "seed": seed,
            "loadavg_start": os.getloadavg()}


class Runner:
    """Starts worker processes one at a time inside one scratch directory."""

    def __init__(self, workload: str, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.env = clean_env()
        self.t0 = time.monotonic()
        self.n = 0
        self.policy = None

    def spawn(self, calls, trace=False, work_from=None, profile=None) -> tuple[dict | None, float]:
        """Run ``calls`` in a fresh process; returns (worker result or None, seconds taken)."""
        self.n += 1
        it = self.scratch / f"it{self.n:03d}"
        work = it / "work"
        if work_from is not None:
            shutil.copytree(work_from, work)
        work.mkdir(parents=True, exist_ok=True)
        spec = {"workload": self.workload, "calls": calls, "trace": trace, "src": str(SRC),
                "reference": workloads.REFERENCE[self.workload],
                "result": str(it / "result.json"), "spans": str(it / "spans.jsonl")}
        if profile is not None:
            spec.update(profile=str(profile[0]), profile_top=profile[1])
        (it / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.t0))
        with open(it / "worker.log", "w", encoding="utf-8") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(it / "spec.json"),
                 str(time.monotonic_ns())],
                cwd=work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
        took = time.monotonic() - start
        result_path = it / "result.json"
        if rc != 0 or not result_path.is_file():
            tail = (it / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"worker exited {rc}; log tail:\n{tail}", file=sys.stderr)
            return None, took
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result.update(work=str(work), spans_path=str(it / "spans.jsonl"))
        return result, took

    def prepare(self) -> bool:
        """Untimed: compile bytecode and, for compare-warm, pre-solve the policy."""
        result, _ = self.spawn(workloads.presolve(self.workload))
        if result is None or any(rc != 0 for rc in result["rcs"]):
            return False
        if workloads.presolve(self.workload):
            self.policy = Path(result["work"])
        return True


def median(xs):
    return statistics.median(xs) if xs else 0.0


def describe(xs) -> str:
    return f"median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g}" if xs else "no samples"


def repeat_check(key: str, digest: str, counts: dict) -> list[str]:
    """Compare this run's outputs and exact counts with earlier runs of the same key."""
    path = RESULTS / "repeat.json"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems = []
    old = seen.get(key)
    if old is not None:
        if old["digest"] != digest:
            problems.append(f"output digest differs from an earlier run of {key}")
        for name, value in counts.items():
            if name in old["counts"] and old["counts"][name] != value:
                problems.append(f"{name}={value} differs from an earlier run ({old['counts'][name]})")
        old["counts"].update(counts)
    else:
        seen[key] = {"digest": digest, "counts": counts}
    path.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crosswalk_sim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'crosswalk_sim'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    calls = workloads.calls(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}"

    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=RESULTS) as tmp:
        runner = Runner(args.workload, Path(tmp))
        if not runner.prepare():
            print("error: workload preparation failed", file=sys.stderr)
            return 1

        if args.profile is not None:
            out = RESULTS / f"profile-{tag}.txt"
            result, _ = runner.spawn(calls, work_from=runner.policy,
                                     profile=(out, args.profile))
            if result is None:
                return 1
            print(f"profile of one {args.workload} run (top {args.profile} by tottime) -> {out}")
            return 0

        # Iterate until the time is used up, starting another iteration only
        # if one more of its kind is expected to fit.
        results, took = [], {False: [], True: []}
        t_start = time.monotonic()
        while True:
            n_untraced = sum(not r["traced"] for r in results)
            traced = bool(args.trace) and n_untraced > len(results) - n_untraced
            result, seconds = runner.spawn(calls, trace=traced, work_from=runner.policy)
            if result is None:
                return 1
            results.append(result)
            took[traced].append(seconds)
            elapsed = time.monotonic() - t_start
            n_untraced = sum(not r["traced"] for r in results)
            n_traced = len(results) - n_untraced
            enough = n_traced >= 1 and n_untraced >= 1 if args.trace else n_untraced >= MIN_UNTRACED
            nxt = bool(args.trace) and n_untraced > n_traced
            estimate = median(took[nxt]) if took[nxt] else median(took[not nxt])
            if enough and elapsed + estimate > args.seconds:
                break
            if time.monotonic() - runner.t0 + 2 * max(took[False] + took[True]) > RUN_LIMIT_S:
                break
        spans_src = next((r["spans_path"] for r in reversed(results) if r["traced"]), None)
        if spans_src is not None:
            shutil.copyfile(spans_src, RESULTS / f"spans-{tag}.jsonl")
    prov["loadavg_end"] = os.getloadavg()
    prov["numpy"] = results[0]["numpy"]
    prov["loaded"] = max(prov["loadavg_start"][0], prov["loadavg_end"][0]) > prov["nproc"]
    return report(args, spec, prov, results)


def report(args, spec: dict, prov: dict, results: list[dict]) -> int:
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    errors = [e for r in results for e in r["errors"]]
    failed = sum(len(r["failures"]) for r in results)
    attempted = sum(r["operations"] for r in results)

    # Same seed, same code: every iteration must write identical files and
    # make identical exact counts, here and in earlier runs of this checkout.
    first = results[0]
    repeat = [f"iteration {i}: output digests differ"
              for i, r in enumerate(results) if r["digests"] != first["digests"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counts = {}
    if traced:
        counts = {k: v for k, v in traced[0]["layers"].items() if units.get(k) in EXACT_UNITS}
        repeat += [f"traced iteration {i}: exact counts differ"
                   for i, r in enumerate(traced)
                   if {k: r["layers"][k] for k in counts} != counts]
    digest = hashlib.sha256(json.dumps(first["digests"], sort_keys=True).encode()).hexdigest()
    key = f"{args.workload} seed={args.seed} code={prov['code_id']}"
    repeat += repeat_check(key, digest, counts)
    failed += len(repeat)
    attempted += len(repeat)
    correct = not errors and not repeat

    e2e = {name: [r[name] for r in untraced]
           for name in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "peak_rss_mb")}
    e2e_units = {"peak_rss_mb": "MB"}
    trials = first["trials"]
    print(f"crosswalk-sim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  {len(untraced)} untraced and {len(traced)} traced iterations, "
          f"each a fresh process; {trials} trials per iteration")
    print("end-to-end (untraced iterations):")
    for name, xs in e2e.items():
        print(f"  {name:<24} {median(xs):12.5g} {e2e_units.get(name, 's'):<6} ({describe(xs)})")
    if trials:
        tps = [r["trials"] / r["trial_phase_s"] for r in untraced]
        print(f"  {'trials_per_s':<24} {median(tps):12.5g} {'1/s':<6} ({describe(tps)})")
    else:
        print(f"  {'trials_per_s':<24} {'n/a':>12} 1/s    (no trials in this workload)")
    print(f"  {'failed_frac':<24} {failed / attempted if attempted else 0.0:12.5g} ratio  "
          f"({failed} failed of {attempted} operations)")
    science = first.get("science")
    for name, unit in (("min_clearance_m", "m"), ("mean_avg_velocity_mps", "m/s"),
                       ("max_peak_accel_mps2", "m/s^2")):
        value = f"{science[name]:12.9g}" if science else f"{'n/a':>12}"
        print(f"  {name:<24} {value} {unit}")
    print("approximations (reported, not gated):")
    if trials:
        print(f"  cli.summary.unbinned_trials  {first['unbinned_trials']} of {trials} trials "
              "have a gap outside summary.csv's 0-10 s bins")
    if traced and traced[0]["layers"]["pomdp.decisions"]:
        lay = traced[0]["layers"]
        print(f"  pomdp.decisions.out_of_grid  {lay['pomdp.decisions.out_of_grid']} of "
              f"{lay['pomdp.decisions']} decisions clamped to the grid")
    if first["solve_sweeps"]:
        print(f"  value-iteration sweeps per solve: {first['solve_sweeps']}")

    metrics = {}
    if args.trace:
        untraced_wall = median(e2e["wall_raw_s"])
        overhead = median([r["wall_raw_s"] for r in traced]) - untraced_wall
        print(f"per-layer (traced iterations; tracing adds {overhead:.4g} s to wall_raw_s, "
              f"{overhead / untraced_wall:.1%} of the untraced median):")
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = overhead
            elif m["unit"] in EXACT_UNITS:
                value = traced[0]["layers"][name]
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name:<36} {value:14.6g} {m['unit']}")
        if traced[0]["unwrapped"]:
            print(f"  not traced (attribute gone): {', '.join(traced[0]['unwrapped'])}")
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": median(e2e[m["name"]]), "unit": m["unit"]}

    load = f"{prov['loadavg_start'][0]:.2f} -> {prov['loadavg_end'][0]:.2f}"
    print(f"provenance: python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
          f"cpu {prov['cpu']!r}, load {load}, commit {prov['commit']}, code {prov['code_id']}")
    if prov["loaded"]:
        print(f"WARNING: load average exceeded nproc={prov['nproc']} during this run")
    for line in errors + repeat:
        print(f"CHECK FAILED: {line}")
    for line in [f for r in results for f in r["failures"]][:10]:
        print(f"failed operation: {line}")

    out = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps({"provenance": prov, "metrics": metrics, "e2e_samples": e2e,
                               "iterations": [{k: v for k, v in r.items() if k != "digests"}
                                              for r in results],
                               "digest": digest, "errors": errors, "repeat": repeat},
                              indent=1), encoding="utf-8")
    print(f"results -> {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
