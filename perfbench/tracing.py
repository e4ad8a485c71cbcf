"""Spans and per-tick counters recorded from outside the package.

The benchmark never edits the package. It replaces the module attributes
that each caller looks up (``crosswalk_sim.simulator.plant_tick`` for the
trial loop, ``crosswalk_sim.cli.run_batch`` for the CLI, ...) with timing
wrappers, so every number here is measured at a layer boundary.

Two kinds of wrapper exist:

* ``Tracer.span`` records one span per call (name, start, end, parent span,
  trial id). Used for calls made a few thousand times per run at most.
* ``Tracer.tick`` only adds to a per-layer (calls, nanoseconds) pair. Used
  for the per-tick calls, which number about a million per run; the totals
  are also attached to the enclosing trial span as per-trial deltas, so
  memory stays bounded by the number of trials.

Self time of a span is its duration minus the time of its direct children:
child spans and, for a trial span, the per-tick calls the trial made.
"""

from __future__ import annotations

import time

import numpy as np

now = time.monotonic_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.ticks: dict[str, list[int]] = {}
        self.trials: list[dict] = []
        self.solves: list[dict] = []
        self.counts = {"pomdp.cache.hits": 0, "pomdp.cache.misses": 0,
                       "pomdp.decisions.out_of_grid": 0, "svgplot.markers": 0}
        self.unwrapped: list[str] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._nested: set[str] = set()
        self._trial_id = -1

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, on_return=None, trial=False):
        """Wrap ``fn`` so each call records one span named ``name``."""
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            s = {"id": self._next_id, "name": name,
                 "parent": parent["id"] if parent else None,
                 "trial": self._trial_id, "start": 0, "end": 0, "child_ns": 0}
            if trial:
                self._trial_id += 1
                s["trial"] = self._trial_id
                before = {k: v[:] for k, v in self.ticks.items()}
            stack.append(s)
            s["start"] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                s["end"] = now()
                stack.pop()
                if parent is not None:
                    parent["child_ns"] += s["end"] - s["start"]
                if trial:
                    s["ticks"] = {k: [v[0] - before[k][0], v[1] - before[k][1]]
                                  for k, v in self.ticks.items()}
                    s["child_ns"] += sum(v[1] for k, v in s["ticks"].items()
                                         if k not in self._nested)
                spans.append(s)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def tick(self, name, fn, before=None, nested=False):
        """Wrap a per-tick ``fn`` into an aggregated (calls, ns) counter.

        ``nested`` marks a layer called from inside another per-tick layer,
        whose time must not count again against the enclosing trial.
        """
        agg = self.ticks.setdefault(name, [0, 0])
        if nested:
            self._nested.add(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            t0 = now()
            result = fn(*args, **kwargs)
            agg[1] += now() - t0
            agg[0] += 1
            return result

        return wrapper

    # -- outcomes seen at the boundary ---------------------------------------

    def record_trial(self, result) -> None:
        self.trials.append({
            "collision": bool(result.collision),
            "timed_out": bool(result.timed_out),
            "min_distance_m": result.min_distance,
            "avg_velocity_mps": result.avg_velocity,
            "peak_accel_mps2": result.peak_accel,
            "mode_switches": max(0, len(result.mode_trace) - 1),
        })

    def record_solve(self, args, kwargs, table) -> None:
        tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-6)
        residual = table.residuals[-1] if table.residuals else float("inf")
        self.solves.append({
            "sweeps": len(table.residuals),
            "final_residual": residual,
            "tol": tol,
            "finite": bool(np.all(np.isfinite(table.q))),
            "shape": list(table.q.shape),
        })

    # -- summaries -----------------------------------------------------------

    def total(self, name: str) -> tuple[int, int]:
        """(calls, summed ns) of every span called ``name``."""
        sel = [s for s in self.spans if s["name"] == name]
        return len(sel), sum(s["end"] - s["start"] for s in sel)

    def self_ns(self, name: str) -> int:
        return sum(s["end"] - s["start"] - s["child_ns"] for s in self.spans if s["name"] == name)


def _patch(tracer: Tracer, owner, attr: str, make, required: bool) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        if required:
            raise AttributeError(f"{owner.__name__}.{attr} is gone; the benchmark wraps it")
        tracer.unwrapped.append(f"{owner.__name__}.{attr}")
        return
    setattr(owner, attr, make(fn))


def install(tracer: Tracer, fine: bool) -> None:
    """Wrap the package's layer boundaries; ``fine`` adds the traced layers."""
    from crosswalk_sim import cli, config, hybrid, pomdp, simulator

    def batch_done(args, kwargs, results):
        for r in results:
            tracer.record_trial(r)

    def trial_done(args, kwargs, result):
        tracer.record_trial(result)

    def coarse(owner, attr, make):
        _patch(tracer, owner, attr, make, required=True)

    def traced(owner, attr, make):
        if fine:
            _patch(tracer, owner, attr, make, required=False)

    # The end-to-end metrics are defined on these boundaries, so they are
    # wrapped in every run (a few hundred calls at most) and a missing one is a
    # benchmark error. The traced layers below are skipped, and read 0, if a
    # later version of the package no longer has them.
    coarse(cli, "run_batch", lambda f: tracer.span("simulator.run_batch", f, batch_done))
    coarse(cli, "run_trial", lambda f: tracer.span("simulator.run_trial", f, trial_done, trial=True))
    coarse(cli, "solve_or_load", lambda f: tracer.span("pomdp.solve_or_load", f))
    coarse(pomdp, "qmdp_solve", lambda f: tracer.span("pomdp.solve", f, tracer.record_solve))
    coarse(pomdp, "save_policy", lambda f: tracer.span("pomdp.save", f))
    coarse(config.RunConfig, "pomdp_model", lambda f: tracer.span("pomdp.build", f))
    if not fine:
        return

    def cache_lookup(args, kwargs, table):
        key = "pomdp.cache.misses" if table is None else "pomdp.cache.hits"
        tracer.counts[key] += 1

    def grid_check(args):
        model, vehicle = args[1], args[2]
        if not (model.d_grid[0] <= vehicle.d <= model.d_grid[-1]) or not (
            model.v_grid[0] <= vehicle.v <= model.v_grid[-1]
        ):
            tracer.counts["pomdp.decisions.out_of_grid"] += 1

    def plotted(args, kwargs, svg):
        tracer.counts["svgplot.markers"] += len(args[0])

    def parser_built(build):
        timed_build = tracer.span("cli.build_parser", build)

        def wrapper():
            parser = timed_build()
            parser.parse_args = tracer.span("cli.parse_args", parser.parse_args)
            return parser

        return wrapper

    traced(pomdp, "load_policy", lambda f: tracer.span("pomdp.load", f, cache_lookup))
    traced(simulator, "run_trial", lambda f: tracer.span("simulator.run_trial", f, trial=True))
    traced(simulator, "plant_tick", lambda f: tracer.tick("simulator.plant_tick", f))
    traced(simulator, "pedestrian_tick", lambda f: tracer.tick("pedestrian.tick", f))
    traced(simulator, "vehicle_pedestrian_distance", lambda f: tracer.tick("simulator.distance", f))
    traced(hybrid.HybridController, "step", lambda f: tracer.tick("hybrid.step", f))
    traced(pomdp.PomdpController, "step", lambda f: tracer.tick("pomdp.step", f))
    traced(pomdp, "pomdp_step", lambda f: tracer.tick("pomdp.decision", f, grid_check, nested=True))
    traced(cli, "build_parser", parser_built)
    traced(cli, "load_config", lambda f: tracer.span("config.load", f))
    traced(cli, "write_config_echo", lambda f: tracer.span("config.echo", f))
    traced(cli, "write_trials_csv", lambda f: tracer.span("cli.write_trials_csv", f))
    traced(cli, "write_summary_csv", lambda f: tracer.span("cli.write_summary_csv", f))
    traced(cli, "scatter_svg", lambda f: tracer.span("svgplot.scatter_svg", f, plotted))
