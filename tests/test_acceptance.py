"""Acceptance suite: every release criterion, one test each, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The shared sweeps and batches are session fixtures so the whole
suite stays inside the desk-scale budget.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from crosswalk_sim.cli import main
from crosswalk_sim.config import EXPERIMENT_TRIALS, load_config
from crosswalk_sim.core import EntrySide, comfort_brake_distance
from crosswalk_sim.pedestrian import sample_accepted_gap
from crosswalk_sim.pomdp import PomdpController, greedy_action_table, qmdp_solve
from crosswalk_sim.simulator import Lane, run_batch, run_trial, seeded_gaps, sweep_gaps

from states import config_with, scaled_weights

GOLDEN_DIR = Path(__file__).parent / "golden"
QUADRANTS = [
    (Lane.A, EntrySide.NEAR),
    (Lane.A, EntrySide.FAR),
    (Lane.B, EntrySide.NEAR),
    (Lane.B, EntrySide.FAR),
]


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE PASS {n:2d}: {text}")


@pytest.fixture(scope="module")
def safety_sweep(scenario_factory, hybrid_for):
    """Deterministic gap sweep, hybrid controller, all four quadrants: each
    trial's (gap, result)."""
    gaps = sweep_gaps(0.5, 0.1, 10.0)
    out = {}
    for lane, side in QUADRANTS:
        sc = scenario_factory(lane=lane, entry_side=side)
        out[(lane, side)] = list(zip(gaps, run_batch([sc], gaps, hybrid_for(sc)), strict=True))
    return out


@pytest.fixture(scope="module")
def random_batches(scenario_factory, hybrid_for):
    """750 independently seeded random-gap trials per quadrant: each trial's (gap, result)."""
    out = {}
    for i, (lane, side) in enumerate(QUADRANTS):
        sc = scenario_factory(lane=lane, entry_side=side)
        gaps = seeded_gaps(sc.gap_model, 1000 * (i + 1), 750)
        out[(lane, side)] = list(zip(gaps, run_batch([sc], gaps, hybrid_for(sc)), strict=True))
    return out


def test_criterion_01_safety_sweep_no_collisions(safety_sweep):
    total = 0
    for (lane, side), results in safety_sweep.items():
        for gap, r in results:
            assert not r.collision, f"collision at {lane}/{side} gap={gap}"
            assert not r.timed_out, f"timeout at {lane}/{side} gap={gap}"
            total += 1
    assert total == 96 * 4
    report(1, f"gap sweep x quadrants: {total} trials, zero collisions (radius 1.0 m)")


def test_criterion_02_lane_b_clearance(safety_sweep):
    worst = math.inf
    for side in (EntrySide.NEAR, EntrySide.FAR):
        for gap, r in safety_sweep[(Lane.B, side)]:
            worst = min(worst, r.min_distance)
            assert r.min_distance >= 4.0, (
                f"Lane B {side} gap={gap}: {r.min_distance:.3f} m"
            )
    report(2, f"all Lane B trials keep >= 4.0 m (worst {worst:.2f} m)")


def test_criterion_03_risky_gap_lateral_margin(scenario_factory, hybrid_for, geometry):
    half_depth = geometry.crosswalk_depth / 2.0
    sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
    worst = math.inf
    for gap in [round(1.25 + 0.05 * k, 10) for k in range(11)]:
        r = run_trial(sc, gap, hybrid_for(sc))
        for t, d, v, a_cmd, a_act, x_p, mode in r.trace:
            y = -(d + geometry.delta)
            if abs(y) <= half_depth:
                lateral = abs(sc.lane_center() - x_p)
                worst = min(worst, lateral)
                assert lateral >= 2.0, f"gap={gap}: lateral {lateral:.3f} m at t={t:.2f}"
    report(3, f"risky gaps [1.25, 1.75] s: lateral margin >= 2.0 m (worst {worst:.2f} m)")


def test_criterion_04_smoothness(random_batches):
    pooled = [r for results in random_batches.values() for _, r in results]
    exceed = [r for r in pooled if r.peak_accel > 2.0 + 0.05]
    compliance = 1.0 - len(exceed) / len(pooled)
    assert compliance >= 0.90, f"compliance {compliance:.3f}"
    for (lane, side), results in random_batches.items():
        for gap, r in results:
            if r.peak_accel > 2.05:
                assert (lane, side) == (Lane.A, EntrySide.NEAR), (
                    f"exceedance outside Lane A/near: {lane}/{side}"
                )
                assert 1.5 <= gap <= 2.75, (
                    f"exceedance at gap {gap:.3f}"
                )
    report(
        4,
        f"{len(pooled)} random trials: {compliance:.1%} within 2.05 m/s^2; "
        f"{len(exceed)} exceedances, all Lane A/near in [1.5, 2.75] s",
    )


def test_criterion_05_far_side_pass_through(safety_sweep, params):
    floor = 0.95 * params.v_speedlimit
    worst = math.inf
    for gap, r in safety_sweep[(Lane.A, EntrySide.FAR)]:
        worst = min(worst, r.avg_velocity)
        assert r.avg_velocity >= floor, (
            f"gap={gap}: avg {r.avg_velocity:.3f} < {floor:.3f}"
        )
    report(5, f"Lane A/far sweep: avg velocity >= {floor:.3f} m/s (worst {worst:.3f})")


def test_criterion_06_mode_regime_map(safety_sweep):
    results = safety_sweep[(Lane.A, EntrySide.NEAR)]
    regime = {}
    for gap, r in results:
        active = r.visited_modes() - {"Driving"}
        assert len(active) <= 1, f"multiple active modes in one trial: {active}"
        regime[f"{gap:.1f}"] = active.pop() if active else "Driving"

    labels = list(regime.values())
    assert {"SpeedUp", "HardBraking", "Yielding", "Driving"} <= set(labels)
    # Regime bands must appear in physical order as the gap grows.
    order = ["Driving", "SpeedUp", "HardBraking", "Yielding", "Driving"]
    collapsed = [labels[0]]
    for lab in labels[1:]:
        if lab != collapsed[-1]:
            collapsed.append(lab)
    assert collapsed == order, f"unexpected regime sequence {collapsed}"

    golden_path = GOLDEN_DIR / "regime_map.json"
    if not golden_path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(regime, indent=1, sort_keys=True) + "\n")
        report(6, "regime map golden file established from this sweep")
        return
    golden = json.loads(golden_path.read_text())
    assert regime == golden, "regime boundaries moved against the golden map"
    bounds = {lab: [g for g, m in regime.items() if m == lab] for lab in set(labels)}
    report(
        6,
        "regime map stable: SpeedUp "
        f"[{bounds['SpeedUp'][0]}, {bounds['SpeedUp'][-1]}], HardBraking "
        f"[{bounds['HardBraking'][0]}, {bounds['HardBraking'][-1]}], Yielding "
        f"[{bounds['Yielding'][0]}, {bounds['Yielding'][-1]}] s",
    )


def test_criterion_07_controller_math_oracles(ctrl):
    assert abs(ctrl.yield_speed_profile(5.0625, 5.0625, 4.5) - 4.5) <= 1e-12
    assert abs(ctrl.yield_speed_profile(0.0, 5.0625, 4.5) - 0.0) <= 1e-12

    dt = 1e-3
    d, v = 4.0, 4.0
    ratio0 = v * v / d
    worst = 0.0
    while v > 0.05 and d > 1e-4:
        a = -v * v / (2.0 * d)
        d -= v * dt + 0.5 * a * dt * dt
        v += a * dt
        worst = max(worst, abs(v * v / d - ratio0) / ratio0)
    assert worst <= 1e-6

    assert comfort_brake_distance(4.5, 2.0) == 5.0625
    report(7, f"profile endpoints exact; v^2/d drift {worst:.2e} <= 1e-6; d_cmf exact")


def test_criterion_08_gap_acceptance_statistics(gap_model):
    rng = np.random.default_rng(2024)
    draws = np.array([sample_accepted_gap(gap_model, rng) for _ in range(10_000)])
    mean, std = draws.mean(), draws.std(ddof=0)
    assert abs(mean - 4.0) <= 0.05, f"mean {mean:.4f}"
    assert abs(std - math.sqrt(2.5)) <= 0.05, f"std {std:.4f}"
    report(8, f"10k draws: mean {mean:.3f} (4.0 +/- 0.05), std {std:.3f} (1.581 +/- 0.05)")


def test_criterion_09_solver_properties(config, solved_policy):
    tol = config.pomdp["tol"]
    res = solved_policy.residuals
    assert res[-1] < tol
    assert all(res[i + 1] <= res[i] + 1e-12 for i in range(1, len(res) - 1))

    small = {"n_v_bins": 5, "n_d_bins": 11}
    m0 = config_with(pomdp={**small, "gamma": 0.0}).pomdp_model()
    assert np.array_equal(qmdp_solve(m0, tol=1e-9).q, m0.reward_table)

    m1 = config_with(pomdp={**small, "gamma": 0.9}).pomdp_model()
    m2 = config_with(pomdp={**small, "gamma": 0.9, **scaled_weights(4.2)}).pomdp_model()
    g1 = greedy_action_table(m1, qmdp_solve(m1, tol=tol))
    g2 = greedy_action_table(m2, qmdp_solve(m2, tol=tol))
    assert np.array_equal(g1, g2)
    report(
        9,
        f"residual {res[-1]:.2e} < 1e-6, monotone after iter 1; "
        "gamma=0 gives Q=r; weight rescaling preserves the greedy policy",
    )


def test_criterion_10_pomdp_slows_at_high_gaps(scenario_factory, hybrid_for, pomdp_model,
                                               solved_policy):
    gaps = sweep_gaps(7.1, 0.1, 10.0)
    sc = scenario_factory(lane=Lane.A, entry_side=EntrySide.NEAR)
    hybrid = run_batch([sc], gaps, hybrid_for(sc))
    pomdp = run_batch([sc], gaps, PomdpController(pomdp_model, solved_policy, sim_dt=sc.dt))

    diffs = np.array(
        [h.avg_velocity - p.avg_velocity for h, p in zip(hybrid, pomdp)]
    )
    assert np.mean([p.avg_velocity for p in pomdp]) < np.mean(
        [h.avg_velocity for h in hybrid]
    )
    # Paired one-sided test at alpha = 0.01 (normal approximation).
    n = len(diffs)
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        assert np.all(diffs > 0.0)
        p_value = 0.0
    else:
        t = diffs.mean() / (sd / math.sqrt(n))
        p_value = 0.5 * math.erfc(t / math.sqrt(2.0))
        assert p_value < 0.01, f"p={p_value:.4g}"
    report(
        10,
        f"gaps > 7 s: mean avg velocity pomdp {np.mean([p.avg_velocity for p in pomdp]):.2f}"
        f" < hybrid {np.mean([h.avg_velocity for h in hybrid]):.2f} (paired p < 0.01)",
    )


def test_criterion_11_experimental_preset_replay(hybrid_for):
    config = load_config(preset="experiment", env={})
    outcomes = []
    for i, (gap, side, expected) in enumerate(EXPERIMENT_TRIALS, start=1):
        sc = config.scenario(side=side)
        r = run_trial(sc, gap, hybrid_for(sc))
        active = r.visited_modes() - {"Driving"}
        assert active == {expected}, f"trial {i}: expected {expected}, saw {active}"
        assert not r.collision
        outcomes.append(expected)
        if i == 4:
            stopped = [row[1] for row in r.trace if row[2] <= 1e-9]
            assert stopped, "trial 4 never came to a stop"
            d_stop = stopped[0]
            delta = config.world["delta"]
            assert -delta < d_stop <= 0.0, f"trial 4 stop at d={d_stop:.2f}"
            trial4_stop = d_stop
    report(
        11,
        f"six scripted trials gave {outcomes}; brake-delay overshoot stops at "
        f"d={trial4_stop:.2f} m, inside (-5, 0]",
    )


def test_criterion_12_bitwise_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    args = ["simulate", "--sweep", "1:0.5:9", "--seed", "5", "--out", str(out)]
    names = ("trials.csv", "summary.csv", "resolved_config.ini")

    assert main(args) == 0
    first = {name: (out / name).read_bytes() for name in names}
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(out / "trials.csv"), str(svg)]) == 0
    first_svg = svg.read_bytes()

    assert main(args) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name
    assert main(["plot", str(out / "trials.csv"), str(svg)]) == 0
    assert svg.read_bytes() == first_svg

    replay = ["replay", "--preset", "experiment", "--trial", "4", "--out", str(tmp_path / "rep")]
    assert main(replay) == 0
    first_trace = (tmp_path / "rep" / "trace.csv").read_bytes()
    assert main(replay) == 0
    assert (tmp_path / "rep" / "trace.csv").read_bytes() == first_trace
    report(12, "repeat runs are bitwise-identical for CSV, trace, config echo, and SVG")
