"""``scatter_svg`` against the per-marker f-string renderer it replaced.

``oracle_svg`` is that renderer, kept verbatim: every coordinate is the same
float expression, so the two must give the same bytes wherever the old one
drew a plot.
"""

import csv
import random
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest

from crosswalk_sim.cli import METRIC_COLUMNS, main
from crosswalk_sim.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, SERIES_STYLE,
                                   WIDTH, _fmt, _text, _ticks, scatter_svg)


def oracle_svg(
    points: Sequence[tuple[str, float, float]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render (series, x, y) points to an SVG document string."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi - x_lo < 1e-9:
        x_hi = x_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_hi += pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_text(title)}</text>'
        )

    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_text(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_text(y_label)}</text>'
    )

    for series, x, y in points:
        color, shape = SERIES_STYLE.get(series, ("#2ca02c", "circle"))
        px, py = sx(x), sy(y)
        if shape == "circle":
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.4" fill="{color}" '
                'fill-opacity="0.55" class="marker"/>'
            )
        else:
            parts.append(
                f'<path d="M{px - 2.4:.2f} {py - 2.4:.2f}L{px + 2.4:.2f} {py + 2.4:.2f}'
                f'M{px - 2.4:.2f} {py + 2.4:.2f}L{px + 2.4:.2f} {py - 2.4:.2f}" '
                f'stroke="{color}" stroke-opacity="0.55" stroke-width="1.3" class="marker"/>'
            )

    legend_y = MARGIN_T + 14
    for i, series in enumerate(dict.fromkeys(p[0] for p in points)):
        color, shape = SERIES_STYLE.get(series, ("#2ca02c", "circle"))
        lx = MARGIN_L + plot_w - 110
        ly = legend_y + 18 * i
        if shape == "circle":
            parts.append(f'<circle cx="{lx}" cy="{ly - 4}" r="3.5" fill="{color}"/>')
        else:
            parts.append(
                f'<path d="M{lx - 3.5} {ly - 7.5}L{lx + 3.5} {ly - 0.5}'
                f'M{lx - 3.5} {ly - 0.5}L{lx + 3.5} {ly - 7.5}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{lx + 8}" y="{ly}" font-family="sans-serif" font-size="12">'
            f'{_text(series)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _points(rng: random.Random, n: int, scale: float) -> list[tuple[str, float, float]]:
    series = ("hybrid", "pomdp", "other")  # a circle, a cross, and a series with no style
    return [(rng.choice(series), rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(8))
def test_matches_oracle_on_random_points(seed):
    rng = random.Random(seed)
    scale = 10.0 ** rng.randint(-3, 6)
    points = _points(rng, rng.randint(1, 400), scale)
    if seed % 2:
        points = [(s, x, abs(y)) for s, x, y in points]  # y axis from 0
    title = "" if seed % 4 < 2 else f"seed {seed} & <title>"
    assert scatter_svg(points, "gap (s)", "metric", title) == oracle_svg(points, "gap (s)", "metric", title)


@pytest.mark.parametrize("points", [
    [("hybrid", 1.0, 2.0)],  # one point: both axes padded
    [("pomdp", 2.0, -0.0), ("pomdp", 2.0, 0.0)],  # one x value, signed zeros
    [("hybrid", 0.5, 3.25), ("pomdp", 10.0, 3.25), ("x & y", 5.0, -1.5)],
])
def test_matches_oracle_on_edge_points(points):
    assert scatter_svg(points, "x", "y", "t") == oracle_svg(points, "x", "y", "t")


def test_matches_oracle_on_rounding_edges():
    # x on [0, 3] and y on [0, 20] (a y axis of 0..21): each value below puts a
    # coordinate so near a .xx5 edge that computing it in another order, such
    # as (x - x_lo) * plot_w / x_span, prints a different last digit.
    xs = [2.661080357142857, 1.7949910714285715, 2.9135089285714284, 1.0648660714285716]
    ys = [16.164557926829268, 12.726448170731707, 5.843826219512196, 11.825625]
    points = [("hybrid", 0.0, 20.0), ("pomdp", 3.0, 0.0)]
    points += [(series, x, y) for series in ("hybrid", "pomdp") for x, y in zip(xs, ys)]
    assert scatter_svg(points, "x", "y") == oracle_svg(points, "x", "y")


def test_matches_oracle_on_a_compare_run(tmp_path, monkeypatch):
    # Real output: each gap on 8 rows, results shared by the trials of a gap
    # class, and both marker shapes, in all three metric plots.
    monkeypatch.setenv("CWSIM_POMDP__CACHE_DIR", str(tmp_path / "cache"))
    run = tmp_path / "run"
    assert main(["compare", "--trials", "20", "--seed", "0", "--out", str(run)]) == 0
    with open(run / "trials.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len({row["accepted_gap_s"] for row in rows}) == 20 and len(rows) == 160
    for metric, (column, label) in METRIC_COLUMNS.items():
        svg = tmp_path / f"{metric}.svg"
        assert main(["plot", str(run / "trials.csv"), str(svg), "--metric", metric]) == 0
        points = [(row["method"], float(row["accepted_gap_s"]), float(row[column])) for row in rows]
        assert len(set(points)) < len(points)  # repeated markers
        want = oracle_svg(points, "pedestrian accepted gap (s)", label)
        assert svg.read_bytes() == want.encode("utf-8"), metric


def test_both_shapes_and_the_fallback_are_drawn():
    svg = scatter_svg([("hybrid", 1.0, 1.0), ("pomdp", 2.0, 2.0), ("other", 3.0, 3.0)], "x", "y")
    assert svg.count('class="marker"') == 3
    assert svg.count('<circle cx=') == 2 + 2  # two circle markers, two circle legend keys
    assert 'fill="#2ca02c" fill-opacity="0.55"' in svg


@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_span_overflow_is_a_value_error(axis):
    points = [("hybrid", 1e308, 1e308), ("hybrid", -1e308, -1e308)]
    if axis == "y":
        points = [("hybrid", 1.0, 1e308), ("hybrid", 2.0, -1e308)]
    with pytest.raises(ValueError, match=f"cannot plot {axis} values"):
        scatter_svg(points, "x", "y")


@pytest.mark.parametrize("y_max", [5e-324, 2.5e-323, 1e-13, 5e-10])
def test_tiny_y_span_is_drawn_one_unit_tall(y_max):
    # Before: math.log10(0.0), an empty min(), or one tick per ~y_max / 6
    # across the ticks' 1e-9 tolerance (about 50000 for 1e-13).
    svg = scatter_svg([("hybrid", 1.0, 0.0), ("pomdp", 2.0, y_max)], "x", "y")
    y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="12">([^<]*)<', svg)
    assert y_labels == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


def test_ticks_that_cannot_advance_exit_2(tmp_path):
    # 1e17 and the next float but one: ticks 5.0 apart round back onto 1e17, so
    # the tick loop never ended and grew without bound. Run in a child process
    # under a 1 GiB address-space limit, so a regression fails instead of hanging.
    csv_in = tmp_path / "t.csv"
    csv_in.write_text("method,accepted_gap_s,min_distance_m\nhybrid,1e17,1\npomdp,100000000000000016,2\n")

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-m", "crosswalk_sim.cli", "plot", str(csv_in), str(tmp_path / "t.svg")],
        env={"PYTHONPATH": str(src)}, preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert child.returncode == 2, child.stderr[-500:]
    assert child.stderr.startswith("config error: ") and child.stderr.count("\n") == 1
    assert "cannot place axis ticks 5.0 apart" in child.stderr
    assert not (tmp_path / "t.svg").exists()
