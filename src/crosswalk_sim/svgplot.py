"""Self-contained SVG 1.1 scatter plots.

Hand-rolled on purpose: output bytes are a pure function of the input
rows, so plots from identical runs diff clean. One marker per trial, one
series per controller.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 40, 52
SERIES_STYLE = {
    "hybrid": ("#1f77b4", "circle"),
    "pomdp": ("#d62728", "cross"),
}


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9:
        out.append(round(t, 10))
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(s: str) -> str:
    """``s`` as XML character data."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(
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
