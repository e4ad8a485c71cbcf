"""Self-contained SVG 1.1 scatter plots.

Hand-rolled on purpose: output bytes are a pure function of the input
rows, so plots from identical runs diff clean. One marker per trial, one
series per controller. Each distinct x and y is formatted once, from the
float expressions that a marker of its own would format, so markers that
share a coordinate share its text.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 40, 52
SERIES_STYLE = {
    "hybrid": ("#1f77b4", "circle"),
    "pomdp": ("#d62728", "cross"),
}
OTHER_STYLE = ("#2ca02c", "circle")
# One trial's marker: a circle takes its centre and colour, a cross its corners
# (left, top, right, bottom, left, bottom, right, top) and colour.
CIRCLE = '<circle cx="%s" cy="%s" r="2.4" fill="%s" fill-opacity="0.55" class="marker"/>'
CROSS = ('<path d="M%s %sL%s %sM%s %sL%s %s" '
         'stroke="%s" stroke-opacity="0.55" stroke-width="1.3" class="marker"/>')


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9:
        out.append(round(t, 10))
        if t + step == t:  # a step below half a unit in the last place: the loop would not end
            raise ValueError(f"cannot place axis ticks {step!r} apart near {t!r}")
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cells(values: Sequence[float],
           scale: Callable[[float], float]) -> dict[float, tuple[str, str, str]]:
    """Each distinct value's marker coordinate ``scale(value)``, formatted once,
    and the two 2.4 below and above it: a circle reads the first, a cross the others.
    0.0 and -0.0 share a key, which is exact: an axis scale adds a nonzero margin."""
    cells = {}
    for value in set(values):
        p = scale(value)
        cells[value] = "%.2f" % p, "%.2f" % (p - 2.4), "%.2f" % (p + 2.4)
    return cells


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
    # An axis spanning less than 1e-9 is drawn one unit wide: the ticks'
    # 1e-9 tolerance would otherwise add about 1e-9 / step of them.
    if x_hi - x_lo < 1e-9:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-9:
        y_hi = y_lo + 1.0
    else:
        y_hi += 0.05 * (y_hi - y_lo)
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    for axis, values, span in (("x", xs, x_span), ("y", ys, y_span)):
        if not math.isfinite(span):
            raise ValueError(f"cannot plot {axis} values from {min(values)!r} to "
                             f"{max(values)!r}: the axis span overflows a float")
        if span == 0.0:  # one unit is lost on a float of magnitude 2**53 or more
            raise ValueError(f"cannot plot {axis} values all at {min(values)!r}: "
                             "the axis cannot be drawn one unit wide there")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    y_base = MARGIN_T + plot_h

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return y_base - (y - y_lo) / y_span * plot_h

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

    x_cells, y_cells = _cells(xs, sx), _cells(ys, sy)
    for series, x, y in points:
        color, shape = SERIES_STYLE.get(series, OTHER_STYLE)
        px, left, right = x_cells[x]
        py, top, bottom = y_cells[y]
        if shape == "circle":
            parts.append(CIRCLE % (px, py, color))
        else:
            parts.append(CROSS % (left, top, right, bottom, left, bottom, right, top, color))
    del x_cells, y_cells  # unread from here, so the join does not hold them

    legend_y = MARGIN_T + 14
    for i, series in enumerate(dict.fromkeys(p[0] for p in points)):
        color, shape = SERIES_STYLE.get(series, OTHER_STYLE)
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

    parts.append("</svg>\n")
    return "\n".join(parts)
