"""Hand-emitted log-log SVG charts for roofline curves and operating
points.  No plotting dependency: the byte output is a pure function of
the inputs, so identical runs produce identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

from .roofline import RooflineCurve

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 30, 55

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
POINT_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _decade_label(exp: int) -> str:
    return f"1e{exp}"


class _LogScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        self.lo = math.log10(lo)
        self.hi = math.log10(hi)
        self.out_lo = out_lo
        self.out_hi = out_hi

    def positions(self, values) -> list[float]:
        """Pixel position of each value, with the scale's constants read
        once for the whole list."""
        lo, hi, out_lo, out_hi = self.lo, self.hi, self.out_lo, self.out_hi
        log10 = math.log10
        return [out_lo + (log10(v) - lo) / (hi - lo) * (out_hi - out_lo) for v in values]

    def __call__(self, v: float) -> float:
        return self.positions((v,))[0]

    def decades(self) -> list[int]:
        return list(range(math.ceil(self.lo), math.floor(self.hi) + 1))


def emit_svg(
    curves: list[tuple[str, RooflineCurve]],
    points: list[tuple[str, float, float]],
    path: str | Path,
    ylabel: str = "ops/cycle",
    xlabel: str = "arithmetic intensity (ops/byte)",
) -> None:
    """Write a log-log chart: one polyline per curve with its knees
    marked, one labelled dot per operating point."""
    if not curves:
        raise ValueError("need at least one curve")

    xs = [ai for _, c in curves for ai, _ in c.samples] + [p[1] for p in points]
    ys = [v for _, c in curves for _, v in c.samples if v > 0]
    ys += [p[2] for p in points if p[2] > 0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 10, x_hi * 10
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 10, y_hi * 10
    sx = _LogScale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _LogScale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

    # decade grid
    for exp in sx.decades():
        x = sx(10.0**exp)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{_decade_label(exp)}</text>'
        )
    for exp in sy.decades():
        y = sy(10.0**exp)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end">{_decade_label(exp)}</text>'
        )

    # frame + axis labels
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{ylabel}</text>'
    )

    for i, (label, curve) in enumerate(curves):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        shown = [(ai, v) for ai, v in curve.samples if v > 0 and x_lo <= ai <= x_hi]
        xs_px = sx.positions([ai for ai, _ in shown])
        # a plateau repeats one y: place and format each distinct y once
        distinct = list(dict.fromkeys([v for _, v in shown]))
        y_text = dict(zip(distinct, [f"{y:.2f}" for y in sy.positions(distinct)]))
        pts = " ".join([f"{x:.2f},{y_text[v]}" for x, (_, v) in zip(xs_px, shown)])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 14 * i}" '
            f'font-size="12" text-anchor="end" fill="{color}">{label}</text>'
        )
        for ai, knee_label in curve.knees:
            if not (x_lo <= ai <= x_hi):
                continue
            v = curve.value_at(ai)
            out.append(
                f'<circle class="knee" data-ai="{ai:g}" cx="{_fmt(sx(ai))}" '
                f'cy="{_fmt(sy(v))}" r="5" fill="white" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            out.append(
                f'<text x="{_fmt(sx(ai))}" y="{_fmt(sy(v) - 9)}" font-size="10" '
                f'text-anchor="middle" fill="{color}">knee {ai:g} ({knee_label})</text>'
            )

    for i, (label, ai, value) in enumerate(points):
        color = POINT_COLORS[i % len(POINT_COLORS)]
        out.append(
            f'<circle class="point" data-label="{label}" cx="{_fmt(sx(ai))}" '
            f'cy="{_fmt(sy(value))}" r="4" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_fmt(sx(ai) + 7)}" y="{_fmt(sy(value) + 4)}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
