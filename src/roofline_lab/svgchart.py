"""Hand-emitted log-log SVG charts for roofline curves and operating
points.  Each roof is drawn through the vertices its closed form gives
(``RooflineCurve.samples``): a handful per chart, not a sampled grid.
No plotting dependency: the byte output is a pure function of the
inputs, so identical runs produce identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

from .roofline import RooflineCurve

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 30, 55

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
POINT_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
XLABEL = "arithmetic intensity (ops/byte)"


class _LogScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        self.lo = math.log10(lo)
        self.hi = math.log10(hi)
        self.out_lo = out_lo
        self.out_hi = out_hi

    def __call__(self, v: float) -> float:
        return self.out_lo + (math.log10(v) - self.lo) / (self.hi - self.lo) * (
            self.out_hi - self.out_lo)

    def decades(self) -> list[int]:
        return list(range(math.ceil(self.lo), math.floor(self.hi) + 1))


def emit_svg(
    curves: list[tuple[str, RooflineCurve]],
    points: list[tuple[str, float, float]],
    path: str | Path,
    ylabel: str = "ops/cycle",
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
        x = f"{sx(10.0**exp):.2f}"
        out.append(
            f'<line x1="{x}" y1="{MARGIN_T}" x2="{x}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">1e{exp}</text>'
        )
    for exp in sy.decades():
        y = sy(10.0**exp)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">1e{exp}</text>'
        )

    # frame + axis labels
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">{XLABEL}</text>'
    )
    out.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{ylabel}</text>'
    )

    for i, (label, curve) in enumerate(curves):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        pts = " ".join([f"{sx(ai):.2f},{sy(v):.2f}" for ai, v in curve.samples if v > 0])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 14 * i}" '
            f'font-size="12" text-anchor="end" fill="{color}">{label}</text>'
        )
        for ai, knee_label in curve.knees:  # knees are vertices, so in range
            cx, cy = f"{sx(ai):.2f}", sy(curve.value_at(ai))
            out.append(
                f'<circle class="knee" data-ai="{ai:g}" cx="{cx}" '
                f'cy="{cy:.2f}" r="5" fill="white" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            out.append(
                f'<text x="{cx}" y="{cy - 9:.2f}" font-size="10" '
                f'text-anchor="middle" fill="{color}">knee {ai:g} ({knee_label})</text>'
            )

    for i, (label, ai, value) in enumerate(points):
        color = POINT_COLORS[i % len(POINT_COLORS)]
        cx, cy = sx(ai), sy(value)
        out.append(
            f'<circle class="point" data-label="{label}" cx="{cx:.2f}" '
            f'cy="{cy:.2f}" r="4" fill="{color}"/>'
        )
        out.append(
            f'<text x="{cx + 7:.2f}" y="{cy + 4:.2f}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
