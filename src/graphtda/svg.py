"""Hand-emitted SVG rendering of persistence diagrams and extended-PBN heatmaps.

No plotting dependency: a fixed 600x600 viewport, linear scales with 5%
margins, and rounded coordinates keep the output byte-stable across runs.
Diagrams are drawn from checked PersistenceDiagrams, whose coincident points
are already merged, so a diagram plots alike from JSON and CSV. A grid's
coordinates must span a finite interval, as serialize.grids_from_json requires; a
scale over any other interval raises ValueError.
"""

from __future__ import annotations

import math
import sys

from .persistence import PersistenceDiagram
from .serialize import midpoint, step_past

SIZE = 600
MARGIN = 0.05

_DEGREE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Scale:
    """Maps a finite data interval lo < hi onto the padded viewport, y axis flipped."""

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"cannot scale the interval [{lo}, {hi}]; it needs finite lo < hi")
        self.lo, self.hi = lo, hi
        self.inner = SIZE * (1 - 2 * MARGIN)
        # A span past the largest float is measured in halves; the factor 1.0
        # used elsewhere is exact.
        self.unit = 1.0 if math.isfinite(hi - lo) else 0.5

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def _t(self, v: float) -> float:
        u = self.unit
        return (self.clamp(v) * u - self.lo * u) / (self.hi * u - self.lo * u)

    def x(self, v: float) -> float:
        return SIZE * MARGIN + self._t(v) * self.inner

    def y(self, v: float) -> float:
        return SIZE * (1 - MARGIN) - self._t(v) * self.inner


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _frame(scale: _Scale, fill: str = "white") -> list[str]:
    x0, x1 = _fmt(scale.x(scale.lo)), _fmt(scale.x(scale.hi))
    y0, y1 = _fmt(scale.y(scale.lo)), _fmt(scale.y(scale.hi))
    return [
        f'<rect x="{x0}" y="{y1}" width="{_fmt(scale.inner)}" height="{_fmt(scale.inner)}" '
        f'fill="{fill}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<text x="{x0}" y="{_fmt(SIZE * (1 - MARGIN) + 16)}" font-size="12" '
        f'font-family="monospace">{scale.lo:g}</text>',
        f'<text x="{x1}" y="{_fmt(SIZE * (1 - MARGIN) + 16)}" font-size="12" '
        f'font-family="monospace" text-anchor="end">{scale.hi:g}</text>',
    ]


def render_diagrams(diagrams: list[PersistenceDiagram]) -> str:
    """Diagram plot: diagonal, each distinct proper point as one circle whose
    area grows with its multiplicity, essential births as upward rays headed by
    such a circle. Degrees are overlaid, one color each."""
    coords = [v for d in diagrams for p in d.points for v in (p.birth, p.death)]
    coords += [e.birth for d in diagrams for e in d.essential]
    coords = [v for v in coords if math.isfinite(v)]
    if coords:
        lo, hi = min(coords), max(coords)
        span = hi - lo  # taken in halves only where it overflows, as the midpoints are
        pad = span * 0.1 if math.isfinite(span) else (hi / 2 - lo / 2) * 0.2
        if pad:
            lo, hi = lo - pad, hi + pad
        else:  # one value, or a span whose tenth underflows
            lo, hi = step_past(lo, -math.inf), step_past(hi, math.inf)
        scale = _Scale(max(lo, -sys.float_info.max), min(hi, sys.float_info.max))
    else:
        scale = _Scale(0.0, 1.0)
    body = _frame(scale)
    top = SIZE * MARGIN
    for d in diagrams:
        color = _DEGREE_COLORS[d.dimension % len(_DEGREE_COLORS)]
        for e in d.essential:
            px = _fmt(scale.x(e.birth))
            body.append(
                f'<line x1="{px}" y1="{_fmt(scale.y(e.birth))}" x2="{px}" y2="{_fmt(top)}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            body.append(
                f'<circle cx="{px}" cy="{_fmt(top)}" r="{_fmt(3.0 * math.sqrt(e.multiplicity))}" '
                f'fill="{color}"/>'
            )
        for p in d.points:
            body.append(
                f'<circle cx="{_fmt(scale.x(p.birth))}" cy="{_fmt(scale.y(p.death))}" '
                f'r="{_fmt(4.0 * math.sqrt(p.multiplicity))}" fill="{color}" fill-opacity="0.75"/>'
            )
    return _document(body)


def render_extended_grid(coords: list[float], values: list[list[int]]) -> str:
    """Heatmap of an extended-PBN sample grid over both half-planes: values[i][j]
    at (coords[i], coords[j]), as serialize.grids_from_json returns a grid.

    Cell shade scales linearly from white (0) to a dark blue at the grid
    maximum; the diagonal is drawn on top.
    """
    if len(coords) < 2:
        raise ValueError("extended grid needs at least two sample coordinates")
    scale = _Scale(coords[0], coords[-1])
    vmax = max((v for row in values for v in row), default=0)
    bounds = [coords[0], *(midpoint(a, b) for a, b in zip(coords, coords[1:])), coords[-1]]
    xs = [scale.x(b) for b in bounds]
    ys = [scale.y(b) for b in bounds]
    body = []
    for i, row in enumerate(values):
        x0, x1 = xs[i], xs[i + 1]
        for j, val in enumerate(row):
            shade = 0.0 if vmax == 0 else val / vmax
            red = round(255 - 200 * shade)
            green = round(255 - 170 * shade)
            y0, y1 = ys[j + 1], ys[j]
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(y1 - y0)}" fill="rgb({red},{green},255)"/>'
            )
    body.extend(_frame(scale, fill="none"))
    return _document(body)
