"""Self-contained SVG 1.1 renderer for interval unions on number lines.

Rendering quantizes exact endpoints to pixels, so it is the one place
floats appear; every rect carries a tooltip with the exact rational
endpoints it depicts. A pixel x comes from one correctly rounded int
division of an endpoint by its union's scale, without a ``Fraction``.
``render`` draws a list of rows with the x -> pixel map ``layout`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from .intervals import IntervalUnion
from .serialization import format_rational

__all__ = ["PALETTE", "RenderRow", "UndrawableError", "layout", "render"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
)

WIDTH = 960
ROW_HEIGHT = 28
TOP_PAD = 34
BOTTOM_PAD = 14


@dataclass(frozen=True)
class RenderRow:
    label: str
    union: IntervalUnion
    color: str


class UndrawableError(ValueError):
    """An endpoint lies beyond the float range, or the chart is narrower than floats resolve."""


def layout(rows: list[RenderRow]) -> tuple[float, float]:
    """The map x -> x_offset + x_scale * x that spans the widest row over 90% of the canvas.

    Rows the map cannot place at finite pixels raise ``UndrawableError``.
    """
    if not rows:
        raise ValueError("nothing to draw")
    labels = [row.label for row in rows]
    if len(set(labels)) != len(labels):
        raise ValueError("row labels must be unique")
    spans = {row.label: row.union.bounds() for row in rows if not row.union.is_empty}
    if spans:
        xmin = min(lo for lo, _ in spans.values())
        xmax = max(hi for _, hi in spans.values())
    else:
        xmin, xmax = 0, 1
    if xmin == xmax:
        xmax = xmin + 1
    try:
        x_scale = 0.90 * WIDTH / float(xmax - xmin)
        x_offset = 0.05 * WIDTH - x_scale * float(xmin)
        drawable = math.isfinite(x_offset + x_scale * float(xmax))  # then so is every pixel
    except (OverflowError, ZeroDivisionError):
        drawable = False
    if not drawable:
        far = max(spans, key=lambda label: max(map(abs, spans[label])))
        raise UndrawableError(f"row {far!r} lies beyond the range or resolution of float pixels")
    return x_offset, x_scale


def render(rows: list[RenderRow], title: str = "interval sets") -> str:
    x_offset, x_scale = layout(rows)
    height = TOP_PAD + ROW_HEIGHT * len(rows) + BOTTOM_PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<title>{escape(title)}</title>',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="#333">{escape(title)}</text>',
    ]
    track_lo = 0.05 * WIDTH
    track_hi = 0.95 * WIDTH
    for idx, row in enumerate(rows):
        y = TOP_PAD + ROW_HEIGHT * idx + ROW_HEIGHT / 2
        out.append(f'<g class="row" data-label={quoteattr(row.label)}>')
        out.append(
            f'<line x1="{track_lo:.1f}" y1="{y:.1f}" x2="{track_hi:.1f}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="4" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="12" fill="#333">{escape(row.label)}</text>'
        )
        scale = row.union.scale
        for lo, hi in row.union.pairs:
            lo_px = x_offset + x_scale * (lo / scale)
            hi_px = x_offset + x_scale * (hi / scale)
            tip = escape(
                f"{row.label}: [{format_rational(lo, scale)}, {format_rational(hi, scale)}]"
            )
            if lo == hi:
                out.append(
                    f'<circle cx="{lo_px:.2f}" cy="{y:.1f}" r="2.5" fill="{row.color}">'
                    f"<title>{tip}</title></circle>"
                )
            else:
                out.append(
                    f'<rect x="{lo_px:.2f}" y="{y - 4:.1f}" width="{hi_px - lo_px:.2f}" '
                    f'height="8" rx="2" fill="{row.color}" fill-opacity="0.85">'
                    f"<title>{tip}</title></rect>"
                )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out)
