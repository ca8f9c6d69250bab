"""Self-contained SVG 1.1 renderer for interval unions on number lines.

Rendering quantizes exact endpoints to pixels, so it is the one place
floats appear; every rect carries a tooltip with the exact rational
endpoints it depicts. A pixel comes from one correctly rounded int
division of an endpoint's exact offset from the chart's left end, so large
endpoints close together do not cancel, and svg.py makes no ``Fraction``.
``render`` draws a list of rows with the x -> pixel map ``layout`` gives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .intervals import IntervalUnion, Rational, SchemaError
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


class RenderRow(NamedTuple):
    label: str
    union: IntervalUnion
    color: str


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, without the modules that importing it loads."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr``: escape, encode newline, CR and tab, then quote."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


class UndrawableError(SchemaError):
    """The chart is wider than the float range, or narrower than floats resolve."""


def layout(rows: list[RenderRow]) -> tuple[Rational, float]:
    """The map x -> 0.05 * WIDTH + x_scale * (x - xmin), as (xmin, x_scale).

    It spans the widest row over 90% of the canvas; xmin is exact. Rows the
    map cannot place at finite pixels raise ``UndrawableError``.
    """
    if not rows:
        raise ValueError("nothing to draw")
    labels = [row.label for row in rows]
    if len(set(labels)) != len(labels):
        raise ValueError("row labels must be unique")
    spans = {row.label: row.union.bounds() for row in rows if not row.union.is_empty}
    xmin = min((lo for lo, _ in spans.values()), default=0)
    xmax = max((hi for _, hi in spans.values()), default=0)
    if xmin == xmax:
        xmax = xmin + 1
    try:
        # every offset x - xmin lies in [0, xmax - xmin], so its pixel is finite too
        x_scale = 0.90 * WIDTH / float(xmax - xmin)
        drawable = math.isfinite(x_scale)
    except (OverflowError, ZeroDivisionError):
        drawable = False
    if not drawable:
        far = max(spans, key=lambda label: max(map(abs, spans[label])))
        raise UndrawableError(f"row {far!r} lies beyond the range or resolution of float pixels")
    return xmin, x_scale


def render(rows: list[RenderRow], title: str = "interval sets") -> str:
    xmin, x_scale = layout(rows)
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
    on, od = xmin.numerator, xmin.denominator
    track_hi = 0.95 * WIDTH
    for idx, row in enumerate(rows):
        y = TOP_PAD + ROW_HEIGHT * idx + ROW_HEIGHT / 2
        out.append(f'<g class="row" data-label={quoteattr(row.label)}>')
        out.append(
            f'<line x1="{track_lo:.1f}" y1="{y:.1f}" x2="{track_hi:.1f}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        # format_rational writes only "-", digits and "/", which escape leaves
        # alone, so the label is escaped once for the row and not per tooltip
        label = escape(row.label)
        out.append(
            f'<text x="4" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="12" fill="#333">{label}</text>'
        )
        # x - xmin = (x * od - on * scale) / (scale * od) for x = lo / scale, xmin = on / od
        scale = row.union.scale
        left, den = on * scale, scale * od
        for lo, hi in row.union.pairs:
            lo_px = track_lo + x_scale * ((lo * od - left) / den)
            hi_px = track_lo + x_scale * ((hi * od - left) / den)
            tip = f"{label}: [{format_rational(lo, scale)}, {format_rational(hi, scale)}]"
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
