"""Self-contained SVG 1.1 renderer for interval unions on number lines.

Rendering quantizes exact endpoints to pixels, so it is the one place
floats appear; every rect carries a tooltip with the exact rational
endpoints it depicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape, quoteattr

from .intervals import IntervalUnion

__all__ = ["PALETTE", "RenderRow", "RenderSpec", "layout", "render"]

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

ROW_HEIGHT = 28
TOP_PAD = 34
BOTTOM_PAD = 14


@dataclass(frozen=True)
class RenderRow:
    label: str
    union: IntervalUnion
    color: str


@dataclass(frozen=True)
class RenderSpec:
    """Rows plus the affine x -> pixel map; the widest row spans 90% of the canvas."""

    width: int
    height: int
    rows: tuple[RenderRow, ...]
    x_offset: float
    x_scale: float

    def to_px(self, x) -> float:
        return self.x_offset + self.x_scale * float(x)


def layout(rows: list[RenderRow], width: int = 960) -> RenderSpec:
    if not rows:
        raise ValueError("nothing to draw")
    labels = [row.label for row in rows]
    if len(set(labels)) != len(labels):
        raise ValueError("row labels must be unique")
    spans = [row.union.bounds() for row in rows if not row.union.is_empty]
    if spans:
        xmin = min(lo for lo, _ in spans)
        xmax = max(hi for _, hi in spans)
    else:
        xmin, xmax = 0, 1
    if xmin == xmax:
        xmax = xmin + 1
    x_scale = 0.90 * width / float(xmax - xmin)
    x_offset = 0.05 * width - x_scale * float(xmin)
    height = TOP_PAD + ROW_HEIGHT * len(rows) + BOTTOM_PAD
    return RenderSpec(
        width=width, height=height, rows=tuple(rows), x_offset=x_offset, x_scale=x_scale
    )


def render(spec: RenderSpec, title: str = "interval sets") -> str:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<title>{escape(title)}</title>',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>',
        f'<text x="{spec.width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="#333">{escape(title)}</text>',
    ]
    track_lo = 0.05 * spec.width
    track_hi = 0.95 * spec.width
    for idx, row in enumerate(spec.rows):
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
        for lo_end, hi_end in row.union.pairs:
            lo, hi = Fraction(lo_end, scale), Fraction(hi_end, scale)
            lo_px = spec.to_px(lo)
            hi_px = spec.to_px(hi)
            tip = escape(f"{row.label}: [{lo}, {hi}]")
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
