"""The x -> pixel map and its refusals."""

from fractions import Fraction as F

import pytest

from sumset_races import IntervalUnion
from sumset_races.svg import (
    BOTTOM_PAD,
    ROW_HEIGHT,
    TOP_PAD,
    WIDTH,
    RenderRow,
    UndrawableError,
    layout,
    render,
)


def row(label, *pairs):
    return RenderRow(label=label, union=IntervalUnion(pairs), color="#000")


class TestLayout:
    def test_widest_row_spans_ninety_percent(self):
        x_offset, x_scale = layout([row("A", (2, 3)), row("B", (4, 6))])
        assert x_offset + x_scale * 2 == pytest.approx(0.05 * WIDTH)
        assert x_offset + x_scale * 6 == pytest.approx(0.95 * WIDTH)

    def test_no_rows(self):
        with pytest.raises(ValueError, match="nothing to draw"):
            layout([])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            layout([row("A", (0, 1)), row("A", (2, 3))])

    def test_endpoint_beyond_float_range(self):
        with pytest.raises(UndrawableError, match="row 'far'"):
            layout([row("near", (0, 1)), row("far", (0, 10**400))])

    def test_span_below_float_resolution(self):
        with pytest.raises(UndrawableError, match="row 'thin'"):
            layout([row("empty"), row("thin", (0, F(1, 10**400)))])

    def test_render_takes_the_rows(self):
        doc = render([row("A", (0, 1)), row("B")], title="t")
        height = TOP_PAD + ROW_HEIGHT * 2 + BOTTOM_PAD
        assert f'width="{WIDTH}" height="{height}"' in doc.splitlines()[0]
        assert doc.count('<g class="row"') == 2
