"""The x -> pixel map, its refusals, and the XML escapers."""

import re
from fractions import Fraction as F
from itertools import product
from xml.sax import saxutils

import pytest

from sumset_races import IntervalUnion
from sumset_races.intervals import SchemaError
from sumset_races.svg import (
    BOTTOM_PAD,
    ROW_HEIGHT,
    TOP_PAD,
    WIDTH,
    RenderRow,
    escape,
    layout,
    quoteattr,
    render,
)


def row(label, *pairs):
    return RenderRow(label=label, union=IntervalUnion(pairs), color="#000")


class TestLayout:
    def test_widest_row_spans_ninety_percent(self):
        xmin, x_scale = layout([row("A", (2, 3)), row("B", (4, 6))])
        assert xmin == 2
        assert x_scale * (6 - xmin) == pytest.approx(0.90 * WIDTH)

    def test_no_rows(self):
        with pytest.raises(ValueError, match="nothing to draw"):
            layout([])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            layout([row("A", (0, 1)), row("A", (2, 3))])

    def test_endpoint_beyond_float_range(self):
        with pytest.raises(SchemaError, match="row 'far'"):
            layout([row("near", (0, 1)), row("far", (0, 10**400))])

    def test_large_close_endpoints_do_not_cancel(self):
        # floats of 10**20 and 10**20 + 1/2 are equal; exact offsets from xmin are not
        big = 10**20
        doc = render([row("A", (big, big + F(1, 1000))), row("B", (big, big + F(1, 2)))])
        assert '<rect x="48.00" y="44.0" width="1.73"' in doc
        assert '<rect x="48.00" y="72.0" width="864.00"' in doc
        # so a narrow chart beyond the float range draws as well
        assert layout([row("far", (10**400, 10**400 + 1))]) == (10**400, 0.90 * WIDTH)

    def test_span_below_float_resolution(self):
        with pytest.raises(SchemaError, match="row 'thin'"):
            layout([row("empty"), row("thin", (0, F(1, 10**400)))])

    def test_empty_rows_span_zero_to_one(self):
        assert layout([row("A"), row("B")]) == (0, 864.0)
        doc = render([row("A"), row("B")])
        assert doc.count('<g class="row"') == 2

    def test_point_part_is_a_circle(self):
        doc = render([row("A1", (0, 1), (2, 2))])
        assert doc.count("<circle ") == 1
        assert "<title>A1: [2, 2]</title></circle>" in doc

    def test_render_takes_the_rows(self):
        doc = render([row("A", (0, 1)), row("B")], title="t")
        height = TOP_PAD + ROW_HEIGHT * 2 + BOTTOM_PAD
        assert f'width="{WIDTH}" height="{height}"' in doc.splitlines()[0]
        assert doc.count('<g class="row"') == 2


def test_tooltips_escape_the_whole_tip():
    label = "a&b<c>d"
    doc = render([row(label, (0, F(1, 2)), (1, 1))])
    tips = re.findall(r"<title>([^<]*)</title></(?:rect|circle)>", doc)
    assert tips == [saxutils.escape(f"{label}: [0, 1/2]"), saxutils.escape(f"{label}: [1, 1]")]


# every character the escapers treat specially, plus three they leave alone
ESCAPE_ALPHABET = ["a", "&", "<", ">", '"', "'", "\n", "\r", "\t", ";", " "]


def test_escapers_match_the_standard_library():
    texts = ["".join(t) for size in range(5) for t in product(ESCAPE_ALPHABET, repeat=size)]
    assert len(texts) == 16105
    assert [t for t in texts if escape(t) != saxutils.escape(t)] == []
    assert [t for t in texts if quoteattr(t) != saxutils.quoteattr(t)] == []
