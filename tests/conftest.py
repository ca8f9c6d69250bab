"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from sumset_races import Interval, IntervalUnion


def rationals(lo: int = -8, hi: int = 8, max_denominator: int = 32):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_denominator)


@st.composite
def intervals(draw, lo: int = -8, hi: int = 8, max_width: int = 4, max_denominator: int = 32):
    start = draw(rationals(lo, hi, max_denominator))
    width = draw(rationals(0, max_width, max_denominator))
    return Interval(start, start + width)


@st.composite
def interval_unions(
    draw,
    min_parts: int = 0,
    max_parts: int = 6,
    lo: int = -8,
    hi: int = 8,
    max_denominator: int = 32,
):
    count = draw(st.integers(min_value=min_parts, max_value=max_parts))
    return IntervalUnion(
        [draw(intervals(lo=lo, hi=hi, max_denominator=max_denominator)) for _ in range(count)]
    )


@st.composite
def gappy_unions(draw, min_parts: int = 1, max_parts: int = 24):
    """Many parts, narrow gaps of varied widths, some points, mixed denominators.

    Part lengths and gap widths come from the same small range, so a
    Minkowski sum with another such union fills some gaps and leaves others.
    """
    denominators = st.sampled_from([1, 2, 3, 4, 6, 7, 8, 12])

    def width(lo: int, hi: int) -> Fraction:
        return Fraction(draw(st.integers(lo, hi)), draw(denominators))

    cursor = width(-24, 24)
    parts = []
    for _ in range(draw(st.integers(min_parts, max_parts))):
        length = draw(st.sampled_from([Fraction(0), width(1, 8)]))  # a point or a segment
        parts.append(Interval(cursor, cursor + length))
        cursor += length + width(1, 8)
    return IntervalUnion(parts)


def pairwise_sum(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Reference Minkowski sum: every pair of parts, merged by the constructor."""
    return IntervalUnion(Interval(p.lo + q.lo, p.hi + q.hi) for p in a.parts for q in b.parts)


def assert_canonical(union: IntervalUnion) -> None:
    """Canonical form: sorted parts, strictly separated, endpoints ordered."""
    for part in union.parts:
        assert part.lo <= part.hi
    for left, right in zip(union.parts, union.parts[1:]):
        assert left.hi < right.lo


def brute_measure(union: IntervalUnion) -> Fraction:
    """Sum part lengths directly, bypassing measure()."""
    total = Fraction(0)
    for part in union.parts:
        total += part.hi - part.lo
    return total
