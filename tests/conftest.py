"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from sumset_races import Interval, IntervalUnion, dense_rank, hfold_ints


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


def reference_search_race_sets(targets, ground: int, maxsize: int):
    """Reference race search: depth-first over every candidate at every node.

    Same candidates, order and first-in-product-order contract as
    ``search_race_sets``; each extended prefix is re-ranked column by column
    against the targets' prefixes, and subtree outcomes are memoized on the
    prefix of size profiles.
    """
    goal = [tuple(t) for t in targets]
    n, horizon = len(goal[0]), len(goal)
    candidates = [
        (0,) + rest
        for size in range(1, maxsize + 1)
        for rest in combinations(range(1, ground + 1), size - 1)
    ]
    profiles = [tuple(len(hfold_ints(c, h)) for h in range(1, horizon + 1)) for c in candidates]

    def consistent(prefix) -> bool:
        depth = len(prefix)
        return all(
            dense_rank([p[h] for p in prefix]) == dense_rank(t[:depth]) for h, t in enumerate(goal)
        )

    memo: dict = {}

    def first_suffix(prefix):
        if len(prefix) == n:
            return ()
        if prefix not in memo:
            memo[prefix] = None
            for idx, profile in enumerate(profiles):
                extended = prefix + (profile,)
                if consistent(extended):
                    suffix = first_suffix(extended)
                    if suffix is not None:
                        memo[prefix] = (idx,) + suffix
                        break
        return memo[prefix]

    witness = first_suffix(())
    return None if witness is None else tuple(candidates[i] for i in witness)


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
