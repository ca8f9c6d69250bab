"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from hypothesis import strategies as st

from sumset_races import Interval, IntervalUnion, dense_rank, hfold_ints
from sumset_races.serialization import MAX_NUMERAL_DIGITS, SchemaError


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


@st.composite
def tied_unions(draw, min_parts: int = 20, max_parts: int = 60):
    """20-60 parts whose lengths and gap widths repeat, points included.

    Each union draws up to three lengths from {0, 1, 2, 3} and up to three
    gap widths from {1, 2, 3, 9}, over one denominator, so many parts
    share a length and many gaps a width: a Minkowski sum meets large
    groups of equal lengths, some thickened into a single piece, and the
    bisection over gap widths lands on runs of equal keys. The wide gaps
    keep a few folds from filling in.
    """
    den = draw(st.sampled_from([1, 2, 3, 7]))
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=3))
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 9]), min_size=1, max_size=3))
    cursor = draw(st.integers(-24, 24))
    pairs = []
    for _ in range(draw(st.integers(min_parts, max_parts))):
        length = draw(st.sampled_from(lengths))
        pairs.append((Fraction(cursor, den), Fraction(cursor + length, den)))
        cursor += length + draw(st.sampled_from(widths))
    return IntervalUnion(pairs)


@st.composite
def int_piece_soups(draw, max_pieces: int = 60):
    """Unsorted integer pieces (lo, hi) with repeated ends, points, and pieces
    that touch one another end to start."""
    pieces = []
    for _ in range(draw(st.integers(1, max_pieces))):
        lo = draw(st.integers(-12, 12))
        pieces.append((lo, lo + draw(st.sampled_from([0, 0, 1, 2, 5]))))
        if draw(st.booleans()):  # a neighbour starting where this one ends
            end = pieces[-1][1]
            pieces.append((end, end + draw(st.integers(0, 3))))
    return draw(st.permutations(pieces))


@st.composite
def interval_soups(draw, max_parts: int = 12):
    """Unsorted, overlapping, touching, nested and point intervals, mixed denominators."""
    pieces = draw(st.lists(intervals(max_denominator=12), max_size=max_parts))
    for part in draw(gappy_unions(min_parts=0, max_parts=8)).parts:
        pieces.append(part)
        if draw(st.booleans()):  # a neighbour that touches or overlaps it
            pieces.append(Interval(part.hi, part.hi + draw(rationals(0, 2, 6))))
    return draw(st.permutations(pieces))


# Reference kernels: the Fraction implementation that IntervalUnion had when
# unions were stored as tuples of Interval parts. Each takes and returns
# parts, so it shares no code with the integer representation it checks.


def reference_merge(items) -> tuple[Interval, ...]:
    """Sort and merge; touching parts ([0,1] and [1,2]) collapse into one."""
    parts = sorted(
        (iv if isinstance(iv, Interval) else Interval(*iv) for iv in items),
        key=lambda iv: (iv.lo, iv.hi),
    )
    merged: list[Interval] = []
    for iv in parts:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def reference_subtract(parts, gaps) -> tuple[Interval, ...]:
    """Remove the open interiors of ``gaps`` from the closed ``parts``."""
    if not parts or not gaps:
        return tuple(parts)
    pieces: list[Interval] = []
    for part in parts:
        cursor = part.lo
        for gap in gaps:
            if gap.hi <= cursor:
                continue
            if gap.lo > part.hi:
                break
            if gap.lo >= cursor:
                pieces.append(Interval(cursor, min(gap.lo, part.hi)))
            cursor = gap.hi
            if cursor > part.hi:
                break
        if cursor <= part.hi:
            pieces.append(Interval(cursor, part.hi))
    return reference_merge(pieces)


def reference_translate(parts, offset) -> tuple[Interval, ...]:
    return reference_merge(Interval(p.lo + offset, p.hi + offset) for p in parts)


def reference_dilate(parts, scale) -> tuple[Interval, ...]:
    if not parts:
        return ()
    if scale == 0:
        return (Interval(Fraction(0), Fraction(0)),)
    return reference_merge(
        Interval(min(p.lo * scale, p.hi * scale), max(p.lo * scale, p.hi * scale)) for p in parts
    )


def reference_measure(parts) -> Fraction:
    return sum((p.hi - p.lo for p in parts), Fraction(0))


def reference_grid_oracle(parts, step) -> tuple[Fraction, Fraction]:
    """``grid_measure_oracle`` counted on Fraction parts: (inner, outer) cell measure."""
    inner_cells = outer_cells = 0
    prev_touch_last = None
    for part in parts:
        if part.lo == part.hi:
            continue
        first_full, last_full = math.ceil(part.lo / step), math.floor(part.hi / step) - 1
        inner_cells += max(0, last_full - first_full + 1)
        first_touch, last_touch = math.floor(part.lo / step), math.ceil(part.hi / step) - 1
        if prev_touch_last is not None and first_touch <= prev_touch_last:
            first_touch = prev_touch_last + 1
        if last_touch >= first_touch:
            outer_cells += last_touch - first_touch + 1
            prev_touch_last = last_touch
    return step * inner_cells, step * outer_cells


def pairwise_sum(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Reference Minkowski sum: every pair of parts, merged by the constructor."""
    return IntervalUnion(Interval(p.lo + q.lo, p.hi + q.hi) for p in a.parts for q in b.parts)


def reference_hfold_ints(base, h: int) -> tuple[int, ...]:
    """Reference h-fold sumset: the sum of every multiset of h elements of ``base``."""
    return tuple(sorted({sum(c) for c in combinations_with_replacement(set(base), h)}))


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


_REFERENCE_NUMERAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def _reference_bounded(value: int, what: str) -> int:
    if abs(value) >= 10**MAX_NUMERAL_DIGITS:
        raise SchemaError(f"{what} has more than {MAX_NUMERAL_DIGITS} digits")
    return value


def _reference_ratio(obj) -> tuple[int, int]:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return _reference_bounded(obj, "an integer"), 1
    if isinstance(obj, str) and _REFERENCE_NUMERAL.fullmatch(obj):
        num, _, den = obj.partition("/")
        if max(len(num.lstrip("-")), len(den)) > MAX_NUMERAL_DIGITS:
            raise SchemaError(f"a rational has a numeral of more than {MAX_NUMERAL_DIGITS} digits")
        return int(num), int(den or 1)
    raise SchemaError(f"expected a rational 'p/q' string, got {obj!r}")


def reference_union_from_obj(obj) -> IntervalUnion:
    """Reference loader: ``union_from_obj`` as it was before the bulk parse.

    One pair at a time, each endpoint matched and split on its own and each
    pair's order checked by cross-multiplying; then the common denominator
    is bounded and the ends scaled. Same unions and same ``SchemaError``
    texts as the loader it checks, with none of its code.
    """
    if not isinstance(obj, list):
        raise SchemaError(f"expected a list of [lo, hi] pairs, got {obj!r}")
    nums, dens = [], []  # the endpoints in file order, lo then hi
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"expected an [lo, hi] pair, got {item!r}")
        (lo_num, lo_den), (hi_num, hi_den) = _reference_ratio(item[0]), _reference_ratio(item[1])
        if lo_num * hi_den > hi_num * lo_den:
            lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
            raise SchemaError(f"endpoints out of order: {lo} > {hi}")
        nums += (lo_num, hi_num)
        dens += (lo_den, hi_den)
    scale = 1
    for den in set(dens):
        scale = _reference_bounded(math.lcm(scale, den), "the common denominator of the endpoints")
    ends = [num * (scale // den) for num, den in zip(nums, dens)]
    return IntervalUnion._from_pairs(scale, list(zip(ends[::2], ends[1::2])))


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
