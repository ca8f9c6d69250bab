"""Interval union core: canonical form, exact measure, sums, and the grid oracle."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_canonical,
    brute_measure,
    gappy_unions,
    interval_soups,
    int_piece_soups,
    interval_unions,
    pairwise_sum,
    rationals,
    reference_dilate,
    reference_grid_oracle,
    reference_measure,
    reference_merge,
    reference_subtract,
    reference_translate,
    tied_unions,
)
from sumset_races import Interval, IntervalUnion, grid_measure_oracle, intervals
from sumset_races.intervals import _int_sum, _merged, _Thickenings


def U(*pairs):
    return IntervalUnion(pairs)


class TestCanonicalization:
    def test_touching_parts_merge(self):
        assert U((0, 1), (1, 2)) == U((0, 2))

    def test_parts_sort_by_left_endpoint(self):
        assert U((2, 3), (0, 1)).parts == (Interval(0, 1), Interval(2, 3))

    def test_overlap_merges_and_points_survive(self):
        assert U((0, 2), (1, 3), (5, 5)) == U((0, 3), (5, 5))

    def test_idempotent(self):
        u = U((0, 2), (1, 3), (5, 5))
        assert IntervalUnion(u.parts) == u

    def test_empty(self):
        assert IntervalUnion().parts == ()
        assert IntervalUnion().is_empty

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    @pytest.mark.parametrize("item", [(0, 1, 2), (0,), ()])
    def test_union_rejects_a_part_of_the_wrong_length(self, item):
        with pytest.raises(ValueError, match="values to unpack"):
            IntervalUnion([(0, 1), item])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Interval(0.5, 1)


class TestMeasure:
    def test_empty_is_zero(self):
        assert IntervalUnion().measure() == 0

    def test_two_block_filler(self):
        # [0, 3/4] u [2, 11/4] has measure 3/4 + 3/4
        assert U((0, F(3, 4)), (2, F(11, 4))).measure() == F(3, 2)

    def test_carved_block_value(self):
        # direct length sum: (11/8 - 5/4) + (3/2 - 45/32) = 1/8 + 3/32
        u = U((F(5, 4), F(11, 8)), (F(45, 32), F(3, 2)))
        assert u.measure() == F(7, 32)

    def test_points_contribute_nothing(self):
        assert U((1, 1), (2, 2)).measure() == 0


class TestMinkowskiSum:
    def test_unit_plus_unit(self):
        assert U((0, 1)) + U((0, 1)) == U((0, 2))

    def test_two_fold_filler_decomposition(self):
        x = U((0, F(3, 4)), (2, F(11, 4)))
        expected = U((0, F(3, 2)), (2, F(7, 2)), (4, F(11, 2)))
        assert x + x == expected

    def test_point_at_origin_is_identity(self):
        a = U((0, 1), (3, F(7, 2)))
        assert a + U((0, 0)) == a

    def test_empty_annihilates(self):
        assert (U((0, 1)) + IntervalUnion()).is_empty
        assert (IntervalUnion() + U((0, 1))).is_empty

    def test_known_shift(self):
        assert U((1, 2)) + U((10, 10)) == U((11, 12))

    def test_sum_with_a_non_union_is_a_type_error(self):
        with pytest.raises(TypeError):
            IntervalUnion() + 1


class TestHfold:
    def test_single_fold_is_identity(self):
        a = U((0, 1), (5, 6))
        assert a.hfold(1) == a

    def test_interval_folds_scale(self):
        assert U((0, 1)).hfold(4) == U((0, 4))

    def test_filler_three_fold_collapses(self):
        # iterating the sum and the closed form 3*(3 - 1/4) must agree
        x = U((0, F(3, 4)), (2, F(11, 4)))
        folded = (x + x) + x
        assert x.hfold(3) == folded == U((0, F(33, 4)))
        assert folded == U((0, 3 * (3 - F(1, 4))))

    @pytest.mark.parametrize("bad", [0, -1, F(1, 2), True, 1.0])
    def test_rejects_bad_fold_counts(self, bad):
        with pytest.raises((ValueError, TypeError)):
            U((0, 1)).hfold(bad)

    @pytest.mark.parametrize("bad", [0, -1, F(1, 2), True, 1.0])
    def test_folds_rejects_bad_count_when_called(self, bad):
        # raised by the call itself, before any fold is read
        with pytest.raises((ValueError, TypeError)):
            U((0, 1)).folds(bad)
        with pytest.raises((ValueError, TypeError)):
            U((0, 1)).fold_measures(bad)

    def test_fold_measures_of_the_filler(self):
        x = U((0, F(3, 4)), (2, F(11, 4)))
        assert x.fold_measures(3) == [F(3, 2), (x + x).measure(), F(33, 4)]

    def test_fold_measures_measure_each_rung_before_making_the_next(self, monkeypatch):
        log = []
        int_sum, total_length = intervals._int_sum, intervals._total_length

        def summed(a, thickened):
            log.append("sum")
            return int_sum(a, thickened)

        def measured(pairs):
            log.append("measure")
            return total_length(pairs)

        monkeypatch.setattr(intervals, "_int_sum", summed)
        monkeypatch.setattr(intervals, "_total_length", measured)
        x = U((0, F(3, 4)), (2, F(11, 4)))
        assert x.fold_measures(4) == [F(3, 2), F(9, 2), F(33, 4), 11]
        assert log == ["measure", "sum"] * 3 + ["measure"]

    def test_folds_of_the_empty_union(self):
        assert IntervalUnion().folds(3) == [IntervalUnion()] * 3
        assert IntervalUnion().fold_measures(3) == [0, 0, 0]

    def test_hfold_adds_per_rung_and_folds_share_one_integer_ladder(self, monkeypatch):
        # the benchmark's tracer counts hfold's fold work on IntervalUnion.__add__
        x = U((0, F(3, 4)), (2, F(11, 4)))
        expected = [x, x + x, x.hfold(3), x.hfold(4)]
        calls = Counter()

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr(IntervalUnion, "__add__", counted("add", IntervalUnion.__add__))
        assert x.hfold(3) == U((0, F(33, 4)))
        assert calls == {"add": 2}
        calls.clear()
        built = []  # (parts, the _Thickenings made of them)
        received = []  # the _Thickenings each _int_sum call is given
        thickenings, int_sum = intervals._Thickenings, intervals._int_sum

        def build(parts):
            built.append((tuple(parts), thickenings(parts)))
            return built[-1][1]

        def summed(a, thickened):
            received.append(thickened)
            return int_sum(a, thickened)

        monkeypatch.setattr(intervals, "_Thickenings", build)
        monkeypatch.setattr(intervals, "_int_sum", summed)
        assert x.folds(4) == expected
        assert not calls  # no __add__
        # rung 2 is one group larger than its k and builds its own _Thickenings,
        # but every rung is summed with the one _Thickenings of x
        assert len(received) == 3
        assert all(thickened is received[0] for thickened in received)
        ladder = [made for parts, made in built if parts == x.pairs]
        assert len(ladder) == 1 and ladder[0] is received[0]


class TestDilateTranslate:
    def test_dilate_scales_endpoints(self):
        assert U((1, 2), (4, 5)).dilate(2) == U((2, 4), (8, 10))

    def test_dilate_negative_reflects(self):
        assert U((1, 2), (4, 5)).dilate(-1) == U((-5, -4), (-2, -1))

    def test_dilate_zero_collapses_to_origin(self):
        assert U((1, 2)).dilate(0) == U((0, 0))
        assert U((1, 2), (4, 5)).dilate(0) == U((0, 0))
        for scale in (0, -2, F(3, 2)):
            assert IntervalUnion().dilate(scale) == IntervalUnion()

    # a shift is the sum with a point
    def test_translate(self):
        assert U((0, 1)) + U((F(5, 2), F(5, 2))) == U((F(5, 2), F(7, 2)))

    def test_translate_empty(self):
        assert (IntervalUnion() + U((3, 3))).is_empty

    def test_translate_refuses_a_float(self):
        with pytest.raises(TypeError, match="exact rational required, got float"):
            U((0, 1)) + U((0.5, 0.5))


class TestSubtract:
    def test_open_gap_keeps_endpoints(self):
        assert U((0, 1)).subtract(U((F(1, 4), F(1, 2)))) == U((0, F(1, 4)), (F(1, 2), 1))

    def test_carving_a_block(self):
        block = U((F(5, 4), F(3, 2)))
        gap = U((F(11, 8), F(45, 32)))
        assert block.subtract(gap) == U((F(5, 4), F(11, 8)), (F(45, 32), F(3, 2)))

    def test_nothing_removed_by_empty(self):
        a = U((0, 1), (2, 3))
        assert a.subtract(IntervalUnion()) == a

    def test_subtract_from_empty(self):
        assert IntervalUnion().subtract(U((0, 1))).is_empty
        assert IntervalUnion().subtract(IntervalUnion()) == IntervalUnion()

    def test_full_open_cover_leaves_the_endpoints(self):
        assert U((0, 1)).subtract(U((0, 1))) == U((0, 0), (1, 1))

    def test_point_subtrahend_removes_nothing(self):
        a = U((0, 1))
        assert a.subtract(U((F(1, 2), F(1, 2)))) == a

    def test_gap_straddling_part_edge(self):
        assert U((0, 1), (2, 3)).subtract(U((F(1, 2), F(5, 2)))) == U(
            (0, F(1, 2)), (F(5, 2), 3)
        )


class TestMembership:
    def test_contains(self):
        u = U((0, 1), (2, 3))
        assert F(1, 2) in u
        assert 2 in u
        assert F(3, 2) not in u

    def test_bulk_membership_survives_canonicalization(self):
        # compare against the raw soup on over a thousand sampled points
        rng = random.Random(987)
        checked = 0
        while checked < 1000:
            soup = []
            for _ in range(rng.randint(0, 8)):
                lo = F(rng.randint(-96, 96), 16)
                soup.append(Interval(lo, lo + F(rng.randint(0, 48), 16)))
            u = IntervalUnion(soup)
            assert_canonical(u)
            for _ in range(40):
                x = F(rng.randint(-128, 128), 32)
                raw = any(iv.lo <= x <= iv.hi for iv in soup)
                assert (x in u) == raw
                checked += 1


class TestGridOracle:
    def test_unit_interval_exact_grid(self):
        assert grid_measure_oracle(U((0, 1)), F(1, 4)) == (1, 1)

    def test_partial_last_cell(self):
        # cells [0,1/4], [1/4,1/2], [1/2,3/4] are inside; [3/4,1] only touches
        assert grid_measure_oracle(U((0, F(7, 8))), F(1, 4)) == (F(3, 4), 1)

    def test_empty(self):
        assert grid_measure_oracle(IntervalUnion(), F(1, 4)) == (0, 0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grid_measure_oracle(U((0, 1)), 0)
        with pytest.raises(ValueError):
            grid_measure_oracle(U((0, 1)), F(-1, 4))

    def test_point_parts_are_ignored(self):
        assert grid_measure_oracle(U((F(1, 3), F(1, 3))), F(1, 4)) == (0, 0)

    def test_shared_boundary_cell_not_double_counted(self):
        # both parts meet the cell [1/4, 1/2]; the outer count sees it once,
        # else outer would exceed the length of the hull
        inner, outer = grid_measure_oracle(U((0, F(3, 8)), (F(7, 16), 1)), F(1, 4))
        assert inner == F(3, 4)
        assert outer == 1


# ---------------------------------------------------------------- properties


@given(interval_unions())
def test_prop_canonical_form_and_idempotence(u):
    assert_canonical(u)
    assert IntervalUnion(u.parts) == u


@given(interval_unions(), st.lists(rationals(-10, 10, 64), min_size=1, max_size=20))
def test_prop_membership_matches_raw_parts(u, points):
    for x in points:
        assert (x in u) == any(p.lo <= x <= p.hi for p in u.parts)


@given(interval_unions(), interval_unions())
def test_prop_measure_additive_for_separated_unions(a, b):
    # push b strictly to the right of a so the two cannot interact
    if not a.is_empty and not b.is_empty:
        shift = a.bounds()[1] - b.bounds()[0] + 1
        b = b + U((shift, shift))
    combined = IntervalUnion([*a.parts, *b.parts])
    assert combined.measure() == a.measure() + b.measure()


@given(interval_unions(), rationals(-6, 6, 16))
def test_prop_dilation_scales_measure(u, scale):
    assert u.dilate(scale).measure() == abs(scale) * u.measure()


@given(interval_unions(), rationals(-6, 6, 16))
def test_prop_translation_preserves_measure_and_inverts(u, offset):
    moved = u + U((offset, offset))
    assert moved.measure() == u.measure()
    assert moved + U((-offset, -offset)) == u


@given(interval_unions(max_parts=4), interval_unions(max_parts=4))
def test_prop_minkowski_commutes(a, b):
    assert a + b == b + a


any_unions = st.one_of(interval_unions(max_parts=6), gappy_unions())


@given(any_unions, any_unions)
# a shift is the sum with a point, so single-point operands are pinned here
@example(U((0, 1), (3, 5)), U((2, 2)))
@example(U((0, F(1, 3)), (F(5, 2), 4)), U((F(7, 6), F(7, 6))))
@example(U((F(-1, 2), 0), (1, 1)), U((-3, -3)))
@example(IntervalUnion(), U((F(5, 2), F(5, 2))))
def test_prop_minkowski_sum_matches_pairwise_reference(a, b):
    # __add__ thickens one operand by the part lengths of the other; the
    # reference merges every Fraction part sum through the constructor
    reference = pairwise_sum(a, b)
    assert a + b == reference
    assert b + a == reference


@given(any_unions)
def test_prop_measure_matches_part_length_sum(u):
    assert u.measure() == brute_measure(u)


def assert_exact_parts(union):
    """Every part of ``union`` has ordered, lowest-terms ``Fraction`` ends, and the
    parts are canonical."""
    for part in union.parts:
        for end in (part.lo, part.hi):
            assert type(end) is F
            assert end.denominator > 0 and math.gcd(end.numerator, end.denominator) == 1
    assert_canonical(union)


@settings(max_examples=60, deadline=None)
@given(st.one_of(gappy_unions(max_parts=12), tied_unions(max_parts=40)), st.integers(1, 4))
# part lengths 1 and 2 both leave all four gaps (widths 3 and 9) open: one group, k = 5
@example(U((0, 1), (4, 6), (9, 10), (19, 21), (24, 25)), 4)
def test_prop_folds_match_hfold_and_iterated_pairwise_sums(u, H):
    # folds climbs the integer ladder and hfold adds with +: two routes to each rung
    ladder = u.folds(H)
    assert ladder == [u.hfold(h) for h in range(1, H + 1)]
    reference = [u]
    for _ in range(H - 1):
        reference.append(pairwise_sum(reference[-1], u))
    assert ladder == reference
    assert u.fold_measures(H) == [fold.measure() for fold in reference]
    for fold in ladder:
        assert_exact_parts(fold)


scales = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2), F(-3)]),
    rationals(-6, 6, 16),
)


@given(st.one_of(interval_unions(), gappy_unions()), scales)
def test_prop_translate_and_dilate_match_merged_fraction_maps(u, t):
    # a shift (the sum with a point) and dilate map the integer endpoints straight
    # through; the reference maps every Fraction part and merges through the constructor
    moved = u + U((t, t))
    assert moved == IntervalUnion(Interval(p.lo + t, p.hi + t) for p in u.parts)
    assert_exact_parts(moved)
    scaled = u.dilate(t)
    assert scaled == IntervalUnion(
        Interval(min(p.lo * t, p.hi * t), max(p.lo * t, p.hi * t)) for p in u.parts
    )
    assert_exact_parts(scaled)


@settings(max_examples=50)
@given(
    interval_unions(max_parts=3),
    interval_unions(max_parts=3),
    interval_unions(max_parts=3),
)
def test_prop_minkowski_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=50)
@given(interval_unions(max_parts=3), st.integers(1, 3), st.integers(1, 3))
def test_prop_hfold_splits_additively(u, h1, h2):
    assert u.hfold(h1 + h2) == u.hfold(h1) + u.hfold(h2)


@given(interval_unions(min_parts=1, max_parts=4), interval_unions(min_parts=1, max_parts=4))
def test_prop_minkowski_superadditive_measure(a, b):
    assert (a + b).measure() >= a.measure() + b.measure()


@given(interval_unions(), rationals(0, 2, 64))
def test_prop_grid_oracle_brackets_measure(u, step):
    if step == 0:
        step = F(1, 64)
    inner, outer = grid_measure_oracle(u, step)
    exact = brute_measure(u)
    assert inner <= exact <= outer
    assert outer - inner <= 2 * step * len(u.parts)


@given(interval_unions(), interval_unions())
def test_prop_subtract_then_measure_never_grows(a, b):
    diff = a.subtract(b)
    assert_canonical(diff)
    assert diff.measure() <= a.measure()
    # removed interiors, so adding the closed parts back restores the set
    assert IntervalUnion([*diff.parts, *(b.parts)]).measure() >= a.measure()


# ------------------------------------- differential against the Fraction kernels


@settings(max_examples=50)
@given(interval_soups())
def test_prop_construction_matches_reference_merge(soup):
    u = IntervalUnion(soup)
    assert u.parts == reference_merge(soup)
    assert_exact_parts(u)
    # the stored form: integer pairs over the least common denominator
    assert u.scale == math.lcm(*(end.denominator for p in u.parts for end in (p.lo, p.hi)))
    assert u.pairs == tuple((p.lo * u.scale, p.hi * u.scale) for p in u.parts)


@settings(max_examples=50)
@given(interval_soups(), interval_soups())
def test_prop_equality_and_hash_follow_the_point_set(s1, s2):
    a, b = IntervalUnion(s1), IntervalUnion(s2)
    assert (a == b) == (reference_merge(s1) == reference_merge(s2))
    # the same point set from a different soup: its reference parts, reversed
    again = IntervalUnion(reversed(reference_merge(s1)))
    assert again == a and hash(again) == hash(a)
    assert a != reference_merge(s1)  # a union is not a tuple of parts


@given(any_unions, any_unions)
def test_prop_sum_matches_reference_merge_of_part_pairs(a, b):
    pairs = [Interval(p.lo + q.lo, p.hi + q.hi) for p in a.parts for q in b.parts]
    assert (a + b).parts == reference_merge(pairs)
    assert_exact_parts(a + b)


@settings(max_examples=50)
@given(st.one_of(any_unions, interval_soups().map(IntervalUnion)), any_unions)
def test_prop_subtract_matches_reference(a, b):
    diff = a.subtract(b)
    assert diff.parts == reference_subtract(a.parts, b.parts)
    assert_exact_parts(diff)


@given(any_unions, scales)
def test_prop_translate_dilate_measure_match_reference(u, t):
    assert (u + U((t, t))).parts == reference_translate(u.parts, t)
    assert u.dilate(t).parts == reference_dilate(u.parts, t)
    assert u.measure() == reference_measure(u.parts)


@settings(max_examples=50)
@given(gappy_unions(max_parts=12), st.integers(1, 4))
def test_prop_fold_measures_match_reference_ladder(u, H):
    fold = u.parts
    expected = [reference_measure(fold)]
    for _ in range(H - 1):
        fold = reference_merge(Interval(p.lo + q.lo, p.hi + q.hi) for p in fold for q in u.parts)
        expected.append(reference_measure(fold))
    assert u.fold_measures(H) == expected


@settings(max_examples=50)
@given(interval_soups(), st.lists(rationals(-30, 30, 24), max_size=20))
def test_prop_bounds_and_membership_match_reference(soup, points):
    u, parts = IntervalUnion(soup), reference_merge(soup)
    assert u.bounds() == (None if not parts else (parts[0].lo, parts[-1].hi))
    ends = [end for p in soup for end in (p.lo, p.hi)]
    for x in [*points, *ends]:
        assert (x in u) == any(p.lo <= x <= p.hi for p in parts)


@given(st.one_of(any_unions, interval_soups().map(IntervalUnion)), rationals(0, 3, 48))
def test_prop_grid_oracle_matches_reference(u, step):
    step = step or F(1, 48)
    assert grid_measure_oracle(u, step) == reference_grid_oracle(u.parts, step)


# ------------------------- the merge and the grouped sum, on tied and touching input


@given(int_piece_soups())
def test_prop_start_end_merge_matches_reference_merge(pieces):
    # _merged sorts starts and ends apart; the reference sorts whole parts
    merged = _merged([lo for lo, _ in pieces], [hi for _, hi in pieces])
    assert merged == [(int(p.lo), int(p.hi)) for p in reference_merge(pieces)]


def test_start_end_merge_joins_touching_pieces_and_keeps_points_apart():
    assert _merged([3, 0, 1], [4, 1, 3]) == [(0, 4)]
    assert _merged([5, 0, 2, 2], [5, 1, 2, 2]) == [(0, 1), (2, 2), (5, 5)]
    assert _merged([0, 0], [0, 0]) == [(0, 0)]
    assert _merged([], []) == []


# 40 unit parts with gaps of 1 and 7: thickening by 1 leaves 20 pieces for 40
# shifts, so the sum loops over the thickening's pieces rather than the shifts
ONE_LENGTH = IntervalUnion((10 * k, 10 * k + 1) for k in range(20)) + U((0, 0), (2, 2))
# gaps of widths 2 and 6: six parts of length 3 leave one gap open (6 shifts,
# 2 pieces) and a point leaves both (1 shift, 3 pieces)
TWO_BRACKETS = (
    IntervalUnion([*((5 * k, 5 * k + 3) for k in range(6)), (40, 40)]),
    U((0, 1), (3, 4), (10, 11)),
)


@settings(max_examples=40, deadline=None)
@given(tied_unions(), st.one_of(tied_unions(), gappy_unions()))
@example(ONE_LENGTH, ONE_LENGTH)
@example(ONE_LENGTH, IntervalUnion((k, k + F(1, 2)) for k in range(0, 30, 3)))
# a part length equal to a gap width: the gap fills, its two pieces touch
@example(U((0, 2), (7, 9)), U((0, 1), (3, 4)))
# lengths 2 and 3 both fall between the gap widths 1 and 5: one merged group
@example(U((0, 2), (10, 13)), U((0, 1), (2, 3), (8, 9)))
# a one-part b has no gaps: every length takes its one piece
@example(U((0, 1), (3, 3), (5, F(13, 2))), U((0, F(1, 2))))
# point parts in a (L = 0) leave every gap of b open
@example(U((0, 0), (4, 4), (6, 7)), U((0, 1), (2, 3), (F(7, 2), 5)))
@example(*TWO_BRACKETS)
# an empty operand on either side: no pieces, and the sum is empty
@example(U((0, 1), (3, 4)), IntervalUnion())
@example(IntervalUnion(), U((0, 1), (3, 4)))
# four parts, k = 2: the group's gaps of 2 equal the width of b's coarse part
# [0, 2], so its copies touch and merge, and stay open in the coarse part [10, 11]
@example(U((0, 1), (3, 4), (6, 7), (9, 10)), U((0, 1), (2, 2), (10, 11)))
# the point 20 of b lies between gaps of 17 and 20: a coarse part of width 0
# keeps every gap of the five-part group open, those of width 3 close them
@example(U((0, 1), (3, 4), (6, 7), (9, 10), (12, 13)), U((0, 3), (20, 20), (40, 43)))
# lengths 1 and 2 alternate in position and both leave b's two gaps open (k = 3):
# one group, whose gaps of 1 close and gaps of 3 stay open in each coarse part
@example(U((0, 1), (2, 4), (7, 8), (9, 11), (14, 15), (16, 18)), U((0, 1), (4, 5), (20, 21)))
# length-1 parts leave both gaps of b open (k = 3): a group of exactly k parts
# takes one shift per part, a group of k + 1 one shift per coarse part of b
@example(U((0, 1), (3, 4), (6, 7)), U((0, 1), (3, 4), (10, 11)))
@example(U((0, 1), (3, 4), (6, 7), (9, 10)), U((0, 1), (3, 4), (10, 11)))
# b a single point, the shape a shift takes: every part of a forms one group
# (k = 1), whose one coarse part has width 0 and keeps all its gaps open
@example(U((0, 1), (3, 3), (5, F(13, 2))), U((F(5, 2), F(5, 2))))
def test_prop_grouped_sum_matches_pairwise_reference(a, b):
    reference = pairwise_sum(a, b)
    assert a + b == reference
    # a shared _Thickenings of b, reused by a second sum, gives the same pairs
    scale = math.lcm(a.scale, b.scale)
    a_pairs = [(lo * (scale // a.scale), hi * (scale // a.scale)) for lo, hi in a.pairs]
    b_pairs = [(lo * (scale // b.scale), hi * (scale // b.scale)) for lo, hi in b.pairs]
    shared = _Thickenings(b_pairs)
    for _ in range(2):
        assert IntervalUnion._from_pairs(scale, _int_sum(a_pairs, shared)) == reference


def test_a_group_larger_than_k_is_summed_once_per_coarse_part(monkeypatch):
    # 30 parts of length 2 leave b's two gaps of 100 open (k = 3); their gaps of 1
    # close in each of b's coarse parts [0, 5], [105, 108] and [208, 209], so the
    # group makes one piece per coarse part rather than one per part and piece
    pieces = []
    merged = intervals._merged

    def counted(starts, ends):
        pieces.append(len(starts))
        return merged(starts, ends)

    monkeypatch.setattr(intervals, "_merged", counted)
    a = [(3 * i, 3 * i + 2) for i in range(30)]
    b = [(0, 1), (2, 3), (4, 5), (105, 106), (107, 108), (208, 209)]
    assert _int_sum(a, _Thickenings(b)) == [(0, 94), (105, 197), (208, 298)]
    assert pieces == [3]


# the first set of build_sets(DiffMatrix([[-3, -3, -2, 1]]), 1): on every rung
# of its ladder the parts at its teeth form a group larger than their k
TEETH = U(
    (0, 1), (1027, 1219), (1347, 1355), (1358, 1363), (1366, 1371), (1374, 1379), (1382, 1411), (1539, 1731)
)


@settings(max_examples=20, deadline=None)
@given(tied_unions(max_parts=40), st.integers(2, 6))
@example(TEETH, 4)
@example(U((0, 1), (2, 3), (5, 5)), 4)  # the part lengths 1 and 0 against gaps of widths 1 and 2
@example(TWO_BRACKETS[0], 3)
@example(U((0, F(1, 3))), 3)
def test_prop_fold_measures_with_shared_thickenings_match_iterated_pairwise_sums(u, H):
    reference = [u]
    for _ in range(H - 1):
        reference.append(pairwise_sum(reference[-1], u))
    assert u.fold_measures(H) == [fold.measure() for fold in reference]
    # the same ladder on integer pairs, with A's thickenings shared by every rung
    shared = _Thickenings(u.pairs)
    ladder = [u.pairs]
    for _ in range(H - 1):
        ladder.append(_int_sum(ladder[-1], shared))
    assert [IntervalUnion._from_pairs(u.scale, pairs) for pairs in ladder] == reference


def test_thickenings_of_the_empty_union_are_three_empty_lists():
    empty = _Thickenings(())
    assert (empty.neg_widths, empty.starts, empty.ends) == ([], [], [])
