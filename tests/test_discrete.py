"""Integer sumsets, rank patterns, and the exhaustive race search."""

from __future__ import annotations

import json
import sys
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_races import dense_rank, hfold_ints, is_rank_tuple, search_race_sets
from sumset_races.discrete import (
    _GOLOMB_LENGTHS,
    MAX_RACE_CANDIDATES,
    _profile_capacity,
    _profile_table,
    check_race_bounds,
)
from sumset_races.intervals import MAX_FOLDS, MAX_SETS

from conftest import reference_hfold_ints, reference_search_race_sets


class TestHfoldInts:
    def test_two_fold_of_a_pair(self):
        assert hfold_ints((0, 1), 2) == (0, 1, 2)

    def test_two_fold_of_spread_set(self):
        # all pairwise sums of {0, 1, 5, 12}, written out by hand
        assert hfold_ints((0, 1, 5, 12), 2) == (0, 1, 2, 5, 6, 10, 12, 13, 17, 24)

    def test_three_fold_of_progression(self):
        assert hfold_ints((0, 3), 3) == (0, 3, 6, 9)

    def test_singleton(self):
        assert hfold_ints((4,), 5) == (20,)

    def test_duplicates_and_order_are_normalized(self):
        assert hfold_ints([1, 0, 1], 1) == (0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hfold_ints((), 2)

    def test_rejects_bad_fold(self):
        with pytest.raises(ValueError):
            hfold_ints((0, 1), 0)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.integers(1, 8))
    @example([-3, 2, -3, 7, 2], 3)  # duplicates with negatives
    @example([5, -1, 0], 1)
    @example([4, -6, 0, 4, -6, -1], 1)  # unsorted, repeated and negative: normalized, not folded
    @example([-7], 4)  # a singleton
    @example([-7], 8)
    @example([0, 1, 10**6], 5)  # a spread base: all C(7, 5) = 21 sums distinct
    @example([0, 1, 10**5], 8)  # all C(10, 8) = 45 sums distinct
    def test_prop_matches_multiset_reference(self, base, h):
        assert hfold_ints(base, h) == reference_hfold_ints(base, h)


class TestDenseRank:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((-2, 13, 11, 0, 22, 4), (1, 5, 4, 2, 6, 3)),
            ((7, 3, 2, 9, 3, 5), (4, 2, 1, 5, 2, 3)),
            ((9, 7, 8, 9, 7, 8), (3, 1, 2, 3, 1, 2)),
        ],
    )
    def test_reference_patterns(self, values, expected):
        assert dense_rank(values) == expected

    def test_all_tied(self):
        assert dense_rank((5, 5, 5)) == (1, 1, 1)

    def test_single(self):
        assert dense_rank((42,)) == (1,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dense_rank(())

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_prop_idempotent(self, values):
        ranked = dense_rank(values)
        assert dense_rank(ranked) == ranked
        assert is_rank_tuple(ranked)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        st.integers(1, 9),
        st.integers(-20, 20),
    )
    def test_prop_invariant_under_increasing_affine_maps(self, values, a, b):
        assert dense_rank([a * v + b for v in values]) == dense_rank(values)


class TestIsRankTuple:
    def test_accepts_dense_patterns(self):
        for t in [(1,), (1, 1), (1, 2), (2, 1), (1, 2, 1), (3, 1, 2, 3)]:
            assert is_rank_tuple(t)

    def test_rejects_gaps_and_bad_starts(self):
        for t in [(), (0, 1), (1, 3), (2, 2), (2, 3, 4), (1, 1.5)]:
            assert not is_rank_tuple(t)


class TestSearch:
    def test_trivial_tie_race(self):
        assert search_race_sets([(1, 1)], 4, 3) == ((0,), (0,))

    def test_lead_flip_witness_reverifies(self):
        targets = [(1, 2), (2, 1)]
        witness = search_race_sets(targets, 12, 5)
        assert witness == ((0, 1, 3, 7), (0, 1, 2, 3, 4))  # the README's lead flip
        b1, b2 = witness
        assert set(b1) <= set(range(13)) and set(b2) <= set(range(13))
        assert len(b1) <= 5 and len(b2) <= 5
        # independent recheck of the order pattern at each fold
        for h, target in enumerate(targets, start=1):
            sizes = (len(hfold_ints(b1, h)), len(hfold_ints(b2, h)))
            assert dense_rank(sizes) == target

    def test_known_flip_candidate_is_valid(self):
        # |B_1| = 4 < 5 = |B_2| but |2B_1| = 10 > 9 = |2B_2|
        b1, b2 = (0, 1, 5, 12), (0, 1, 2, 3, 4)
        assert dense_rank((len(b1), len(b2))) == (1, 2)
        assert dense_rank((len(hfold_ints(b1, 2)), len(hfold_ints(b2, 2)))) == (2, 1)

    def test_exhaustion_is_reported_and_genuine(self):
        # independently enumerate every candidate pair, anchored at 0 or not
        subsets = [s for size in (1, 2) for s in combinations(range(3), size)]
        for b1 in subsets:
            for b2 in subsets:
                flips = dense_rank((len(b1), len(b2))) == (1, 2) and dense_rank(
                    (len(hfold_ints(b1, 2)), len(hfold_ints(b2, 2)))
                ) == (2, 1)
                assert not flips
        assert search_race_sets([(1, 2), (2, 1)], 2, 2) is None

    def test_deterministic(self):
        targets = [(1, 1), (1, 2), (2, 1)]
        first = search_race_sets(targets, 12, 5)
        second = search_race_sets(targets, 12, 5)
        assert first == second is not None

    def test_three_way_race(self):
        targets = [(1, 1, 1), (1, 2, 3)]
        witness = search_race_sets(targets, 8, 4)
        assert witness == ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5))
        for h, target in enumerate(targets, start=1):
            sizes = tuple(len(hfold_ints(b, h)) for b in witness)
            assert dense_rank(sizes) == target

    def test_three_set_reversal_needs_seven_elements(self):
        # sizes 5 < 6 < 7 while the double sums go 15 > 14 > 13
        targets = [(1, 2, 3), (3, 2, 1)]
        assert search_race_sets(targets, 20, 6) is None
        witness = search_race_sets(targets, 20, 7)
        assert witness == ((0, 1, 3, 7, 12), (0, 1, 2, 3, 4, 8), (0, 1, 2, 3, 4, 5, 6))
        assert [len(hfold_ints(b, 2)) for b in witness] == [15, 14, 13]

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            search_race_sets([(1, 3)], 4, 2)  # not dense
        with pytest.raises(ValueError):
            search_race_sets([(1,)], 4, 2)  # one set is not a race
        with pytest.raises(ValueError):
            search_race_sets([(1, 2), (1, 2, 3)], 4, 2)  # ragged
        with pytest.raises(ValueError):
            search_race_sets([], 4, 2)
        with pytest.raises(ValueError, match="limit of 64 sets"):
            search_race_sets([(1,) * (MAX_SETS + 1)], 4, 2)
        with pytest.raises(ValueError, match="limit of 64 folds"):
            search_race_sets([(1, 2)] * (MAX_FOLDS + 1), 4, 2)

    # a dict row would be searched on its keys, and an int row fail inside tuple()
    @pytest.mark.parametrize("row, shown", [({1: 1, 2: 2}, r"\{1: 1, 2: 2\}"), (5, "5")])
    def test_rejects_a_target_that_is_not_a_list_or_tuple(self, row, shown):
        with pytest.raises(TypeError, match="each table row must be a list or tuple, got " + shown):
            search_race_sets([[1, 2], row], 4, 3)

    def test_oversized_target_is_refused_before_it_is_ranked(self):
        with pytest.raises(ValueError, match="limit of 64 sets"):
            search_race_sets([(1, 3) * ((MAX_SETS + 1) // 2) + (1,)], 4, 2)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            search_race_sets([(1, 2)], -1, 2)
        with pytest.raises(ValueError):
            search_race_sets([(1, 2)], 4, 0)
        with pytest.raises(TypeError):
            search_race_sets([(1, 2)], True, 2)

    def test_refuses_huge_bounds_before_enumerating(self):
        # the count stops at the first binomial term past the limit
        with pytest.raises(ValueError, match="candidate sets"):
            search_race_sets([(1, 2)], 10**9, 10**9)

    def test_budget_counts_candidates_exactly(self):
        # the largest space of size 1..3 sets (0 plus two of 1..g) within the limit
        g = max(g for g in range(2000) if 1 + g + comb(g, 2) <= MAX_RACE_CANDIDATES)
        check_race_bounds(g, 3)
        with pytest.raises(ValueError):
            check_race_bounds(g + 1, 3)
        check_race_bounds(16, 6)  # the largest benchmark shape, 6885 candidates
        check_race_bounds(10, 10**9)  # sizes past ground + 1 add no candidates


race_targets = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n).map(dense_rank),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=150, deadline=None)
@given(race_targets, st.integers(0, 9), st.integers(1, 4))
# profiles ordered by their sizes rather than by first candidate pick another witness here
@example([(1, 1, 1), (1, 2, 3), (1, 2, 3)], 5, 4)
def test_prop_search_matches_reference(targets, ground, maxsize):
    assert search_race_sets(targets, ground, maxsize) == reference_search_race_sets(
        targets, ground, maxsize
    )


def reference_profile_table(ground, maxsize, horizon):
    table = {}
    for size in range(1, maxsize + 1):
        for rest in combinations(range(1, ground + 1), size - 1):
            cand = (0,) + rest
            profile = tuple(len(hfold_ints(cand, h)) for h in range(1, horizon + 1))
            table.setdefault(profile, cand)
    return table


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(1, 6), st.integers(1, 8))
@example(0, 3, 2)  # top 1: no walk
@example(1, 2, 2)  # top 2: the root's children are leaves, no mirror skip
@example(5, 2, 3)
@example(5, 3, 3)  # the first shape with a mirror skip
@example(3, 9, 4)  # maxsize past ground + 1
@example(12, 5, 1)  # one fold
@example(9, 6, 30)  # many folds at the leaves
@example(11, 5, 2)  # fills at the length-11 Golomb ruler (0, 1, 4, 9, 11)
@example(10, 5, 2)  # fills without the Sidon profile: no 5-element Sidon set fits in [0, 10]
@example(6, 4, 2)  # fills
def test_prop_profile_table_matches_reference(ground, maxsize, horizon):
    # same profiles, same first candidates, in the same order
    table = _profile_table(ground, maxsize, horizon)
    assert list(table.items()) == list(reference_profile_table(ground, maxsize, horizon).items())
    # |1B| = |B|, so a profile fixes its candidates' size
    assert all(profile[0] == len(cand) for profile, cand in table.items())


# the (ground, maxsize, horizon) shapes of the race-search benchmark and the CLI default
@pytest.mark.parametrize("shape", [(12, 5, 2), (12, 5, 4), (14, 6, 2), (14, 6, 3), (16, 6, 2)])
def test_profile_table_matches_reference_on_benchmark_shapes(shape):
    assert list(_profile_table(*shape).items()) == list(reference_profile_table(*shape).items())


def grow_calls(shape):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "grow":
            calls += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        _profile_table(*shape)
    finally:
        sys.setprofile(outer)
    return calls


def test_profile_table_walk_stops_once_every_allowed_profile_is_found():
    # (12, 5, 2) holds every profile the sumset-size bounds allow after 18 of
    # the 299 calls of its full walk. (10, 5, 2), (14, 6, 2) and (16, 6, 2) are
    # too short for a Sidon set of their largest size, so they fill without its
    # profile, within a tenth of their full walks of 176, 1471 and 2517 calls.
    # (12, 6, 2) never fills, so it walks all.
    assert grow_calls((12, 5, 2)) < 299 // 10
    assert grow_calls((10, 5, 2)) < 176 // 10
    assert grow_calls((14, 6, 2)) < 1471 // 10
    assert grow_calls((16, 6, 2)) < 2517 // 10
    assert grow_calls((12, 6, 2)) == 794


def is_sidon(base):
    return len(hfold_ints(base, 2)) == comb(len(base) + 1, 2)


def sidon_sets(size, span):
    # every s-set in [0, span] that contains 0 and has distinct pairwise
    # differences, depth first, rejecting an element that repeats a difference
    def extend(marks, differences):
        if len(marks) == size:
            yield marks
            return
        for x in range(marks[-1] + 1, span + 1):
            new = {x - m for m in marks}
            if len(new) == len(marks) and not new & differences:
                yield from extend(marks + (x,), differences | new)

    return extend((0,), set()) if span >= 0 else iter(())


# an optimal Golomb ruler for each number of marks from 1
GOLOMB_RULERS = [
    None,
    (0,),
    (0, 1),
    (0, 1, 3),
    (0, 1, 4, 6),
    (0, 1, 4, 9, 11),
    (0, 1, 4, 10, 12, 17),
    (0, 1, 4, 10, 18, 23, 25),
]


@pytest.mark.parametrize("size", range(1, len(_GOLOMB_LENGTHS)))
def test_golomb_lengths_are_the_shortest_sidon_spans(size):
    ruler = GOLOMB_RULERS[size]
    assert len(ruler) == size and ruler[-1] == _GOLOMB_LENGTHS[size]
    assert is_sidon(ruler)
    assert next(sidon_sets(size, _GOLOMB_LENGTHS[size]), None) is not None
    assert next(sidon_sets(size, _GOLOMB_LENGTHS[size] - 1), None) is None


def test_sidon_search_finds_exactly_the_sidon_sets():
    # the Golomb test's "no shorter Sidon set" half holds only if this DFS
    # misses none: check it against the pairwise-sum definition, 4-sets in [0, 9]
    expected = {(0,) + rest for rest in combinations(range(1, 10), 3) if is_sidon((0,) + rest)}
    assert set(sidon_sets(4, 9)) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(1, 6), st.integers(1, 5))
@example(16, 8, 2)  # past the Golomb lengths held, s(s - 1)/2 = 28 bounds the span
def test_prop_profile_table_stays_within_its_capacity(ground, maxsize, horizon):
    assert len(_profile_table(ground, maxsize, horizon)) <= _profile_capacity(
        ground, maxsize, horizon
    )


@pytest.mark.parametrize("shape", [(10, 5, 2), (12, 5, 2), (14, 6, 2), (16, 6, 2)])
def test_two_fold_tables_fill_their_capacity(shape):
    assert len(_profile_table(*shape)) == _profile_capacity(*shape)


def test_profile_table_memory_stays_small():
    # depth first holds one fold list per level, never a whole level of sets
    tracemalloc.start()
    try:
        _profile_table(20, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_search_reproduces_the_benchmark_catalogue():
    catalogue = Path(__file__).resolve().parent.parent / "perfbench/data/race_catalogue.json"
    entries = json.loads(catalogue.read_text())["entries"]
    assert len(entries) == 331
    for e in entries:
        witness = search_race_sets(e["targets"], e["ground"], e["maxsize"])
        expected = None if e["witness"] is None else tuple(map(tuple, e["witness"]))
        assert witness == expected
        assert e["verdict"] == ("exhausted" if witness is None else "found")


@given(
    st.sets(st.integers(0, 12), min_size=1, max_size=5).map(lambda s: tuple(sorted(s))),
    st.integers(1, 4),
)
def test_prop_sumset_size_bounds(base, h):
    # progressions meet the lower bound, spread sets the binomial upper bound
    size = len(hfold_ints(base, h))
    assert h * (len(base) - 1) + 1 <= size <= comb(len(base) + h - 1, h)
    if h > 1:
        assert size >= len(hfold_ints(base, h - 1))


def test_sumset_size_bounds_are_met():
    # a progression of 10 meets the lower bound h(s - 1) + 1; 0 and the powers 9^0..9^8
    # meet the upper bound C(s + h - 1, h), 24,310 at h = 8, for below h = 9 every sum
    # is a distinct base-9 numeral. The spread base spans 9^8 = 43,046,721, far wider
    # than the sums it makes: the case an integer fold whose cost follows the span slows.
    spread = (0, *(9**i for i in range(9)))
    for h in range(1, 9):
        assert len(hfold_ints(range(10), h)) == 9 * h + 1
        assert len(hfold_ints(spread, h)) == comb(h + 9, h)
