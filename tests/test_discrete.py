"""Integer sumsets, rank patterns, and the exhaustive race search."""

from __future__ import annotations

import json
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumset_races import dense_rank, hfold_ints, is_rank_tuple, search_race_sets
from sumset_races.discrete import MAX_RACE_CANDIDATES, _profile_table, check_race_bounds
from sumset_races.intervals import MAX_FOLDS, MAX_SETS

from conftest import reference_search_race_sets


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
def test_prop_profile_table_matches_reference(ground, maxsize, horizon):
    # same profiles, same first candidates, in the same order
    table = _profile_table(ground, maxsize, horizon)
    assert list(table.items()) == list(reference_profile_table(ground, maxsize, horizon).items())
    # |1B| = |B|, so a profile fixes its candidates' size
    assert all(profile[0] == len(cand) for profile, cand in table.items())


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
