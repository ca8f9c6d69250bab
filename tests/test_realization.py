"""Carrying integer race witnesses into interval sets."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sumset_races import (
    IntervalUnion,
    dense_rank,
    hfold_ints,
    realization,
    realize,
    search_race_sets,
    verify_tau_race,
)
from sumset_races.intervals import MAX_FOLDS
from sumset_races.serialization import race_output_obj

from conftest import reference_hfold_ints

int_sets = st.sets(st.integers(0, 12), min_size=1, max_size=5)


class TestRealize:
    def test_reference_blocks(self):
        sets, width = realize([(0, 1, 5, 12), (0, 1, 2, 3, 4)], 2)
        assert width == F(1, 3)
        assert sets[0] == IntervalUnion(
            [(0, F(1, 3)), (1, F(4, 3)), (5, F(16, 3)), (12, F(37, 3))]
        )
        # ten sums for the first set, nine for the second, blocks of length 2/3
        assert sets[0].hfold(2).measure() == F(20, 3)
        assert sets[1].hfold(2).measure() == 6

    def test_adjacent_integers_stay_separated_at_top_fold(self):
        # h*width = 3/4 < 1, so even consecutive integers give disjoint blocks
        (only,), width = realize([(0, 1)], 3)
        folded = only.hfold(3)
        assert width == F(1, 4)
        assert folded == IntervalUnion([(b, b + F(3, 4)) for b in (0, 1, 2, 3)])

    def test_input_order_and_duplicates_are_normalized(self):
        sets, width = realize([[5, 0, 5, 1]], 2)
        assert sets == (IntervalUnion([(b, b + width) for b in (0, 1, 5)]),)

    def test_rejections(self):
        with pytest.raises(ValueError, match="horizon must be an integer >= 1, got 0"):
            realize([(0, 1)], 0)
        with pytest.raises(ValueError, match="horizon must be an integer >= 1, got -1"):
            realize([(0, 1)], -1)
        with pytest.raises(TypeError, match="horizon must be an integer, got True"):
            realize([(0, 1)], True)
        with pytest.raises(ValueError, match="need at least one base set"):
            realize([], 2)
        with pytest.raises(ValueError, match="every base set must be nonempty"):
            realize([(0, 1), ()], 2)
        with pytest.raises(TypeError, match="set element must be an integer"):
            realize([(0, F(1, 2))], 2)

    @given(st.lists(int_sets, min_size=1, max_size=3), st.integers(1, 4))
    def test_prop_fold_measure_is_card_times_block(self, bases, horizon):
        sets, width = realize(bases, horizon)
        for base, realized in zip(bases, sets):
            assert realized == IntervalUnion((b, b + width) for b in base)
            for h in range(1, horizon + 1):
                folded = realized.hfold(h)
                card = len(hfold_ints(base, h))
                assert len(folded.parts) == card
                assert folded.measure() == card * h * width
                assert all(p.hi - p.lo == h * width for p in folded.parts)


LEAD_FLIP = [(0, 1, 5, 12), (0, 1, 2, 3, 4)]
BAD_BASES = [
    ((), ValueError, "sumset base must be nonempty"),
    ((0, F(1, 2)), TypeError, r"set element must be an integer, got Fraction\(1, 2\)"),
    ((0, True), TypeError, "set element must be an integer, got True"),
]
BAD_BASE_IDS = ["empty", "fraction-element", "bool-element"]


class TestVerifyTauRace:
    def test_lead_flip_witness(self):
        sets, _ = realize(LEAD_FLIP, 2)
        report = verify_tau_race(sets, LEAD_FLIP, [[1, 2], [2, 1]])
        assert report.all_ok
        assert report.checks[0].cardinality_ranks == report.checks[0].target == (1, 2)
        assert report.checks[1].cardinality_ranks == report.checks[1].target == (2, 1)

    def test_reversed_targets_fail(self):
        # measures and sizes still rank alike; neither ranks as targeted
        sets, _ = realize(LEAD_FLIP, 2)
        report = verify_tau_race(sets, LEAD_FLIP, [[2, 1], [1, 2]])
        assert not report.all_ok
        assert not any(c.ok for c in report.checks)
        assert all(c.measure_ranks == c.cardinality_ranks for c in report.checks)

    def test_report_carries_both_routes(self):
        bases = [(0, 2), (0, 1, 2)]
        sets, _ = realize(bases, 2)
        report = verify_tau_race(sets, bases, [[1, 2], [1, 2]])
        check = report.checks[1]
        assert check.h == 2
        assert check.cardinalities == (3, 5)
        assert check.measures == (2, F(10, 3))
        assert check.measure_ranks == check.cardinality_ranks == check.target == (1, 2)

    def test_mismatched_sets_fail_the_race(self):
        # realized from one family, compared against another
        sets, _ = realize([(0, 1, 2), (0, 1, 2)], 2)
        report = verify_tau_race(sets, [(0, 1, 2), (0, 1, 5)], [[1, 1], [1, 2]])
        assert not report.all_ok
        assert report.checks[0].ok
        assert not report.checks[1].ok

    def test_race_output_flags_missed_targets(self):
        bases = [(0, 1), (0, 2)]
        sets, width = realize(bases, 2)
        report = verify_tau_race(sets, bases, [(1, 2), (1, 2)])
        obj = race_output_obj(bases, width, sets, report)
        assert obj["all_pass"] is False
        assert [row["pass"] for row in obj["report"]] == [False, False]

    def test_race_at_the_fold_cap_matches_closed_forms(self):
        # {0}, {0, 1}, ..., {0, ..., 5}: at every fold the set of s elements has
        # h(s - 1) + 1 sums, so one strict ranking holds at all MAX_FOLDS folds
        targets = [list(range(1, 7))] * MAX_FOLDS
        witness = search_race_sets(targets, 8, 6)
        assert witness == tuple(tuple(range(s)) for s in range(1, 7))
        sets, width = realize(witness, MAX_FOLDS)
        assert width == F(1, MAX_FOLDS + 1)
        report = verify_tau_race(sets, witness, targets)
        assert report.all_ok
        assert [c.h for c in report.checks] == list(range(1, MAX_FOLDS + 1))
        for check in report.checks:
            h = check.h
            cards = tuple(h * (s - 1) + 1 for s in range(1, 7))
            assert check.cardinalities == cards
            assert check.measures == tuple(F(card * h, MAX_FOLDS + 1) for card in cards)

    def test_spread_race_at_the_fold_cap_matches_closed_forms(self):
        # (0, 1, 2) has 2h + 1 sums; (0, 1, 10**5) reaches the bound C(h + 2, 2)
        # at every fold, since i + j * 10**5 with i + j <= h are distinct for
        # h < 10**5; they tie at h = 1 and the spread base leads from h = 2 on
        bases = [(0, 1, 2), (0, 1, 10**5)]
        targets = [(1, 1)] + [(1, 2)] * (MAX_FOLDS - 1)
        sets, _ = realize(bases, MAX_FOLDS)
        report = verify_tau_race(sets, bases, targets)
        assert report.all_ok
        for check in report.checks:
            h = check.h
            cards = (2 * h + 1, (h + 2) * (h + 1) // 2)
            assert check.cardinalities == cards
            assert check.measures == tuple(F(card * h, MAX_FOLDS + 1) for card in cards)

    def test_folds_each_base_with_one_hfold_ints_call(self, monkeypatch):
        # the rungs 2B, ..., HB climb from 1B; no fold refolds a base from scratch
        bases = [(0, 1, 2), (0, 1, 10**5)]
        sets, _ = realize(bases, MAX_FOLDS)
        calls = Counter()

        def counted(base, h):
            calls[tuple(base), h] += 1
            return hfold_ints(base, h)

        monkeypatch.setattr(realization, "hfold_ints", counted)
        assert verify_tau_race(sets, bases, [(1, 1)] + [(1, 2)] * (MAX_FOLDS - 1)).all_ok
        assert calls == {(base, 1): 1 for base in bases}

    @pytest.mark.parametrize("base, error, message", BAD_BASES, ids=BAD_BASE_IDS)
    def test_rejects_a_bad_base(self, base, error, message):
        # hfold_ints normalizes each base, so a bad one is refused as by the integer fold
        sets, _ = realize([(0, 1), (0, 2)], 2)
        with pytest.raises(error, match=message):
            verify_tau_race(sets, [(0, 1), base], [[1, 2], [1, 2]])

    @pytest.mark.parametrize("base, error, message", BAD_BASES, ids=BAD_BASE_IDS)
    def test_refuses_a_bad_base_before_any_interval_fold(self, monkeypatch, base, error, message):
        def fold_measures(self, H):
            raise AssertionError("an interval fold ran before the bases were checked")

        sets, _ = realize([(0, 1), (0, 2)], 2)
        monkeypatch.setattr(IntervalUnion, "fold_measures", fold_measures)
        with pytest.raises(error, match=message):
            verify_tau_race(sets, [(0, 1), base], [[1, 2], [1, 2]])

    def test_rejects_length_mismatch(self):
        sets, _ = realize([(0, 1), (0, 2)], 2)
        with pytest.raises(ValueError):
            verify_tau_race(sets, [(0, 1)], [[1, 2]])

    @pytest.mark.parametrize(
        "targets",
        [[], [[1, 2], [1]], [[1, 3]], [[2, 2]], [[1, 2, 3]], [[1], [1]], [[1, 2]] * 65],
        ids=[
            "empty", "ragged", "rank-skipped", "rank-1-missing", "three-ranks", "one-set",
            "too-many-folds",
        ],
    )
    def test_rejects_bad_targets(self, targets):
        # a report with no folds, or with ranks for other sets, would mean nothing
        sets, _ = realize([(0, 1), (0, 2)], 2)
        with pytest.raises(ValueError):
            verify_tau_race(sets, [(0, 1), (0, 2)], targets)

    @given(
        st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=5), min_size=2, max_size=4),
        st.integers(1, 8),
    )
    @example([[7], [0, 3]], 1)
    @example([[0, 1, 2], [0, 1, 10**5]], 8)
    @example([[-50, -3, -3, 7, -50], [0, 50, 50, -1]], 6)
    def test_prop_realization_always_passes_its_own_race(self, bases, horizon):
        # the ladder's sizes are checked against the sum of every multiset of h elements
        sets, _ = realize(bases, horizon)
        targets = [
            dense_rank([len(hfold_ints(b, h)) for b in bases]) for h in range(1, horizon + 1)
        ]
        report = verify_tau_race(sets, bases, targets)
        assert report.all_ok
        for check in report.checks:
            assert check.cardinalities == tuple(
                len(reference_hfold_ints(b, check.h)) for b in bases
            )
            assert check.measure_ranks == dense_rank(check.measures)
