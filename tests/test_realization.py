"""Carrying integer race witnesses into interval sets."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumset_races import (
    IntervalUnion,
    dense_rank,
    hfold_ints,
    realize,
    verify_tau_race,
)
from sumset_races.serialization import race_output_obj

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
            for h in range(1, horizon + 1):
                folded = realized.hfold(h)
                card = len(hfold_ints(base, h))
                assert len(folded.parts) == card
                assert folded.measure() == card * h * width
                assert all(p.length == h * width for p in folded.parts)


LEAD_FLIP = [(0, 1, 5, 12), (0, 1, 2, 3, 4)]


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

    @given(st.lists(int_sets, min_size=2, max_size=4), st.integers(1, 4))
    def test_prop_realization_always_passes_its_own_race(self, bases, horizon):
        sets, _ = realize(bases, horizon)
        targets = [
            dense_rank([len(hfold_ints(b, h)) for b in bases]) for h in range(1, horizon + 1)
        ]
        report = verify_tau_race(sets, bases, targets)
        assert report.all_ok
        for check in report.checks:
            assert check.measure_ranks == dense_rank(check.measures)
