"""Carrying integer race witnesses into interval sets."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumset_races import (
    IntervalUnion,
    RealizationPlan,
    dense_rank,
    hfold_ints,
    realize,
    verify_tau_race,
)

int_sets = st.sets(st.integers(0, 12), min_size=1, max_size=5)


class TestRealize:
    def test_reference_blocks(self):
        sets, plan = realize([(0, 1, 5, 12), (0, 1, 2, 3, 4)], 2)
        assert plan.width == F(1, 3)
        assert plan.base_sets == ((0, 1, 5, 12), (0, 1, 2, 3, 4))
        assert sets[0] == IntervalUnion(
            [(0, F(1, 3)), (1, F(4, 3)), (5, F(16, 3)), (12, F(37, 3))]
        )
        # ten sums for the first set, nine for the second, blocks of length 2/3
        assert sets[0].hfold(2).measure() == F(20, 3)
        assert sets[1].hfold(2).measure() == 6

    def test_adjacent_integers_stay_separated_at_top_fold(self):
        # h*width = 3/4 < 1, so even consecutive integers give disjoint blocks
        (only,), plan = realize([(0, 1)], 3)
        folded = only.hfold(3)
        assert plan.width == F(1, 4)
        assert folded == IntervalUnion([(b, b + F(3, 4)) for b in (0, 1, 2, 3)])

    def test_input_order_and_duplicates_are_normalized(self):
        sets, plan = realize([[5, 0, 5, 1]], 2)
        assert plan.base_sets == ((0, 1, 5),)
        assert len(sets[0].parts) == 3

    def test_rejections(self):
        with pytest.raises(ValueError):
            realize([(0, 1)], 0)
        with pytest.raises(ValueError):
            realize([(0, 1)], -1)
        with pytest.raises(TypeError):
            realize([(0, 1)], True)
        with pytest.raises(ValueError):
            realize([], 2)
        with pytest.raises(ValueError):
            realize([(0, 1), ()], 2)
        with pytest.raises(TypeError):
            realize([(0, F(1, 2))], 2)

    def test_plan_validates_directly(self):
        with pytest.raises(ValueError):
            RealizationPlan(width=F(1, 2), horizon=2, base_sets=((0, 1),))
        with pytest.raises(ValueError):
            RealizationPlan(width=F(0), horizon=2, base_sets=((0, 1),))
        with pytest.raises(ValueError):
            RealizationPlan(width=F(1, 3), horizon=2, base_sets=())
        with pytest.raises(TypeError):
            RealizationPlan(width=F(1, 3), horizon=True, base_sets=((0, 1),))
        with pytest.raises(TypeError):
            RealizationPlan(width=0.25, horizon=2, base_sets=((0, 1),))
        with pytest.raises(ValueError):
            RealizationPlan(width=F(1, 3), horizon=2, base_sets=((1, 0, 0),))

    @given(st.lists(int_sets, min_size=1, max_size=3), st.integers(1, 4))
    def test_prop_fold_measure_is_card_times_block(self, bases, horizon):
        sets, plan = realize(bases, horizon)
        for base, realized in zip(plan.base_sets, sets):
            for h in range(1, horizon + 1):
                folded = realized.hfold(h)
                card = len(hfold_ints(base, h))
                assert len(folded.parts) == card
                assert folded.measure() == card * h * plan.width
                assert all(p.length == h * plan.width for p in folded.parts)


class TestVerifyTauRace:
    def test_lead_flip_witness(self):
        bases = [(0, 1, 5, 12), (0, 1, 2, 3, 4)]
        sets, _ = realize(bases, 2)
        report = verify_tau_race(sets, bases, 2)
        assert report.all_ok
        assert report.checks[0].cardinality_ranks == (1, 2)
        assert report.checks[1].cardinality_ranks == (2, 1)

    def test_report_carries_both_routes(self):
        bases = [(0, 2), (0, 1, 2)]
        sets, _ = realize(bases, 2)
        report = verify_tau_race(sets, bases, 2)
        check = report.checks[1]
        assert check.h == 2
        assert check.cardinalities == (3, 5)
        assert check.measures == (2, F(10, 3))
        assert check.measure_ranks == check.cardinality_ranks == (1, 2)

    def test_mismatched_sets_fail_the_race(self):
        # realized from one family, compared against another
        sets, _ = realize([(0, 1, 2), (0, 1, 2)], 2)
        report = verify_tau_race(sets, [(0, 1, 2), (0, 1, 5)], 2)
        assert not report.all_ok
        assert report.checks[0].ok
        assert not report.checks[1].ok

    def test_rejects_length_mismatch(self):
        sets, _ = realize([(0, 1)], 2)
        with pytest.raises(ValueError):
            verify_tau_race(sets, [(0, 1), (0, 2)], 2)

    @pytest.mark.parametrize("horizon", [0, -1, True])
    def test_rejects_horizon_without_folds(self, horizon):
        sets, _ = realize([(0, 1), (0, 2)], 2)
        with pytest.raises((TypeError, ValueError)):
            verify_tau_race(sets, [(0, 1), (0, 2)], horizon)

    @given(st.lists(int_sets, min_size=2, max_size=4), st.integers(1, 4))
    def test_prop_realization_always_passes_its_own_race(self, bases, horizon):
        sets, _ = realize(bases, horizon)
        report = verify_tau_race(sets, bases, horizon)
        assert report.all_ok
        for check in report.checks:
            assert check.measure_ranks == dense_rank(check.measures)
