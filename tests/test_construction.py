"""The build pipeline: solving, lifting, carving, assembly, and verification."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_races import (
    CarveMatrix,
    ConstructionParams,
    DiffMatrix,
    Interval,
    IntervalUnion,
    StepMatrix,
    assemble_set,
    build_sets,
    carve,
    choose_params,
    dense_rank,
    filler_set,
    lift_steps,
    solve_steps,
    verify_differences,
)
from sumset_races import construction
from sumset_races.construction import MAX_BUILD_GAPS, BuildBudgetError


def exact_params(H=2, max_gaps=1):
    return choose_params(H, 2, max_gaps)


def thickened(block, h, params):
    """Measure of [0, (h-1)*delta] + kept, computed on intervals."""
    return (IntervalUnion([(0, (h - 1) * params.delta)]) + block.kept).measure()


def residue(counts, h):
    """The lemma's surviving gap width in units of delta: sum over r >= h of (r-h+1)c_r."""
    return sum((r - h + 1) * c for r, c in enumerate(counts, start=1) if r >= h)


class TestSolveSteps:
    def test_two_fold_example(self):
        assert solve_steps(DiffMatrix(((3, 1),))).rows == ((1, 1),)

    def test_three_fold_example(self):
        assert solve_steps(DiffMatrix(((0, 0, 1),))).rows == ((1, -2, 1),)

    def test_zero_targets_give_zero_steps(self):
        assert solve_steps(DiffMatrix(((0, 0, 0),))).rows == ((0, 0, 0),)

    def test_rows_solve_independently(self):
        diffs = DiffMatrix(((3, 1), (0, -2)))
        assert solve_steps(diffs).rows == ((1, 1), (4, -2))

    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.data(),
    )
    def test_prop_substitution_reproduces_targets(self, n, H, data):
        rows = tuple(
            tuple(data.draw(st.integers(-9, 9)) for _ in range(H)) for _ in range(n - 1)
        )
        diffs = DiffMatrix(rows)
        steps = solve_steps(diffs)
        # multiply by the weight matrix explicitly, as an outside check
        for i in range(n - 1):
            for h in range(1, H + 1):
                weighted = sum((r - h + 1) * steps.rows[i][r - 1] for r in range(h, H + 1))
                assert weighted == rows[i][h - 1]


class TestLiftSteps:
    def test_single_column_minimal_lift(self):
        # each column is width class 2, beside an all-zero class 1; its
        # prefix sums from 0, minus their least, are the smallest
        # nonnegative lift, and the repair adds 1 to class 1 only
        # (-2): sums (0, -2), lift (2, 0); the second set carves nothing
        assert lift_steps(StepMatrix(((0, -2),))).rows == ((1, 2), (1, 0))
        # (1, -3): sums (0, 1, -2), lift (2, 3, 0); the third set carves nothing
        assert lift_steps(StepMatrix(((0, 1), (0, -3)))).rows == ((1, 2), (1, 3), (1, 0))
        # (0, 0): sums (0, 0, 0), lift (0, 0, 0); no set carves anything
        assert lift_steps(StepMatrix(((0, 0), (0, 0)))).rows == ((1, 0), (1, 0), (1, 0))

    def test_example_with_zero_row_repair(self):
        lifted = lift_steps(StepMatrix(((1, 0),)))
        assert lifted.rows == ((1, 0), (2, 0))

    def test_all_zero_steps_get_repaired_uniformly(self):
        lifted = lift_steps(StepMatrix(((0, 0), (0, 0))))
        assert lifted.rows == ((1, 0), (1, 0), (1, 0))

    def test_three_sets_no_repair_needed(self):
        lifted = lift_steps(StepMatrix(((1, 0), (-3, 2))))
        assert lifted.rows == ((2, 0), (3, 0), (0, 2))

    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_prop_lift_is_nonnegative_with_positive_totals(self, n, H, data):
        rows = tuple(
            tuple(data.draw(st.integers(-9, 9)) for _ in range(H)) for _ in range(n - 1)
        )
        lifted = lift_steps(StepMatrix(rows))
        assert all(v >= 0 for row in lifted.rows for v in row)
        assert all(total > 0 for total in lifted.row_totals)
        # minimal: every width class reaches 0, except class 1 when the
        # repair fired, which raised an all-zero set to (1, 0, ..., 0)
        lowest = [min(column) for column in zip(*lifted.rows)]
        assert lowest[1:] == [0] * (H - 1)
        assert lowest[0] in (0, 1)
        if lowest[0] == 1:
            assert (1, *[0] * (H - 1)) in lifted.rows
        for i in range(n - 1):
            for r in range(H):
                assert lifted.rows[i + 1][r] - lifted.rows[i][r] == rows[i][r]


class TestChooseParams:
    def test_reference_values(self):
        p = choose_params(2, 2, 1)
        assert (p.eps, p.delta, p.c) == (F(1, 4), F(1, 32), F(129, 32))
        assert choose_params(2, 2, 2).delta == F(1, 64)
        assert choose_params(5, 2, 1).delta == F(1, 80)

    def test_inequalities_are_strict(self):
        for H in (2, 3, 4, 5, 7):
            for gaps in (1, 3, 10, 40):
                p = choose_params(H, 2, gaps)
                assert 0 < p.delta < p.eps / (H - 1)
                assert p.delta <= (1 - 3 * p.eps) / (2 * H * gaps)
                assert (H - 1) * p.delta + 3 < p.c

    def test_rejections(self):
        with pytest.raises(ValueError):
            choose_params(1, 2, 1)
        with pytest.raises(ValueError):
            choose_params(2, 1, 1)
        with pytest.raises(ValueError):
            choose_params(2, 2, 0)

    def test_params_type_validates(self):
        with pytest.raises(ValueError):
            ConstructionParams(eps=F(1, 2), delta=F(1, 32), c=F(129, 32), H=2, n=2)
        with pytest.raises(ValueError):
            ConstructionParams(eps=F(1, 4), delta=F(1, 2), c=F(129, 32), H=2, n=2)
        with pytest.raises(ValueError):
            ConstructionParams(eps=F(1, 4), delta=F(1, 32), c=F(3), H=2, n=2)


class TestFillerSet:
    def test_reference_blocks(self):
        assert filler_set(F(1, 4)) == IntervalUnion([(0, F(3, 4)), (2, F(11, 4))])

    @pytest.mark.parametrize("eps", [0, F(1, 3), F(1, 2), -1])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError):
            filler_set(eps)

    @settings(max_examples=60)
    @given(
        st.fractions(min_value=F(1, 60), max_value=F(1, 3), max_denominator=60),
        st.integers(3, 6),
    )
    def test_prop_high_folds_collapse(self, eps, h):
        # holds on the whole range including the boundary, where the
        # builder itself refuses; build the boundary set directly
        if eps < F(1, 3):
            x = filler_set(eps)
        else:
            x = IntervalUnion([(0, 1 - eps), (2, 3 - eps)])
        assert x.hfold(h) == IntervalUnion([(0, h * (3 - eps))])

    @settings(max_examples=60)
    @given(
        st.fractions(min_value=F(1, 60), max_value=F(19, 60), max_denominator=60),
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=24),
                st.fractions(min_value=0, max_value=1, max_denominator=24),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_prop_two_fold_fills_with_any_band_companion(self, eps, pairs):
        # adding any nonempty subset of [1+eps, 2-2eps] plugs both gaps at fold 2
        band_lo = 1 + eps
        band_width = 1 - 3 * eps
        parts = []
        for a, b in pairs:
            t0, t1 = sorted((a, b))
            parts.append((band_lo + t0 * band_width, band_lo + t1 * band_width))
        companion = IntervalUnion(parts)
        combined = IntervalUnion([*filler_set(eps).parts, *companion.parts])
        assert combined.hfold(2) == IntervalUnion([(0, 2 * (3 - eps))])


class TestCarve:
    def test_single_narrow_gap(self):
        block = carve([1, 0], exact_params())
        assert (block.kept.bounds()[0], *(g.lo for g in block.gaps)) == (F(5, 4), F(11, 8))
        assert block.gaps == (Interval(F(11, 8), F(45, 32)),)
        assert block.kept == IntervalUnion([(F(5, 4), F(11, 8)), (F(45, 32), F(3, 2))])
        assert block.kept.measure() == F(7, 32)

    def test_single_wide_gap(self):
        block = carve([0, 1], exact_params())
        gap = block.gaps[0]
        assert gap.hi - gap.lo == 2 * exact_params().delta
        assert block.kept.measure() == F(3, 16)

    def test_anchors_stay_in_kept(self):
        block = carve([2, 1], choose_params(2, 2, 3))
        # u_0 = 1 + eps, the block's left end, then the anchor of each gap
        for anchor in (block.kept.bounds()[0], *(g.lo for g in block.gaps)):
            assert anchor in block.kept

    def test_kept_and_gaps_partition_the_block(self):
        params = choose_params(3, 2, 6)
        block = carve([2, 1, 3], params)
        gap_total = sum((g.hi - g.lo for g in block.gaps), F(0))
        assert block.kept.measure() + gap_total == 1 - 3 * params.eps

    def test_gap_widths_follow_classes(self):
        params = choose_params(3, 2, 4)
        block = carve([2, 0, 2], params)
        widths = [g.hi - g.lo for g in block.gaps]
        assert widths == [params.delta, params.delta, 3 * params.delta, 3 * params.delta]

    def test_rejections(self):
        params = exact_params()
        with pytest.raises(ValueError):
            carve([0, 0], params)
        with pytest.raises(ValueError):
            carve([1], params)
        with pytest.raises(ValueError):
            carve([-1, 2], params)
        with pytest.raises(ValueError):
            carve([5, 5], params)  # delta was chosen for a single gap
        # (2H * total) * delta = 1 - 3eps exactly: the last anchor fits, its gap does not
        tight = ConstructionParams(eps=F(1, 4), delta=F(1, 16), c=4, H=2, n=2)
        for counts in ([0, 1], [1, 0]):
            with pytest.raises(ValueError):
                carve(counts, tight)


class TestThickenedMeasure:
    def test_fold_one_is_plain_measure(self):
        params = exact_params()
        block = carve([1, 0], params)
        assert thickened(block, 1, params) == F(7, 32)

    def test_fold_two_refills_narrow_gaps(self):
        params = exact_params()
        block = carve([1, 0], params)
        assert thickened(block, 2, params) == F(9, 32)

    def test_wide_gap_resists_thickening(self):
        params = exact_params()
        block = carve([0, 1], params)
        assert thickened(block, 1, params) == F(3, 16)
        assert thickened(block, 2, params) == F(1, 4)

    def test_closed_form_matches_direct_on_random_rows(self):
        rng = random.Random(411)
        for _ in range(100):
            H = rng.randint(2, 5)
            counts = [rng.randint(0, 4) for _ in range(H)]
            if not any(counts):
                counts[rng.randrange(H)] = rng.randint(1, 4)
            params = choose_params(H, 2, sum(counts))
            block = carve(counts, params)
            for h in range(1, H + 1):
                direct = thickened(block, h, params)
                closed = (
                    (h - 1) * params.delta + 1 - 3 * params.eps
                    - params.delta * residue(counts, h)
                )
                assert direct == closed


class TestAssemble:
    def test_reference_assembly(self):
        params = exact_params()
        x = filler_set(params.eps)
        y = carve([1, 0], params).kept
        assembled = assemble_set(x, y, params)
        shifted = IntervalUnion([*x.parts, *y.parts]) + IntervalUnion([(F(129, 32), F(129, 32))])
        assert assembled == IntervalUnion([(0, F(1, 32)), *shifted.parts])
        assert len(assembled.parts) == 5

    def test_rejects_empty_carved_block(self):
        params = exact_params()
        with pytest.raises(ValueError):
            assemble_set(filler_set(params.eps), IntervalUnion(), params)

    def test_rejects_block_outside_band(self):
        params = exact_params()
        with pytest.raises(ValueError):
            assemble_set(filler_set(params.eps), IntervalUnion([(0, 1)]), params)

    def test_seed_filler_and_block_stay_disjoint(self):
        params = choose_params(4, 2, 5)
        x = filler_set(params.eps)
        y = carve([2, 1, 1, 1], params).kept
        assembled = assemble_set(x, y, params)
        assert assembled.measure() == params.delta + x.measure() + y.measure()


class TestDifferenceReduction:
    def test_fold_differences_reduce_to_thickened_differences(self):
        # the h-fold measures of two assembled sets differ exactly as the
        # thickened measures of their carved blocks do (no dilation here);
        # the left side is a full interval computation, the right side a
        # closed-form evaluation
        rng = random.Random(1522)
        for _ in range(25):
            H = rng.randint(2, 4)
            rows = []
            for _ in range(2):
                counts = [rng.randint(0, 3) for _ in range(H)]
                if not any(counts):
                    counts[rng.randrange(H)] = 1
                rows.append(counts)
            params = choose_params(H, 2, max(sum(r) for r in rows))
            x = filler_set(params.eps)
            blocks = [carve(row, params) for row in rows]
            sets = [assemble_set(x, b.kept, params) for b in blocks]
            for h in range(1, H + 1):
                fold_gap = sets[0].hfold(h).measure() - sets[1].hfold(h).measure()
                thick_gap = params.delta * (residue(rows[1], h) - residue(rows[0], h))
                assert fold_gap == thick_gap


class TestBuildSets:
    def test_reference_pipeline(self):
        diffs = DiffMatrix(((1, 0),))
        result = build_sets(diffs, 1)
        assert result.params.delta == F(1, 64)
        assert result.carves.rows == ((1, 0), (2, 0))
        report = verify_differences(result.sets, diffs, 1)
        assert report.all_ok

    def test_zero_targets_build_identical_sets(self):
        diffs = DiffMatrix(((0, 0), (0, 0)))
        result = build_sets(diffs, 1)
        assert result.sets[0] == result.sets[1] == result.sets[2]
        assert verify_differences(result.sets, diffs, 1).all_ok

    def test_fractional_scale_is_exact(self):
        diffs = DiffMatrix(((2, -1), (-3, 4)))
        theta = F(22, 7)
        result = build_sets(diffs, theta)
        report = verify_differences(result.sets, diffs, theta)
        assert report.all_ok
        for check in report.checks:
            assert check.computed == theta * diffs.rows[check.pair - 1][check.h - 1]

    def test_three_fold_mixed_signs(self):
        diffs = DiffMatrix(((0, 0, 1), (-2, 3, 0)))
        result = build_sets(diffs, F(3, 7))
        assert verify_differences(result.sets, diffs, F(3, 7)).all_ok

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            build_sets(DiffMatrix(((1, 0),)), 0)
        with pytest.raises(ValueError):
            build_sets(DiffMatrix(((1, 0),)), F(-1, 2))

    def test_refuses_huge_targets_before_carving(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("carve ran before the gap budget was checked")

        monkeypatch.setattr(construction, "carve", unreachable)
        with pytest.raises(BuildBudgetError, match="1000000002 carved gaps"):
            build_sets(DiffMatrix(((10**9, 0),)), 1)

    def test_budget_is_on_the_total_over_all_sets(self):
        # two sets carving 1 and 1 + k gaps: the total is k + 2
        k = MAX_BUILD_GAPS - 2
        assert sum(lift_steps(solve_steps(DiffMatrix(((k, 0),)))).row_totals) == MAX_BUILD_GAPS
        with pytest.raises(BuildBudgetError):
            build_sets(DiffMatrix(((k + 1, 0),)), 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 8), st.data())
    def test_prop_theorem_one_through_the_construction(self, n, horizon, data):
        # Theorem 2 gives mu(hA_i) - mu(hA_{i+1}) = theta * (r_h[i] - r_h[i+1]),
        # so mu(hA_i) = C_h + theta * r_h[i] and the measure ranks are r_h, ties included
        draws = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        targets = [dense_rank(data.draw(draws)) for _ in range(horizon)]
        theta = data.draw(st.fractions(min_value=F(1, 100), max_value=10, max_denominator=100))
        columns = targets * 2 if horizon == 1 else targets  # DiffMatrix needs two columns
        rows = [[r[i] - r[i + 1] for r in columns] for i in range(n - 1)]
        result = build_sets(DiffMatrix(rows), theta)
        measures = [s.fold_measures(horizon) for s in result.sets]
        for h, target in enumerate(targets):
            assert dense_rank([m[h] for m in measures]) == target


class TestVerifyDifferences:
    def test_tampering_is_caught_at_every_fold(self):
        diffs = DiffMatrix(((1, 0),))
        result = build_sets(diffs, 1)
        tampered = [result.sets[0].dilate(2), result.sets[1]]
        report = verify_differences(tampered, diffs, 1)
        assert not report.all_ok
        assert all(not c.ok for c in report.checks)

    def test_telescoping_entries_cover_all_pairs(self):
        diffs = DiffMatrix(((1, 0), (0, 2), (-1, 1)))
        result = build_sets(diffs, 1)
        report = verify_differences(result.sets, diffs, 1)
        assert report.all_ok
        assert len(report.telescoping) == 6 * diffs.H  # C(4,2) pairs
        assert all(t.ok for t in report.telescoping)

    def test_rejects_wrong_set_count(self):
        diffs = DiffMatrix(((1, 0),))
        result = build_sets(diffs, 1)
        with pytest.raises(ValueError):
            verify_differences(result.sets[:1], diffs, 1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 10), st.data())
    def test_prop_random_tables_build_and_verify(self, n, H, data):
        row = st.lists(st.integers(-50, 50), min_size=H, max_size=H)
        diffs = DiffMatrix(data.draw(st.lists(row, min_size=n - 1, max_size=n - 1)))
        theta = data.draw(st.sampled_from([F(1), F(3, 7), F(22, 7), F(113, 355)]))
        result = build_sets(diffs, theta)
        assert verify_differences(result.sets, diffs, theta).all_ok


def reference_verify_differences(sets, diffs, scale):
    """``verify_differences`` in Fraction arithmetic: each difference and each
    telescoping sum formed from the measures as Fractions and compared."""
    theta = F(scale)
    measures = [[fold.measure() for fold in s.folds(diffs.H)] for s in sets]
    checks = [
        construction.DifferenceCheck(
            pair=i,
            h=h,
            computed=measures[i - 1][h - 1] - measures[i][h - 1],
            target=theta * diffs.rows[i - 1][h - 1],
        )
        for i in range(1, diffs.n)
        for h in range(1, diffs.H + 1)
    ]
    telescoping = [
        construction.TelescopeCheck(
            j=j,
            k=k,
            h=h,
            ok=measures[j - 1][h - 1] - measures[k - 1][h - 1]
            == theta * sum(diffs.rows[i - 1][h - 1] for i in range(j, k)),
        )
        for j in range(1, diffs.n)
        for k in range(j + 1, diffs.n + 1)
        for h in range(1, diffs.H + 1)
    ]
    return construction.DifferenceReport(checks=tuple(checks), telescoping=tuple(telescoping))


def moved_endpoint(union, index, shift):
    """``union`` with the right end of part ``index`` moved by ``shift``."""
    parts = list(union.parts)
    part = parts[index % len(parts)]
    parts[index % len(parts)] = Interval(part.lo, max(part.lo, part.hi + shift))
    return IntervalUnion(parts)


class TestVerifyDifferencesAgainstFractionReference:
    # verify_differences compares integers over one denominator per fold;
    # the reference subtracts and sums Fractions. Every check and every
    # telescoping entry must agree, passing or failing.

    @staticmethod
    def draw_problem(data, n_max=4, H_max=6):
        n = data.draw(st.integers(2, n_max))
        H = data.draw(st.integers(2, H_max))
        row = st.lists(st.integers(-20, 20), min_size=H, max_size=H)
        diffs = DiffMatrix(data.draw(st.lists(row, min_size=n - 1, max_size=n - 1)))
        theta = data.draw(st.sampled_from([F(1), F(3, 7), F(22, 7), F(113, 355)]))
        return diffs, theta

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_prop_random_builds_match_reference(self, data):
        diffs, theta = self.draw_problem(data)
        sets = build_sets(diffs, theta).sets
        report = verify_differences(sets, diffs, theta)
        assert report == reference_verify_differences(sets, diffs, theta)
        assert report.all_ok

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_prop_tampered_sets_fail_the_same_entries(self, data):
        diffs, theta = self.draw_problem(data)
        sets = list(build_sets(diffs, theta).sets)
        if data.draw(st.booleans(), label="swap two sets"):
            i, j = data.draw(st.lists(st.integers(0, diffs.n - 1), min_size=2, max_size=2))
            sets[i], sets[j] = sets[j], sets[i]
        else:
            target = data.draw(st.integers(0, diffs.n - 1), label="set")
            index = data.draw(st.integers(0, 10**6), label="part")
            shift = data.draw(st.sampled_from([F(1, 3), F(-1, 5), F(7, 113)]), label="shift")
            sets[target] = moved_endpoint(sets[target], index, shift * theta)
        report = verify_differences(sets, diffs, theta)
        reference = reference_verify_differences(sets, diffs, theta)
        assert report == reference
        failed = {(c.pair, c.h) for c in report.checks if not c.ok}
        assert failed == {(c.pair, c.h) for c in reference.checks if not c.ok}
        assert {(t.j, t.k, t.h) for t in report.telescoping if not t.ok} == {
            (t.j, t.k, t.h) for t in reference.telescoping if not t.ok
        }

    def test_moved_endpoint_fails_exactly_its_pairs(self):
        diffs = DiffMatrix(((1, 0, 2), (0, -1, 1), (2, 2, 0)))
        sets = list(build_sets(diffs, F(3, 7)).sets)
        sets[1] = moved_endpoint(sets[1], -1, F(1, 9))  # the last part reaches further
        report = verify_differences(sets, diffs, F(3, 7))
        assert report == reference_verify_differences(sets, diffs, F(3, 7))
        # set 2 takes part in pairs 1 and 2 only, at every fold
        assert {(c.pair, c.h) for c in report.checks if not c.ok} == {
            (pair, h) for pair in (1, 2) for h in (1, 2, 3)
        }
        # a telescoping range fails when it has set 2 at exactly one end
        assert {(t.j, t.k) for t in report.telescoping if not t.ok} == {(1, 2), (2, 3), (2, 4)}


TABLES = [DiffMatrix, StepMatrix, CarveMatrix]


class TestTables:
    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize(
        "entry", [F(1, 2), 1.0, True, "1"], ids=["fraction", "float", "bool", "str"]
    )
    def test_rejects_non_int_entries(self, table, entry):
        with pytest.raises(TypeError):
            table(((1, 0), (1, entry)))

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize(
        "rows",
        [(), ((1,), (1,)), ((1, 0), (1, 0, 0))],
        ids=["empty", "narrow", "ragged"],
    )
    def test_rejects_bad_shapes(self, table, rows):
        with pytest.raises(ValueError):
            table(rows)

    @pytest.mark.parametrize("table, n", [(DiffMatrix, 3), (StepMatrix, 3), (CarveMatrix, 2)])
    def test_counts_sets_and_folds(self, table, n):
        t = table([[1, 0, 2], [3, 1, 0]])
        assert t.rows == ((1, 0, 2), (3, 1, 0))
        assert (t.n, t.H) == (n, 3)


class TestCarveMatrixType:
    def test_rejects_negative_and_zero_rows(self):
        with pytest.raises(ValueError):
            CarveMatrix(((1, 0), (-1, 2)))
        with pytest.raises(ValueError):
            CarveMatrix(((1, 0), (0, 0)))
        with pytest.raises(ValueError):
            CarveMatrix(((1, 0),))  # one row is one set, not a pair

    def test_row_totals(self):
        assert CarveMatrix(((1, 0), (2, 3))).row_totals == (1, 5)
