"""The package's public names, and its value types behaving as values."""

from fractions import Fraction as F

import pytest

import sumset_races
from sumset_races import (
    CarveMatrix,
    ConstructionParams,
    DiffMatrix,
    Interval,
    IntervalUnion,
    StepMatrix,
    build_sets,
    grid_measure_oracle,
    lift_steps,
    realize,
    search_race_sets,
    serialization,
    solve_steps,
    verify_differences,
    verify_tau_race,
)
from sumset_races.discrete import RankTable
from sumset_races.intervals import MAX_FOLDS, MAX_SETS, SchemaError


def test_public_names_are_pinned():
    assert sumset_races.__all__ == [
        "__version__",
        "Rational",
        "as_fraction",
        "Interval",
        "IntervalUnion",
        "grid_measure_oracle",
        "IntSet",
        "as_int_set",
        "hfold_ints",
        "dense_rank",
        "is_rank_tuple",
        "search_race_sets",
        "DiffMatrix",
        "StepMatrix",
        "CarveMatrix",
        "ConstructionParams",
        "CarvedBlock",
        "InternalCheckError",
        "solve_steps",
        "lift_steps",
        "choose_params",
        "filler_set",
        "carve",
        "assemble_set",
        "build_sets",
        "BuildResult",
        "DifferenceReport",
        "verify_differences",
        "TauRaceReport",
        "realize",
        "verify_tau_race",
    ]
    for name in sumset_races.__all__:
        assert hasattr(sumset_races, name)


PARAMS = {"eps": F(1, 4), "delta": F(1, 32), "c": F(129, 32), "H": 2, "n": 2}


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Interval(1, 0), ValueError, "endpoints out of order: 1 > 0"),
        (lambda: Interval(0.5, 1), TypeError, "exact rational required, got float"),
        (lambda: IntervalUnion([(0, 1)]).subtract([(0, 1)]), TypeError,
         "subtrahend must be an IntervalUnion, got list"),
        (lambda: grid_measure_oracle([(0, 1)], F(1, 2)), TypeError,
         "grid oracle needs an IntervalUnion, got list"),
        (lambda: ConstructionParams(**{**PARAMS, "eps": F(1, 2)}), ValueError,
         "eps must lie strictly between 0 and 1/3, got 1/2"),
        (lambda: ConstructionParams(**{**PARAMS, "delta": F(1, 2)}), ValueError,
         r"delta must lie strictly between 0 and eps/\(H-1\), got 1/2"),
        (lambda: ConstructionParams(**{**PARAMS, "c": 3}), ValueError,
         r"offset c too small: need \(H-1\)\*delta \+ 3 < c, got 3"),
        (lambda: ConstructionParams(**{**PARAMS, "H": 1}), ValueError,
         "fold horizon H must be an integer >= 2, got 1"),
        (lambda: ConstructionParams(**{**PARAMS, "n": True}), TypeError,
         "set count n must be an integer, got True"),
        (lambda: DiffMatrix(()), ValueError, "need at least one row"),
        (lambda: DiffMatrix(((1,),)), ValueError, "need at least two columns, got 1"),
        (lambda: DiffMatrix(((1, 0), (1,))), ValueError, "rows must all have the same width"),
        (lambda: DiffMatrix(((1, F(1, 2)),)), TypeError, "table entry must be an integer"),
        # a dict or set row is refused, not read as its keys
        (lambda: DiffMatrix([{7: 1, 8: 2}]), TypeError,
         r"each table row must be a list or tuple, got \{7: 1, 8: 2\}"),
        (lambda: DiffMatrix([(1, 0), {2, 3}]), TypeError,
         r"each table row must be a list or tuple, got \{2, 3\}"),
        (lambda: CarveMatrix(((1, 0),)), ValueError, "need at least two sets, got 1"),
        (lambda: CarveMatrix(((1, 0), (-1, 2))), ValueError,
         "gap multiplicities must be nonnegative"),
        (lambda: CarveMatrix(((1, 0), (0, 0))), ValueError,
         "every set must carve at least one gap"),
        (lambda: DiffMatrix(((0, 0),) * MAX_SETS), SchemaError,
         "65 sets, more than the limit of 64 sets"),
        (lambda: DiffMatrix(((0,) * (MAX_FOLDS + 1),)), SchemaError,
         "65 folds, more than the limit of 64 folds"),
        (lambda: CarveMatrix(((1, 1),) * (MAX_SETS + 1)), SchemaError,
         "65 sets, more than the limit of 64 sets"),
        # the caps come before the entries are checked
        (lambda: DiffMatrix(((0, 0.5),) * MAX_SETS), SchemaError,
         "65 sets, more than the limit of 64 sets"),
        (lambda: DiffMatrix(((0,) * MAX_FOLDS + (0.5,),)), SchemaError,
         "65 folds, more than the limit of 64 folds"),
        (lambda: DiffMatrix([(1, 0), 5]), TypeError,
         "each table row must be a list or tuple, got 5"),
        (lambda: DiffMatrix(((1, True),)), TypeError, "table entry must be an integer, got True"),
        (lambda: DiffMatrix(((1, 2.0),)), TypeError, "table entry must be an integer, got 2.0"),
        # race targets are the same table read the other way round, so every
        # shape above fails them with the same exception type
        (lambda: RankTable(()), ValueError, "need at least one row"),
        (lambda: RankTable(((1,),)), ValueError, "need at least two columns, got 1"),
        (lambda: RankTable(((1, 2), (1, 2, 3))), ValueError, "rows must all have the same width"),
        (lambda: RankTable([{1: 1, 2: 2}]), TypeError,
         r"each table row must be a list or tuple, got \{1: 1, 2: 2\}"),
        (lambda: RankTable([(1, 2), {1, 2}]), TypeError,
         r"each table row must be a list or tuple, got \{1, 2\}"),
        (lambda: RankTable([(1, 2), 5]), TypeError,
         "each table row must be a list or tuple, got 5"),
        (lambda: RankTable(((1, True),)), TypeError, "table entry must be an integer, got True"),
        (lambda: RankTable(((1, 2.0),)), TypeError, "table entry must be an integer, got 2.0"),
        (lambda: RankTable(((1,) * MAX_SETS + (0.5,),)), SchemaError,
         "65 sets, more than the limit of 64 sets"),
        (lambda: RankTable(((1, 0.5),) * (MAX_FOLDS + 1)), SchemaError,
         "65 folds, more than the limit of 64 folds"),
        (lambda: RankTable(((1, 3),)), ValueError,
         r"not a valid rank tuple \(dense ranks from 1\): \[1, 3\]"),
    ],
)
def test_value_types_refuse_bad_fields(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_tables_at_the_caps_construct():
    # an all-zero build of this size takes over a second, so only the table is made
    diffs = DiffMatrix(((0,) * MAX_FOLDS,) * (MAX_SETS - 1))
    assert (diffs.n, diffs.H) == (MAX_SETS, MAX_FOLDS)
    assert CarveMatrix(((1,) * MAX_FOLDS,) * MAX_SETS).n == MAX_SETS


def test_every_refusal_is_one_schema_error():
    assert serialization.SchemaError is SchemaError
    assert issubclass(SchemaError, ValueError)
    for ground, maxsize, message in [
        (-1, 2, "ground must be an integer >= 0, got -1"),
        (4, 0, "maxsize must be an integer >= 1, got 0"),
        (10**9, 10**9, "candidate sets; lower ground or maxsize"),
    ]:
        with pytest.raises(SchemaError, match=message):
            search_race_sets([(1, 2)], ground, maxsize)


# Every function that takes a table calls its table type on it once, and a
# table type reads a table it is given by its rows, so plain rows and a
# table give the same result.


def test_construction_takes_plain_rows_as_its_tables():
    rows = [[1, -2, 0], [0, 3, 1]]
    diffs = DiffMatrix(rows)
    built = build_sets(rows, F(1, 2))
    assert built == build_sets(diffs, F(1, 2))
    report = verify_differences(built.sets, rows, F(1, 2))
    assert report.all_ok and report == verify_differences(built.sets, diffs, F(1, 2))
    steps = solve_steps(rows)
    assert type(steps) is StepMatrix and steps == solve_steps(diffs)
    assert lift_steps([list(r) for r in steps.rows]) == lift_steps(steps)


def test_race_takes_a_rank_table_as_its_targets():
    targets = [[1, 2], [2, 1]]
    found = search_race_sets(targets, 6, 5)
    assert found is not None and search_race_sets(RankTable(targets), 6, 5) == found
    sets, _ = realize(found, len(targets))
    report = verify_tau_race(sets, found, targets)
    assert report.all_ok and verify_tau_race(sets, found, RankTable(targets)) == report


def test_a_table_is_checked_by_the_type_it_is_given_to():
    assert DiffMatrix(DiffMatrix([[1, 0]])) == DiffMatrix([[1, 0]])
    with pytest.raises(ValueError, match="gap multiplicities must be nonnegative"):
        CarveMatrix(StepMatrix(((1, 0), (-1, 2))))
    with pytest.raises(ValueError, match=r"not a valid rank tuple \(dense ranks from 1\): \[1, 3\]"):
        search_race_sets(DiffMatrix([[1, 3]]), 4, 2)


VALUES = [
    (lambda: Interval(0, F(1, 2)), "lo"),
    (lambda: ConstructionParams(**PARAMS), "delta"),
    (lambda: DiffMatrix(((1, 0),)), "rows"),
    (lambda: CarveMatrix(((1, 0), (2, 3))), "rows"),
    # one row is a race of one fold, though one column is no table
    (lambda: RankTable([[2, 1]]), "rows"),
]


@pytest.mark.parametrize("make, field", VALUES)
def test_value_types_are_immutable(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make, field", VALUES)
def test_equal_values_compare_and_hash_equal(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_value_reprs():
    assert repr(Interval(0, 1)) == "[0, 1]"
    assert repr(Interval(F(-1, 2), 3)) == "[-1/2, 3]"
    assert repr(IntervalUnion([(0, 1), (F(5, 2), 3)])) == "IntervalUnion([0, 1] | [5/2, 3])"
    assert repr(IntervalUnion()) == "IntervalUnion()"
    assert repr(StepMatrix(((1, -2),))) == "StepMatrix(rows=((1, -2),))"
    assert repr(ConstructionParams(**PARAMS)).startswith("ConstructionParams(eps=Fraction(1, 4), ")


def test_interval_is_its_pair_of_fractions():
    assert Interval(0, F(1, 2)) == (F(0), F(1, 2))
    assert Interval(lo=0, hi=1).lo == 0 and isinstance(Interval(0, 1).hi, F)
