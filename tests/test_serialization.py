"""The JSON interchange format and its schema checks."""

import json
import re
from enum import IntEnum
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import interval_unions, rationals, reference_union_from_obj
from sumset_races import (
    DiffMatrix,
    Interval,
    IntervalUnion,
    build_sets,
    realize,
    verify_differences,
    verify_tau_race,
)
from sumset_races import serialization
from sumset_races.intervals import MAX_FOLDS, MAX_SETS
from sumset_races.serialization import (
    MAX_FILE_PARTS,
    SchemaError,
    build_output_obj,
    format_rational,
    load_problem,
    load_race_targets,
    load_sets_file,
    parse_rational,
    race_output_obj,
    read_json,
    union_from_obj,
    union_to_obj,
    write_json,
)


BIG_DENOMINATORS = [["0", f"1/{2**1700}"], ["0", f"1/{3**1100}"]]  # lcm past 1000 digits


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", F(3, 4)), ("5", 5), ("-3/7", F(-3, 7)), ("0", 0), ("2/4", F(1, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_plain_ints_are_accepted(self):
        assert parse_rational(7) == 7

    @pytest.mark.parametrize(
        "bad",
        # a trailing newline, and decimal digits that are not ASCII, are not numerals
        ["1.5", 1.5, "3/-4", "1/0", "a", "", True, None, [1], "1/2\n", "\u0663/4", "\uff11"],
    )
    def test_rejects_anything_inexact_or_malformed(self, bad):
        with pytest.raises(SchemaError):
            parse_rational(bad)

    def test_format_lowers_terms(self):
        assert format_rational(F(6, 8)) == "3/4"
        assert format_rational(F(8, 4)) == "2"
        assert format_rational(F(-1, 2)) == "-1/2"

    @given(rationals())
    def test_prop_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestUnions:
    def test_obj_form(self):
        u = union_from_obj([["0", "3/4"], ["2", "11/4"]])
        assert union_to_obj(u) == [["0", "3/4"], ["2", "11/4"]]

    def test_overlaps_canonicalize_on_load(self):
        u = union_from_obj([["0", "2"], ["1", "3"]])
        assert union_to_obj(u) == [["0", "3"]]

    @pytest.mark.parametrize(
        "bad",
        [
            {"lo": 0},
            [["1"]],
            [["1", "2", "3"]],
            [["2", "1"]],
            [["1", 2.5]],
            "[[0, 1]]",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            union_from_obj(bad)

    @given(interval_unions())
    def test_prop_round_trip(self, u):
        assert union_from_obj(union_to_obj(u)) == u


class TestLoadPath:
    """Files that are not canonical load to the canonical union or fail as before.

    The expected unions and error texts were recorded before unions were
    held as integer pairs, when every part went through ``Interval`` and a
    merge of Fractions.
    """

    @pytest.mark.parametrize(
        "obj,expected",
        [
            ([["3", "4"], ["0", "1"]], [["0", "1"], ["3", "4"]]),  # unsorted
            ([["0", "2"], ["1", "3"]], [["0", "3"]]),  # overlapping
            ([["0", "1"], ["1/2", "3/4"]], [["0", "1"]]),  # nested
            ([["0", "1"], ["1", "2"]], [["0", "2"]]),  # touching
            ([["1/3", "1/2"], ["1/2", "2/3"]], [["1/3", "2/3"]]),  # touching, mixed denominators
            ([["0", "1"], ["2", "3"], ["1", "2"]], [["0", "3"]]),  # unsorted and touching
            ([["2/4", "6/4"]], [["1/2", "3/2"]]),  # not in lowest terms
            ([["-3/6", "-1/3"]], [["-1/2", "-1/3"]]),
            ([["4/2", "4/2"]], [["2", "2"]]),
            ([["-0", "1"]], [["0", "1"]]),
            ([["-0/5", "0"]], [["0", "0"]]),
            ([["-1/1", "-0"]], [["-1", "0"]]),
            ([["1", "1"], ["0", "1/2"], ["5", "5"]], [["0", "1/2"], ["1", "1"], ["5", "5"]]),  # points
            ([[1, "2"]], [["1", "2"]]),  # a JSON int endpoint
            ([["-0", "007"]], [["0", "7"]]),  # leading zeros
            ([], []),
        ],
    )
    def test_canonicalizes(self, obj, expected):
        u = union_from_obj(obj)
        assert union_to_obj(u) == expected
        assert u == union_from_obj(expected)
        assert u == IntervalUnion(Interval(parse_rational(lo), parse_rational(hi)) for lo, hi in obj)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([["2", "1"]], "endpoints out of order: 2 > 1"),
            ([["1/2", "1/3"]], "endpoints out of order: 1/2 > 1/3"),
            ([["0", "1"], ["3", "2"]], "endpoints out of order: 3 > 2"),
            ([["2", "1"], ["a", "1"]], "endpoints out of order: 2 > 1"),  # first fault wins
            ([["a", "1"], ["2", "1"]], "expected a rational 'p/q' string, got 'a'"),
            ([["0", "1"], "x"], "expected an [lo, hi] pair, got 'x'"),
            ([["0", "1"], [1.5, 2]], "expected a rational 'p/q' string, got 1.5"),
            ([["1", "1/0"]], "expected a rational 'p/q' string, got '1/0'"),
            ([[True, "1"]], "expected a rational 'p/q' string, got True"),
            ("x", "expected a list of [lo, hi] pairs, got 'x'"),
            (BIG_DENOMINATORS, "the common denominator of the endpoints has more than 1000 digits"),
        ],
    )
    def test_errors(self, obj, message):
        with pytest.raises(SchemaError) as err:
            union_from_obj(obj)
        assert str(err.value) == message

    def test_a_refusal_with_no_fault_found_is_a_bug_not_a_schema_error(self, monkeypatch):
        monkeypatch.setattr(serialization, "_NUMERALS", re.compile("(no)(match)"))
        with pytest.raises(RuntimeError):
            union_from_obj([["0", "1"]])

    def test_build_file_round_trips_byte_identically(self, tmp_path):
        diffs = DiffMatrix(((3, -1, 2), (-2, 4, 0)))
        result = build_sets(diffs, F(5, 7))
        path = tmp_path / "built.json"
        write_json(path, build_output_obj(result, verify_differences(result.sets, diffs, F(5, 7))))
        data = read_json(path)
        data["sets"] = [union_to_obj(u) for u in load_sets_file(path)]
        again = tmp_path / "again.json"
        write_json(again, data)
        assert again.read_bytes() == path.read_bytes()


# Endpoints that no loader accepts.
FAULTY_ENDPOINTS = [
    "1 2", "", "+1", " 1", "1\n", "\u0661", "1/01", "1/0", "3/-4", "--1", "1//2", "1/2/3",
    "a", "1.5", 1.5, None, True, False, [1], "9" * 1001, "1/" + "9" * 1001, 10**1000,
]  # fmt: skip


@st.composite
def numerals(draw):
    """A numeral for num/den in one of its spellings: "p/q", "p", a JSON int, zero-padded, "-0"."""
    num, den = draw(st.integers(-40, 40)), draw(st.integers(1, 12))
    spellings = [f"{num}/{den}", f"{'-' if num < 0 else ''}00{abs(num)}/{den}"]
    if den == 1:
        spellings += [str(num), num, f"{num:04d}"]
    if num == 0:
        spellings += ["-0", f"-0/{den}"]
    return F(num, den), draw(st.sampled_from(spellings))


@st.composite
def union_objs(draw):
    """Lists of [lo, hi] numeral pairs, in order or not, some with faults put in.

    Most draws are well formed, so the unions are compared too; the rest
    hold one to three faults (a bad endpoint, a pair out of order, an item
    that is no pair) at random places, so which fault comes first varies.
    """
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        (a, a_text), (b, b_text) = draw(numerals()), draw(numerals())
        pairs.append([a_text, b_text] if a <= b else [b_text, a_text])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        whole = [i for i, pair in enumerate(pairs) if type(pair) is list and len(pair) == 2]
        if not whole:
            break
        i, kind = draw(st.sampled_from(whole)), draw(st.sampled_from("EEOS"))
        if kind == "E":
            pairs[i][draw(st.integers(0, 1))] = draw(st.sampled_from(FAULTY_ENDPOINTS))
        elif kind == "O":
            pairs[i].reverse()
        else:
            pairs[i] = draw(st.sampled_from([["0"], ["0", "1", "2"], "x", None, ("0", "1")]))
    return pairs


def load_outcome(load, obj):
    """The union ``load`` makes of ``obj``, or the text of the ``SchemaError`` it raises."""
    try:
        return load(obj)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


class TestLoaderMatchesReference:
    """``union_from_obj`` against the per-pair loader it replaced (tests/conftest.py)."""

    @given(union_objs())
    @example([["1 2", "3"]])
    @example([["1 2", "a"]])  # a space inside one endpoint, a non-numeral in the other
    @example([["", "1"]])
    @example([["+1", "2"]])
    @example([[" 1", "2"]])
    @example([["0", "1\n"]])
    @example([["\u0661", "2"]])
    @example([["0", "1/01"]])
    @example([["-0", "007"]])
    @example([["0", "9" * 1000], ["-" + "9" * 1000, "1/" + "9" * 1000]])
    @example([["0", "9" * 1001]])
    @example([["0", "1/" + "9" * 1001]])
    @example([[0, 10**1000]])
    @example([[0, 10**1000 - 1]])
    @example([[0, 10**5000]])  # too long for str(), refused as too many digits
    @example([[True, "1"]])
    @example([["0", 1.5]])
    @example([[None, "1"]])
    @example(BIG_DENOMINATORS)
    @example(BIG_DENOMINATORS + [["2", "1"]])  # the order fault comes first
    @example([["2", "1"], ["a", "1"]])  # an order fault before a malformed endpoint
    @example([["a", "1"], ["2", "1"]])  # and after one
    @example([])
    @example("[[0, 1]]")
    def test_prop_same_union_or_same_refusal(self, obj):
        assert load_outcome(union_from_obj, obj) == load_outcome(reference_union_from_obj, obj)


class TestProblemFiles:
    def write(self, tmp_path, obj):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        return path

    def test_load(self, tmp_path):
        path = self.write(
            tmp_path, {"n": 3, "H": 2, "theta": "22/7", "m": [[1, 0], [0, -2]]}
        )
        diffs, theta = load_problem(path)
        assert diffs.rows == ((1, 0), (0, -2))
        assert theta == F(22, 7)

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            {"n": 2, "H": 2, "theta": "1"},
            {"n": 2, "H": 1, "theta": "1", "m": [[1]]},
            {"n": 1, "H": 2, "theta": "1", "m": []},
            {"n": 2, "H": 2, "theta": "0", "m": [[1, 0]]},
            {"n": 2, "H": 2, "theta": "-1/2", "m": [[1, 0]]},
            {"n": 2, "H": 2, "theta": 0.5, "m": [[1, 0]]},
            {"n": 2, "H": 2, "theta": "1", "m": [[1, 0], [0, 1]]},
            {"n": 2, "H": 2, "theta": "1", "m": [[1]]},
            {"n": 2, "H": 2, "theta": "1", "m": [[1, 0.5]]},
            {"n": 2, "H": True, "theta": "1", "m": [[1, 0]]},
            # every shape the table refuses, and an m that is not a list
            {"n": 2, "H": 2, "theta": "1", "m": {"0": [1, 0]}},
            {"n": 2, "H": 2, "theta": "1", "m": []},
            {"n": 3, "H": 2, "theta": "1", "m": [[1, 0], [1]]},
            {"n": 2, "H": 2, "theta": "1", "m": [{"1": 1, "2": 2}]},
            {"n": 3, "H": 2, "theta": "1", "m": [[1, 0], 5]},
            {"n": 2, "H": 2, "theta": "1", "m": [[1, True]]},
            {"n": MAX_SETS + 1, "H": 2, "theta": "1", "m": [[0, 0.5]] * MAX_SETS},
            {"n": 2, "H": MAX_FOLDS + 1, "theta": "1", "m": [[0] * MAX_FOLDS + [0.5]]},
        ],
    )
    def test_rejects_schema_violations(self, tmp_path, obj):
        with pytest.raises(SchemaError):
            load_problem(self.write(tmp_path, obj))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(SchemaError):
            load_problem(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            read_json(bad)

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff", "codec can't decode"), (b"[" * 100_000 + b"]" * 100_000, "recursion")],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_unparseable_bytes_are_not_valid_json(self, tmp_path, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(SchemaError) as err:
            read_json(bad)
        assert str(err.value).startswith(f"{bad} is not valid JSON: ")
        assert reason in str(err.value)

    def test_sets_and_folds_are_capped(self, tmp_path):
        row = [0] * MAX_FOLDS
        at = {"n": MAX_SETS, "H": MAX_FOLDS, "theta": "1", "m": [row] * (MAX_SETS - 1)}
        assert load_problem(self.write(tmp_path, at))[0].n == MAX_SETS
        wide = {"n": MAX_SETS + 1, "H": 2, "theta": "1", "m": [[0, 0]] * MAX_SETS}
        with pytest.raises(SchemaError, match="65 sets, more than the limit of 64 sets"):
            load_problem(self.write(tmp_path, wide))
        deep = {"n": 2, "H": MAX_FOLDS + 1, "theta": "1", "m": [[0] * (MAX_FOLDS + 1)]}
        with pytest.raises(SchemaError, match="65 folds, more than the limit of 64 folds"):
            load_problem(self.write(tmp_path, deep))


class TestSetsFiles:
    def test_sets_are_capped_before_any_union_is_parsed(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"sets": [[["0", "1"]]] * MAX_SETS}))
        assert len(load_sets_file(path)) == MAX_SETS
        # the endpoint that cannot parse is never reached
        path.write_text(json.dumps({"sets": [[["0", "1"]]] * MAX_SETS + [[["x", "1"]]]}))
        with pytest.raises(SchemaError, match="65 sets, more than the limit of 64 sets"):
            load_sets_file(path)

    def test_parts_are_capped_over_all_sets_before_any_union_is_parsed(self, tmp_path):
        path = tmp_path / "sets.json"
        half = MAX_FILE_PARTS // 2
        points = [[i, i] for i in range(MAX_FILE_PARTS - half)]
        path.write_text(json.dumps({"sets": [points[:half], points]}))
        assert sum(len(u.pairs) for u in load_sets_file(path)) == MAX_FILE_PARTS
        # one more pair, whose endpoint cannot parse, is never reached
        path.write_text(json.dumps({"sets": [points[:half], [*points, ["x", "1"]]]}))
        message = f"{MAX_FILE_PARTS + 1} parts, more than the limit of {MAX_FILE_PARTS} parts"
        with pytest.raises(SchemaError, match=message):
            load_sets_file(path)
        # an item that is not a list is not counted; union_from_obj refuses it
        path.write_text(json.dumps({"sets": [points, "x" * MAX_FILE_PARTS]}))
        with pytest.raises(SchemaError, match="expected a list of"):
            load_sets_file(path)


class TestTargetsFiles:
    def write(self, tmp_path, obj):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(obj))
        return path

    def test_load(self, tmp_path):
        path = self.write(tmp_path, {"targets": [[1, 2], [2, 1]]})
        assert load_race_targets(path) == [(1, 2), (2, 1)]
        # one rank tuple is a race of one fold
        assert load_race_targets(self.write(tmp_path, {"targets": [[2, 1]]})) == [(2, 1)]

    @pytest.mark.parametrize(
        "obj",
        [
            {"targets": []},
            {"targets": [[1, 3]]},
            {"targets": [[0, 1]]},
            {"targets": [[2, 2]]},
            {"targets": [[1]]},
            {"targets": [[1, 2], [1, 2, 3]]},
            {"targets": [[1, True]]},
            {"bystanders": [[1, 2]]},
            # every shape the table refuses, and targets that are not a list
            {"targets": {"0": [1, 2]}},
            {"targets": [{"1": 1, "2": 2}]},
            {"targets": [[1, 2], 3]},
            {"targets": [[1, 2.0]]},
            {"targets": [[1] * MAX_SETS + [0.5]]},
            {"targets": [[1, 0.5]] * (MAX_FOLDS + 1)},
        ],
    )
    def test_rejects_schema_violations(self, tmp_path, obj):
        with pytest.raises(SchemaError):
            load_race_targets(self.write(tmp_path, obj))

    def test_rejects_a_target_that_is_not_a_list(self, tmp_path):
        path = self.write(tmp_path, {"targets": [[1, 2], 3]})
        with pytest.raises(SchemaError, match="each table row must be a list or tuple, got 3"):
            load_race_targets(path)


class TestOutputObjects:
    def test_build_output_round_trips_sets(self, tmp_path):
        diffs = DiffMatrix(((1, 0),))
        result = build_sets(diffs, 1)
        report = verify_differences(result.sets, diffs, 1)
        obj = build_output_obj(result, report)
        assert obj["all_pass"] is True
        assert obj["ell"] == [[1, 0], [2, 0]]
        assert obj["params"]["delta"] == "1/64"
        assert all(c["pass"] for c in obj["report"])
        path = tmp_path / "out.json"
        write_json(path, obj)
        assert load_sets_file(path) == list(result.sets)
        # everything numeric travels as strings or ints, never floats
        assert "." not in path.read_text()

    def test_race_output_shape(self):
        bases = [(0, 1, 5, 12), (0, 1, 2, 3, 4)]
        sets, width = realize(bases, 2)
        report = verify_tau_race(sets, bases, [(1, 2), (2, 1)])
        obj = race_output_obj(bases, width, sets, report)
        assert obj["all_pass"] is True
        assert obj["witness"] == [[0, 1, 5, 12], [0, 1, 2, 3, 4]]
        assert obj["width"] == "1/3"
        assert obj["H"] == len(obj["report"]) == 2
        assert [row["target"] for row in obj["report"]] == [[1, 2], [2, 1]]

    def test_sets_file_requires_nonempty_sets(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"sets": []}))
        with pytest.raises(SchemaError):
            load_sets_file(path)
        path.write_text(json.dumps({"other": 1}))
        with pytest.raises(SchemaError):
            load_sets_file(path)


# Everything write_json accepts: str-keyed dicts, lists, str, int and bool,
# nested, with empty containers and strings that need escaping.
json_values = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(),
        st.text(),
        st.sampled_from(["", "\u00e9\u00df", "\U0001f600", '"\\/', "\n\t\r\x00\x1f\x7f", "3/4"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=30,
)


class Colour(IntEnum):
    RED = 1


class Label(str):
    pass


class TestWriteJson:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(json_values)
    def test_prop_bytes_equal_indent_2_dumps(self, tmp_path, obj):
        path = tmp_path / "out.json"
        write_json(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()

    @pytest.mark.parametrize("obj", [{}, [], [{}], {"a": []}, [[], [[]], {}], ""])
    def test_empty_containers(self, tmp_path, obj):
        path = tmp_path / "out.json"
        write_json(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            *(1.5, None, (1, 2), {1: "a"}, ["ok", None], {"a": [1, 2.0]}, {"a", "b"}),
            Colour.RED,  # an int subclass
            Label("ok"),  # a str subclass
        ],
    )
    def test_rejects_what_the_outputs_never_hold(self, tmp_path, obj):
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", obj)
