"""JSON interchange: rationals as "p/q" strings, unions as endpoint pairs.

Rationals serialize in lowest terms, with a bare "p" when the denominator
is 1, and ``format_rational`` is the one routine that prints them; floats
are rejected on input so nothing inexact can leak into the arithmetic,
and so are numbers too long to print again (``MAX_NUMERAL_DIGITS``).
Interval unions serialize as ordered lists of [lo, hi] string pairs.
This is the one format shared by every module and the CLI.

Both directions work in bulk: ``union_from_obj`` reads all of a union's
endpoints with one regex pass and C-level maps, and ``write_json`` writes
each scalar with one C-level call. Both take their values by exact type,
as ``json.loads`` makes them, and so does ``parse_rational``: a subclass
of str, int, list or dict is refused.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import gt, itemgetter, mul
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

from .construction import (
    MAX_BUILD_GAPS,
    BuildResult,
    DiffMatrix,
    DifferenceReport,
)
from .discrete import IntSet, RankTable
from .intervals import MAX_SETS, IntervalUnion, Rational, SchemaError, _require_int
from .realization import TauRaceReport

__all__ = [
    "SchemaError",
    "MAX_NUMERAL_DIGITS",
    "MAX_FILE_PARTS",
    "format_rational",
    "parse_rational",
    "union_to_obj",
    "union_from_obj",
    "read_json",
    "write_json",
    "load_problem",
    "load_sets_file",
    "load_race_targets",
    "build_output_obj",
    "race_output_obj",
]


MAX_NUMERAL_DIGITS = 1000
"""Most decimal digits in a numeral read from a file, and in a sets file's common denominator.

A problem file gets half as many, for theta's numerator and denominator
in lowest terms and for each entry of ``m``. ``build`` multiplies theta
into every endpoint it writes, and the other half leaves room for the
construction's own grid: with theta at 500 digits over 500 digits, the
n=4, H=8, |m| <= 50 problem of tests/test_golden.py writes numerators of
506 digits, so every file ``build`` writes loads again. The longest
number a subcommand then prints is a difference of two fold measures
over unrelated denominators, of about 3 * 1000 digits at most, under the
interpreter's default limit of 4300 digits on converting an int to text.
Real files are far shorter: that problem, with its own theta of 5/113,
writes numerals of at most 7 digits.
"""

MAX_FILE_PARTS = MAX_BUILD_GAPS + 4 * MAX_SETS
"""Most [lo, hi] pairs a sets file may hold, summed over its sets: 100,256.

Every file ``build`` or ``race`` writes passes. A built set has its
carved gaps + 4 parts at most (the seed, two filler blocks, and the
carved block's gaps + 1), and a build carves at most ``MAX_BUILD_GAPS``
gaps in all; a race writes at most ``MAX_SETS`` sets of at most 20
elements each. ``load_sets_file`` counts the pairs before any union is
built. On 2 vCPU, a 26.9 MB sets file of 1,000,000 parts ran ``oracle``
to exit 0 in 3.9 s at 861 MB peak RSS without the cap, and is refused
with exit 2 in 1.0 s at 289 MB: reading and parsing the file is what
remains. The hostile build's output (88,208 parts) verifies in 2.5 s at
68 MB.
"""

_NUMERAL_LIMIT = 10**MAX_NUMERAL_DIGITS
_PROBLEM_LIMIT = 10 ** (MAX_NUMERAL_DIGITS // 2)


def _bounded(value: int, what: str, limit: int = _NUMERAL_LIMIT) -> int:
    """Return ``value`` if its magnitude is below ``limit``, else raise ``SchemaError``."""
    if abs(value) >= limit:
        raise SchemaError(f"{what} has more than {len(str(limit)) - 1} digits")
    return value


_RATIONAL = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")
_NUMERALS = re.compile(
    rf"(?<![^ ])(-?[0-9]{{1,{MAX_NUMERAL_DIGITS}}})"
    rf"(?:/([1-9][0-9]{{0,{MAX_NUMERAL_DIGITS - 1}}}))? "
)
"""``_RATIONAL`` with at most ``MAX_NUMERAL_DIGITS`` digits in each part, in a
text of endpoints each followed by one space: each match gives a numeral's
numerator and denominator text ("" for a bare "p"), and none starts inside
an endpoint."""


def format_rational(value: Rational, scale: int = 1) -> str:
    """``value / scale`` in lowest terms, as "p/q" or as "p" when it is an integer.

    ``value`` is an int or a ``Fraction`` and ``scale`` a positive int, so
    a union's integer endpoints print without a ``Fraction`` being made.
    """
    num, den = value.numerator, value.denominator * scale
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _parse_ratio(obj: Any) -> tuple[int, int]:
    """Numerator and positive denominator of a JSON int or a "p/q" string.

    The pair is not reduced. A numeral of more than ``MAX_NUMERAL_DIGITS``
    digits is refused as a ``SchemaError``, like any malformed one. It
    takes exactly what ``_NUMERALS`` and ``union_from_obj``'s type check
    take, so ``_raise_first_fault`` finds a fault wherever they do.
    """
    if type(obj) is int:
        return _bounded(obj, "an integer"), 1
    if type(obj) is str and _RATIONAL.fullmatch(obj):
        num, _, den = obj.partition("/")
        # checked on the text, before int() meets the interpreter's digit limit
        if max(len(num.lstrip("-")), len(den)) > MAX_NUMERAL_DIGITS:
            raise SchemaError(f"a rational has a numeral of more than {MAX_NUMERAL_DIGITS} digits")
        return int(num), int(den or 1)
    raise SchemaError(f"expected a rational 'p/q' string, got {obj!r}")


def parse_rational(obj: Any) -> Fraction:
    return Fraction(*_parse_ratio(obj))


def union_to_obj(union: IntervalUnion) -> list[list[str]]:
    s = union.scale
    return [[format_rational(lo, s), format_rational(hi, s)] for lo, hi in union.pairs]


def union_from_obj(obj: Any) -> IntervalUnion:
    """Load a union from its [lo, hi] pairs, in any order, overlapping or not.

    ``obj`` is what ``json.loads`` makes of a union: a list of 2-item
    lists whose endpoints are numerals (``str``) or JSON ints (``int``,
    not ``bool``), by exact type. Every endpoint is read in one pass: the
    endpoints are joined into one text, each numeral is matched by one
    regex that also bounds its digits, and the numerators and the
    distinct denominators become ints by ``map``. The ends are put over
    one scale, which may have at most ``MAX_NUMERAL_DIGITS`` digits; pairs
    that ``union_to_obj`` wrote are already sorted and apart, so they are
    not merged again. If any check fails, ``_raise_first_fault`` walks the
    pairs in file order and raises the ``SchemaError`` for the first fault.
    """
    if (
        type(obj) is not list
        or not set(map(type, obj)) <= {list}
        or not set(map(len, obj)) <= {2}
    ):
        _raise_first_fault(obj)
    ends = list(chain.from_iterable(obj))  # lo then hi, in file order
    if not set(map(type, ends)) <= {str, int}:
        _raise_first_fault(obj)
    try:
        text = " ".join(chain(map(str, ends), ("",)))  # each endpoint followed by one space
    except ValueError:  # an int past the interpreter's limit on printing digits
        _raise_first_fault(obj)
    numerals = _NUMERALS.findall(text)
    # with no space inside an endpoint, each endpoint holds at most one match
    if text.count(" ") != len(ends) or len(numerals) != len(ends):
        _raise_first_fault(obj)
    den_texts = list(map(itemgetter(1), numerals))
    dens = {q: int(q or 1) for q in set(den_texts)}
    try:
        scale = _common_denominator(dens.values())
    except SchemaError:  # an earlier fault in file order wins
        _raise_first_fault(obj)
    multiplier = {q: scale // den for q, den in dens.items()}
    nums = map(int, map(itemgetter(0), numerals))
    scaled = list(map(mul, nums, map(multiplier.__getitem__, den_texts)))
    los, his = scaled[::2], scaled[1::2]
    if any(map(gt, los, his)):
        _raise_first_fault(obj)
    return IntervalUnion._from_pairs(scale, list(zip(los, his)))


def _common_denominator(dens: Iterable[int]) -> int:
    scale = 1
    for den in dens:  # stops at the bound, however many denominators follow
        scale = _bounded(math.lcm(scale, den), "the common denominator of the endpoints")
    return scale


def _raise_first_fault(obj: Any) -> NoReturn:
    """Raise the ``SchemaError`` for the first fault of ``obj`` in file order.

    The pairs are read one by one, each endpoint by ``_parse_ratio`` and
    each pair's order checked by cross-multiplying, and the common
    denominator is bounded last, so a file with several faults reports
    the same one however ``union_from_obj`` came to refuse it. This never
    returns a union: an ``obj`` with no fault is a bug in
    ``union_from_obj``, and is not reported as the file's.
    """
    if type(obj) is not list:
        raise SchemaError(f"expected a list of [lo, hi] pairs, got {obj!r}")
    dens = set()
    for item in obj:
        if type(item) is not list or len(item) != 2:
            raise SchemaError(f"expected an [lo, hi] pair, got {item!r}")
        (lo_num, lo_den), (hi_num, hi_den) = _parse_ratio(item[0]), _parse_ratio(item[1])
        if lo_num * hi_den > hi_num * lo_den:
            lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
            raise SchemaError(f"endpoints out of order: {lo} > {hi}")
        dens.update((lo_den, hi_den))
    _common_denominator(dens)
    raise RuntimeError("union_from_obj refused a union in which no pair has a fault")


def read_json(path: str | Path) -> Any:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge int, deep nesting
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` writes it, plus a newline.

    The standard encoder runs in pure Python whenever it indents, so the
    text is built here directly, in the same layout. Only what the output
    files hold is taken, by exact type: dicts with str keys, lists, and the
    scalars of ``_SCALARS`` (str, int and bool, each written by one C-level
    call); anything else, a subclass of these included, raises
    ``TypeError``.
    """
    chunks: list[str] = []
    _encode(obj, "\n", chunks)
    chunks.append("\n")
    Path(path).write_text("".join(chunks))


_SCALARS = {
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
}
"""The JSON text of each scalar type ``write_json`` takes, keyed by exact type."""


def _encode(obj: Any, newline: str, chunks: list[str]) -> None:
    """Append the indent-2 JSON text of ``obj`` to ``chunks``; ``newline`` starts its lines.

    The list and dict loops write each scalar item through ``_SCALARS``
    themselves, so they recurse only into lists and dicts.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        chunks.append(scalar(obj))
        return
    inner = newline + "  "
    sep = "," + inner
    if type(obj) is list:
        if not obj:
            chunks.append("[]")
            return
        head = "[" + inner
        for item in obj:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                chunks.append(head)
                _encode(item, inner, chunks)
            else:
                chunks.append(head + scalar(item))
            head = sep
        chunks.append(newline + "]")
    elif type(obj) is dict:
        if not obj:
            chunks.append("{}")
            return
        head = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            head += encode_basestring_ascii(key) + ": "
            scalar = _SCALARS.get(type(value))
            if scalar is None:
                chunks.append(head)
                _encode(value, inner, chunks)
            else:
                chunks.append(head + scalar(value))
            head = sep
        chunks.append(newline + "}")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def load_problem(path: str | Path) -> tuple[DiffMatrix, Fraction]:
    """Read a problem file: {"n", "H", "theta": "p/q", "m": [[int, ...], ...]}."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError("problem file must be a JSON object")
    for key in ("n", "H", "theta", "m"):
        if key not in data:
            raise SchemaError(f"problem file is missing {key!r}")
    try:
        n = _require_int(data["n"], "n", lo=2)
        H = _require_int(data["H"], "H", lo=2)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None
    theta = parse_rational(data["theta"])
    if theta <= 0:
        raise SchemaError(f"theta must be positive, got {theta}")
    if not isinstance(data["m"], list):
        raise SchemaError("m must be a list of rows")
    try:
        diffs = DiffMatrix(data["m"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None
    if (diffs.n, diffs.H) != (n, H):
        raise SchemaError(f"m needs n-1 = {n - 1} rows of H = {H}, got {diffs.n - 1} of {diffs.H}")
    for value in (theta.numerator, theta.denominator, *chain.from_iterable(diffs.rows)):
        _bounded(value, "a number in the problem file", _PROBLEM_LIMIT)
    return diffs, theta


def load_sets_file(path: str | Path) -> list[IntervalUnion]:
    """Read the "sets" list out of a build or race output file.

    The sets and their pairs are counted against ``MAX_SETS`` and
    ``MAX_FILE_PARTS`` before any union is built.
    """
    data = read_json(path)
    if not isinstance(data, dict) or "sets" not in data:
        raise SchemaError("sets file must be a JSON object with a 'sets' key")
    sets_obj = data["sets"]
    if not isinstance(sets_obj, list) or not sets_obj:
        raise SchemaError("'sets' must be a nonempty list")
    if len(sets_obj) > MAX_SETS:
        raise SchemaError(f"{len(sets_obj)} sets, more than the limit of {MAX_SETS} sets")
    parts = sum(len(item) for item in sets_obj if type(item) is list)  # others are refused below
    if parts > MAX_FILE_PARTS:
        raise SchemaError(f"{parts} parts, more than the limit of {MAX_FILE_PARTS} parts")
    return [union_from_obj(item) for item in sets_obj]


def load_race_targets(path: str | Path) -> list[tuple[int, ...]]:
    """Read a race targets file: {"targets": [[rank, ...], ...]}, a ``RankTable``'s rows."""
    data = read_json(path)
    if not isinstance(data, dict) or "targets" not in data:
        raise SchemaError("targets file must be a JSON object with a 'targets' key")
    if not isinstance(data["targets"], list):
        raise SchemaError("'targets' must be a list of rank tuples")
    try:
        return list(RankTable(data["targets"]).rows)
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def build_output_obj(result: BuildResult, report: DifferenceReport) -> dict:
    params = result.params
    return {
        "params": {
            "eps": format_rational(params.eps),
            "delta": format_rational(params.delta),
            "c": format_rational(params.c),
            "H": params.H,
            "n": params.n,
        },
        "ell": [list(row) for row in result.carves.rows],
        "sets": [union_to_obj(s) for s in result.sets],
        "report": [
            {
                "pair": c.pair,
                "h": c.h,
                "computed": format_rational(c.computed),
                "target": format_rational(c.target),
                "pass": c.ok,
            }
            for c in report.checks
        ],
        "telescoping": [
            {"j": t.j, "k": t.k, "h": t.h, "pass": t.ok} for t in report.telescoping
        ],
        "all_pass": report.all_ok,
    }


def race_output_obj(
    witness: Sequence[IntSet],
    width: Fraction,
    sets: Sequence[IntervalUnion],
    report: TauRaceReport,
) -> dict:
    return {
        "witness": [list(b) for b in witness],
        "width": format_rational(width),
        "H": len(report.checks),
        "sets": [union_to_obj(s) for s in sets],
        "report": [
            {
                "h": c.h,
                "measures": [format_rational(v) for v in c.measures],
                "measure_ranks": list(c.measure_ranks),
                "cardinalities": list(c.cardinalities),
                "cardinality_ranks": list(c.cardinality_ranks),
                "target": list(c.target),
                "pass": c.ok,
            }
            for c in report.checks
        ],
        "all_pass": report.all_ok,
    }
