"""JSON interchange: rationals as "p/q" strings, unions as endpoint pairs.

Rationals serialize in lowest terms, with a bare "p" when the denominator
is 1; floats are rejected on input so nothing inexact can leak into the
arithmetic. Interval unions serialize as ordered lists of [lo, hi] string
pairs. This is the one format shared by every module and the CLI.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Sequence

from .construction import (
    BuildResult,
    DiffMatrix,
    DifferenceReport,
)
from .discrete import IntSet, check_race_targets
from .intervals import IntervalUnion, _require_int
from .realization import RealizationPlan, TauRaceReport

__all__ = [
    "SchemaError",
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


class SchemaError(ValueError):
    """The file or object does not follow the interchange format."""


@contextmanager
def _schema_errors() -> Iterator[None]:
    """Report the library's TypeError/ValueError on file content as SchemaError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


_RATIONAL = re.compile(r"^-?\d+(?:/[1-9][0-9]*)?$")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_ratio(obj: Any) -> tuple[int, int]:
    """Numerator and positive denominator of a JSON int or a "p/q" string.

    The pair is not reduced. A numeral over the interpreter's limit on
    int-string digits is refused as a ``SchemaError``, like any malformed one.
    """
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj, 1
    if isinstance(obj, str) and _RATIONAL.match(obj):
        num, _, den = obj.partition("/")
        try:
            return int(num), int(den or 1)
        except ValueError as exc:
            raise SchemaError(f"rational too long: {exc}") from None
    raise SchemaError(f"expected a rational 'p/q' string, got {obj!r}")


def parse_rational(obj: Any) -> Fraction:
    return Fraction(*_parse_ratio(obj))


def _format_ratio(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for den > 0, without the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def union_to_obj(union: IntervalUnion) -> list[list[str]]:
    s = union.scale
    return [[_format_ratio(lo, s), _format_ratio(hi, s)] for lo, hi in union.pairs]


def union_from_obj(obj: Any) -> IntervalUnion:
    """Load a union from its [lo, hi] pairs, in any order, overlapping or not.

    Endpoints are parsed to integers and put over one scale; pairs that
    ``union_to_obj`` wrote are already sorted and apart, so they are not
    merged again.
    """
    if not isinstance(obj, list):
        raise SchemaError(f"expected a list of [lo, hi] pairs, got {obj!r}")
    nums, dens = [], []  # the endpoints in file order, lo then hi
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"expected an [lo, hi] pair, got {item!r}")
        (lo_num, lo_den), (hi_num, hi_den) = _parse_ratio(item[0]), _parse_ratio(item[1])
        if lo_num * hi_den > hi_num * lo_den:
            lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
            raise SchemaError(f"endpoints out of order: {lo} > {hi}")
        nums += (lo_num, hi_num)
        dens += (lo_den, hi_den)
    scale = math.lcm(*dens)
    ends = [num * (scale // den) for num, den in zip(nums, dens)]
    pairs = list(zip(ends[::2], ends[1::2]))
    return IntervalUnion._from_pairs(scale, pairs)


def read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int over the digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_problem(path: str | Path) -> tuple[DiffMatrix, Fraction]:
    """Read a problem file: {"n", "H", "theta": "p/q", "m": [[int, ...], ...]}."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError("problem file must be a JSON object")
    for key in ("n", "H", "theta", "m"):
        if key not in data:
            raise SchemaError(f"problem file is missing {key!r}")
    with _schema_errors():
        n = _require_int(data["n"], "n", lo=2)
        H = _require_int(data["H"], "H", lo=2)
    theta = parse_rational(data["theta"])
    if theta <= 0:
        raise SchemaError(f"theta must be positive, got {theta}")
    m = data["m"]
    if not isinstance(m, list) or len(m) != n - 1:
        raise SchemaError(f"m must be a list of n-1 = {n - 1} rows")
    if any(not isinstance(row, list) or len(row) != H for row in m):
        raise SchemaError(f"each m row must list H = {H} integers")
    with _schema_errors():
        return DiffMatrix(tuple(tuple(row) for row in m)), theta


def load_sets_file(path: str | Path) -> list[IntervalUnion]:
    """Read the "sets" list out of a build or race output file."""
    data = read_json(path)
    if not isinstance(data, dict) or "sets" not in data:
        raise SchemaError("sets file must be a JSON object with a 'sets' key")
    sets_obj = data["sets"]
    if not isinstance(sets_obj, list) or not sets_obj:
        raise SchemaError("'sets' must be a nonempty list")
    return [union_from_obj(item) for item in sets_obj]


def load_race_targets(path: str | Path) -> list[tuple[int, ...]]:
    """Read a race targets file: {"targets": [[rank, ...], ...]}, one tuple per fold."""
    data = read_json(path)
    if not isinstance(data, dict) or "targets" not in data:
        raise SchemaError("targets file must be a JSON object with a 'targets' key")
    raw = data["targets"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'targets' must be a nonempty list of rank tuples")
    for row in raw:
        if not isinstance(row, list):
            raise SchemaError(f"each target must be a list of ranks, got {row!r}")
    with _schema_errors():
        return check_race_targets(raw)


def _difference_report_objs(report: DifferenceReport) -> tuple[list, list]:
    checks = [
        {
            "pair": c.pair,
            "h": c.h,
            "computed": format_rational(c.computed),
            "target": format_rational(c.target),
            "pass": c.ok,
        }
        for c in report.checks
    ]
    telescoping = [
        {"j": t.j, "k": t.k, "h": t.h, "pass": t.ok} for t in report.telescoping
    ]
    return checks, telescoping


def build_output_obj(result: BuildResult, report: DifferenceReport) -> dict:
    checks, telescoping = _difference_report_objs(report)
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
        "report": checks,
        "telescoping": telescoping,
        "all_pass": report.all_ok,
    }


def race_output_obj(
    witness: Sequence[IntSet],
    plan: RealizationPlan,
    sets: Sequence[IntervalUnion],
    report: TauRaceReport,
    targets: Sequence[tuple[int, ...]],
) -> dict:
    rows = []
    for check, target in zip(report.checks, targets):
        rows.append(
            {
                "h": check.h,
                "measures": [format_rational(v) for v in check.measures],
                "measure_ranks": list(check.measure_ranks),
                "cardinalities": list(check.cardinalities),
                "cardinality_ranks": list(check.cardinality_ranks),
                "target": list(target),
                "pass": check.ok and check.cardinality_ranks == tuple(target),
            }
        )
    return {
        "witness": [list(b) for b in witness],
        "width": format_rational(plan.width),
        "H": plan.horizon,
        "sets": [union_to_obj(s) for s in sets],
        "report": rows,
        "all_pass": all(row["pass"] for row in rows),
    }
