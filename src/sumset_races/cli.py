"""Command line front end: build, verify, race, plot, oracle.

Exit codes: 0 success, 2 file or schema problems (argparse usage errors
share this code), 3 a verification check failed, 4 the race search
exhausted its space without a witness. Any other exception is a fault in
the program: it propagates with its traceback (exit 1), never as exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import serialization as ser
from .construction import BuildBudgetError, build_sets, verify_differences
from .discrete import check_race_bounds, search_race_sets
from .intervals import grid_measure_oracle
from .realization import realize, verify_tau_race
from .svg import PALETTE, RenderRow, UndrawableError, render

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VERIFY = 3
EXIT_EXHAUSTED = 4

MAX_PLOT_FOLDS = 64
"""Largest ``plot --hmax``: the chart has one row per set and fold.

Its size grows linearly with the folds drawn (the README's two-set build
writes 94 KB at 64 folds). Like ``discrete.MAX_RACE_FOLDS``, 64 is 16
times the deepest fold count in the benchmark catalogue.
"""


def _cmd_build(args: argparse.Namespace) -> int:
    diffs, theta = ser.load_problem(args.problem)
    try:
        result = build_sets(diffs, theta)
    except BuildBudgetError as exc:
        raise ser.SchemaError(str(exc)) from None
    report = verify_differences(result.sets, diffs, theta)
    ser.write_json(args.output, ser.build_output_obj(result, report))
    if not report.all_ok:
        print("internal verification failed; see the report in the output file", file=sys.stderr)
        return EXIT_VERIFY
    print(
        f"built {diffs.n} sets (H={diffs.H}, theta={ser.format_rational(theta)}); "
        f"all {len(report.checks)} difference checks pass"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    sets = ser.load_sets_file(args.sets)
    diffs, theta = ser.load_problem(args.problem)
    if len(sets) != diffs.n:
        raise ser.SchemaError(f"sets file has {len(sets)} sets but the problem says n={diffs.n}")
    report = verify_differences(sets, diffs, theta)
    print(f"{'pair':>4} {'h':>3} {'computed':>16} {'target':>16} status")
    for c in report.checks:
        status = "ok" if c.ok else "FAIL"
        print(
            f"{c.pair:>4} {c.h:>3} {ser.format_rational(c.computed):>16} "
            f"{ser.format_rational(c.target):>16} {status}"
        )
    bad_tel = [t for t in report.telescoping if not t.ok]
    print(f"telescoping: {len(report.telescoping) - len(bad_tel)}/{len(report.telescoping)} ok")
    if not report.all_ok:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def _cmd_race(args: argparse.Namespace) -> int:
    targets = ser.load_race_targets(args.targets)
    try:
        check_race_bounds(args.ground, args.maxsize)
    except ValueError as exc:
        raise ser.SchemaError(str(exc)) from None
    witness = search_race_sets(targets, args.ground, args.maxsize)
    if witness is None:
        print(
            f"search exhausted: no witness with elements in [0, {args.ground}] "
            f"and at most {args.maxsize} elements per set"
        )
        return EXIT_EXHAUSTED
    sets, width = realize(witness, len(targets))
    report = verify_tau_race(sets, witness, targets)
    ser.write_json(args.output, ser.race_output_obj(witness, width, sets, report))
    if not report.all_ok:
        print("realized witness failed verification", file=sys.stderr)
        return EXIT_VERIFY
    pretty = ", ".join("{" + ", ".join(map(str, b)) + "}" for b in witness)
    print(f"witness found: {pretty}; realized with block width {ser.format_rational(width)}")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    if not 1 <= args.hmax <= MAX_PLOT_FOLDS:
        raise ser.SchemaError(f"--hmax must lie between 1 and {MAX_PLOT_FOLDS}")
    sets = ser.load_sets_file(args.sets)
    rows = []
    for i, s in enumerate(sets, start=1):
        color = PALETTE[(i - 1) % len(PALETTE)]
        for h, fold in enumerate(s.folds(args.hmax), start=1):
            label = f"A{i}" if h == 1 else f"{h}A{i}"
            rows.append(RenderRow(label=label, union=fold, color=color))
    try:
        doc = render(rows, title=f"{len(sets)} sets, folds up to {args.hmax}")
    except UndrawableError as exc:
        raise ser.SchemaError(str(exc)) from None
    with open(args.svg, "w") as fh:
        fh.write(doc + "\n")
    print(f"wrote {args.svg} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    sets = ser.load_sets_file(args.sets)
    step = ser.parse_rational(args.grid_step)
    if step <= 0:
        raise ser.SchemaError("--grid-step must be positive")
    print(f"{'set':>4} {'inner':>16} {'measure':>16} {'outer':>16} status")
    all_ok = True
    for i, s in enumerate(sets, start=1):
        inner, outer = grid_measure_oracle(s, step)
        exact = s.measure()
        ok = inner <= exact <= outer and outer - inner <= 2 * step * len(s.pairs)
        all_ok &= ok
        print(
            f"{i:>4} {ser.format_rational(inner):>16} {ser.format_rational(exact):>16} "
            f"{ser.format_rational(outer):>16} {'ok' if ok else 'FAIL'}"
        )
    if not all_ok:
        print("grid oracle disagreed with the exact measure", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and then reused."""
    parser = argparse.ArgumentParser(
        prog="sumset-races",
        description="Exact interval sets whose h-fold sumset measures race as prescribed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build sets from a problem file of difference targets")
    p.add_argument("problem", help="problem JSON: {n, H, theta, m}")
    p.add_argument("output", help="where to write the built sets and report")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="recheck a sets file against a problem file")
    p.add_argument("sets", help="output JSON from build (or race)")
    p.add_argument("problem", help="problem JSON the sets claim to solve")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("race", help="search for integer sets racing as ordered, then realize them")
    p.add_argument("targets", help="targets JSON: {targets: [[rank, ...], ...]}")
    p.add_argument("output", help="where to write the witness, sets and report")
    p.add_argument("--ground", type=int, default=12, help="search elements in [0, ground]")
    p.add_argument("--maxsize", type=int, default=5, help="max elements per set")
    p.set_defaults(func=_cmd_race)

    p = sub.add_parser("plot", help="render a sets file to an SVG number-line chart")
    p.add_argument("sets", help="JSON file with a 'sets' key")
    p.add_argument("svg", help="output SVG path")
    p.add_argument("--hmax", type=int, default=1, help="draw folds 1..hmax of every set")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("oracle", help="cross-check exact measures against a counting grid")
    p.add_argument("sets", help="JSON file with a 'sets' key")
    p.add_argument("--grid-step", default="1/1024", help="cell width as 'p/q' (default 1/1024)")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ser.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
