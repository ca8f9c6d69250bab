"""Seeded inputs and op plans for the three benchmark workloads.

An op is one CLI subcommand invocation, given as the argv list that
``sumset_races.cli.main`` receives. ``make_plan`` writes every input file a
workload needs under its work directory and returns one pass of ops; the
harness replays that pass until the run's time is up. The seed is the only
source of randomness, so one seed always gives byte-identical inputs.

Why these workloads (the layer each one stresses, and what should move):

* fold-heavy: a ladder of build+verify instances from n=3, H=4 up to
  n=4, H=8, |m| <= 50 and n=8, H=6. ``verify_differences`` recomputes every
  fold with ``IntervalUnion.__add__``, so the interval kernel dominates. A
  faster Minkowski sum or a shared fold ladder shows up here.
* race-search: rank-pattern targets for ``race`` with both found and
  exhausted verdicts. ``discrete`` does nearly all the work; the interval
  kernel is idle, so a kernel change should leave it unchanged, and a
  search over profiles instead of candidates shows up here.
* session-small: many small problems through the README session (build,
  verify, plot, oracle) and its race step. Argparse, JSON I/O, carving and
  SVG share the time with many small interval canonicalizations, so
  per-call overhead anywhere shows up here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fold-heavy", "race-search", "session-small")

CATALOGUE = Path(__file__).resolve().parent / "data" / "race_catalogue.json"


@dataclass(frozen=True)
class Op:
    """One CLI call plus what the plan knows about it independently of the program."""

    argv: tuple[str, ...]
    output: str | None  # file the op writes, if any
    gaps: int = 0  # build: total gaps carved, from an independent solve/lift
    verdict: str | None = None  # race: "found" or "exhausted", from the catalogue
    witness: tuple[tuple[int, ...], ...] | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]


def carve_totals(rows: list[list[int]]) -> list[int]:
    """Gaps each set carves for a difference table: solve, then lift per width class.

    A plain restatement of the construction's recurrence, kept here so the
    generator can size instances and the trace can be cross-checked without
    asking the program under test.
    """
    H = len(rows[0])
    steps = []
    for d in rows:
        x = [0] * H
        x[H - 1] = d[H - 1]
        x[H - 2] = d[H - 2] - 2 * d[H - 1]
        for r in range(H - 3, -1, -1):
            x[r] = d[r] - 2 * d[r + 1] + d[r + 2]
        steps.append(x)
    n = len(rows) + 1
    totals = [0] * n
    for r in range(H):
        partial, lowest, column = 0, 0, [0]
        for i in range(n - 1):
            partial += steps[i][r]
            column.append(partial)
            lowest = min(lowest, partial)
        for i in range(n):
            totals[i] += column[i] - lowest
    if any(t == 0 for t in totals):
        totals = [t + 1 for t in totals]
    return totals


# fold-heavy rungs: (instances, n, H, |m| bound, theta, smooth rows, band of
# total gaps). Each instance's total gap count is held to a narrow band by
# rejection, because verify cost grows with the square of the part count.
# Light, middle and heavy rungs give 6, 12 and 10 ops per pass (plus three
# small ops), so the median op falls in the middle of the middle rung and
# the tail op (p75 or p90) among the five heavy instances, and neither hangs
# on a single instance. The middle rung is n=8, H=6 because its cost within
# a band varies least: n=4, H=8 instances in one gap band differed by up to
# 3x, and a median drawn from them moved with the seed.
FOLD_RUNGS = (
    (1, 3, 4, 5, "1", False, (40, 60)),
    (1, 3, 4, 20, "7/3", False, (170, 200)),
    (1, 4, 6, 10, "113/7", False, (190, 220)),
    (6, 8, 6, 5, "7", False, (300, 330)),
    (5, 4, 8, 50, "7/113", True, (320, 340)),
)

# session-small: problems the size of the acceptance gate's random builds
# (|m| <= 5), five for each (n, H) with n and H in 2..4, each held to the
# middle fifth of its class's total gap counts so a seed changes the problems
# but not the cost of a pass. Entries: (n, H, band of total gaps).
SESSION_CLASSES = (
    (2, 2, (7, 10)), (2, 3, (12, 15)), (2, 4, (18, 23)),
    (3, 2, (18, 23)), (3, 3, (33, 40)), (3, 4, (47, 57)),
    (4, 2, (32, 40)), (4, 3, (58, 70)), (4, 4, (86, 101)),
)
SESSION_PER_CLASS = 5
SESSION_THETAS = ("1", "3/7", "22/7", "5/2", "113/355", "9/4")

# race-search strata: (ops per pass, verdict, shape filter, catalogue seconds band).
# Bands keep each stratum's cost class fixed across seeds; the mix covers
# n=2..3, horizon 2..4, ground 12..16 and maxsize 5..6 with both verdicts.
# Strata are listed cheapest first. The second draws 20 of the 22 catalogue
# entries in its band, so the median op (the middle of that stratum) hardly
# depends on the seed; the last holds over 10% of the ops, so the tail op
# falls inside it whether a run's op count selects p90 or p95.
RACE_STRATA = (
    (10, "found", lambda e: e["ground"] == 12, (0.005, 0.035)),
    (20, "exhausted", lambda e: len(e["targets"][0]) == 3, (0.05, 0.07)),
    (4, "found", lambda e: e["ground"] >= 14, (0.14, 0.21)),
    (6, "exhausted", lambda e: e["ground"] == 12 and len(e["targets"][0]) == 2, (0.22, 0.26)),
)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n")
    return path.as_posix()


def _sample_rows(rng: random.Random, n: int, H: int, bound: int, smooth: bool) -> list[list[int]]:
    rows = []
    for _ in range(n - 1):
        if smooth:
            # A bounded random walk over h: large targets, small second differences.
            value = rng.randint(-bound, bound)
            row = []
            for _ in range(H):
                row.append(value)
                value = max(-bound, min(bound, value + rng.randint(-9, 9)))
        else:
            row = [rng.randint(-bound, bound) for _ in range(H)]
        rows.append(row)
    return rows


def _view_ops(work: Path, tag: str, built: str) -> list[Op]:
    svg = (work / f"{tag}.svg").as_posix()
    return [
        Op(("plot", built, svg, "--hmax", "2"), svg),
        Op(("oracle", built), None),
    ]


def _problem_ops(work: Path, tag: str, rows, theta: str, view: bool) -> list[Op]:
    """build then verify (then plot and oracle when ``view``) for one difference table."""
    n, H = len(rows) + 1, len(rows[0])
    problem = _write(work / f"{tag}.problem.json", {"n": n, "H": H, "theta": theta, "m": rows})
    built = (work / f"{tag}.built.json").as_posix()
    ops = [
        Op(("build", problem, built), built, gaps=sum(carve_totals(rows))),
        Op(("verify", built, problem), None),
    ]
    return ops + (_view_ops(work, tag, built) if view else [])


def _banded_rows(rng: random.Random, n: int, H: int, bound: int, smooth: bool, band) -> list[list[int]]:
    lo, hi = band
    while True:
        rows = _sample_rows(rng, n, H, bound, smooth)
        if lo <= sum(carve_totals(rows)) <= hi:
            return rows


def _race_op(work: Path, tag: str, entry: dict) -> Op:
    targets = _write(work / f"{tag}.targets.json", {"targets": entry["targets"]})
    out = (work / f"{tag}.race.json").as_posix()
    witness = entry["witness"]
    return Op(
        ("race", targets, out, "--ground", str(entry["ground"]), "--maxsize", str(entry["maxsize"])),
        out,
        verdict=entry["verdict"],
        witness=None if witness is None else tuple(tuple(b) for b in witness),
    )


def _catalogue() -> list[dict]:
    return json.loads(CATALOGUE.read_text())["entries"]


# Every workload also makes one small op of each kind it would otherwise
# skip, so every layer is entered in every pass and no per-layer time is a
# constant zero. These ops cost well under 1% of a pass. The race is the
# README's lead flip, found at once.
LEAD_FLIP = [[1, 2], [2, 1]]

# session-small's race step: the lead flip, its mirror and two one-sided
# ties, at the README's ground 12 and maxsize 5, the same in every seed.
# They are the costliest ops of a pass and hold 2% of its ops, so the tail
# op (p99) falls among these four and not at the edge of whichever
# largest problems the seed drew.
SESSION_RACES = (LEAD_FLIP, [[2, 1], [1, 2]], [[1, 2], [1, 1]], [[2, 1], [1, 1]])


def _readme_race_op(work: Path, tag: str, targets) -> Op:
    """A race at the README's ground 12 and maxsize 5, checked against its catalogue entry."""
    (entry,) = [
        e for e in _catalogue()
        if (e["targets"], e["ground"], e["maxsize"]) == (targets, 12, 5)
    ]
    return _race_op(work, tag, entry)


def _fold_heavy(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for count, n, H, bound, theta, smooth, band in FOLD_RUNGS:
        for _ in range(count):
            rows = _banded_rows(rng, n, H, bound, smooth, band)
            ops += _problem_ops(work, f"f{len(ops) // 2:02d}", rows, theta, view=False)
    return ops + _view_ops(work, "f00", ops[0].output) + [_readme_race_op(work, "lead-flip", LEAD_FLIP)]


def _session_small(rng: random.Random, work: Path) -> list[Op]:
    problems = []
    for n, H, band in SESSION_CLASSES:
        for _ in range(SESSION_PER_CLASS):
            problems.append((_banded_rows(rng, n, H, 5, False, band), rng.choice(SESSION_THETAS)))
    rng.shuffle(problems)
    ops = []
    for idx, (rows, theta) in enumerate(problems):
        ops += _problem_ops(work, f"s{idx:02d}", rows, theta, view=True)
    return ops + [_readme_race_op(work, f"s-race{i}", t) for i, t in enumerate(SESSION_RACES)]


def _race_search(rng: random.Random, work: Path) -> list[Op]:
    entries = _catalogue()
    chosen = []
    for count, verdict, shape, (lo, hi) in RACE_STRATA:
        pool = [
            e for e in entries
            if e["verdict"] == verdict and shape(e) and lo <= e["seconds"] <= hi
        ]
        chosen += rng.sample(pool, count)
    rng.shuffle(chosen)
    ops = [_race_op(work, f"r{idx:02d}", e) for idx, e in enumerate(chosen)]
    rows = _banded_rows(rng, 2, 2, 5, False, (7, 10))
    return ops + _problem_ops(work, "small", rows, "1", view=True)


def make_plan(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs under ``work`` (relative to the cwd); return one pass of ops."""
    work.mkdir(parents=True, exist_ok=True)
    build = {
        "fold-heavy": _fold_heavy,
        "race-search": _race_search,
        "session-small": _session_small,
    }[workload]
    return build(random.Random(f"{workload}:{seed}"), work)


def expected_counts(ops: list[Op]) -> dict[str, int]:
    """Per-layer totals one pass must produce, derived from the plan alone.

    Only totals that the CLI contract and the construction fix are checked:
    how many times the CLI, the verifier and the search run, how many
    searches exhaust, and how many gaps the construction carves. Counts that
    depend on how the program computes its result (sums, folds, profiles)
    are reported but not predicted, so a faster algorithm does not fail
    the check.
    """
    c = dict.fromkeys(
        (
            "cli.main.calls",
            "construction.verify_differences.calls",
            "construction.gaps_carved",
            "discrete.search_race_sets.calls",
            "discrete.exhausted",
        ),
        0,
    )
    for op in ops:
        c["cli.main.calls"] += 1
        if op.kind in ("build", "verify"):
            c["construction.verify_differences.calls"] += 1
            c["construction.gaps_carved"] += op.gaps
        elif op.kind == "race":
            c["discrete.search_race_sets.calls"] += 1
            c["discrete.exhausted"] += op.verdict == "exhausted"
    return c
