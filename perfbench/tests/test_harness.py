"""Tests of the benchmark harness itself: span arithmetic, the tail rule, golden checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
NESTED = [
    (2, "g", 2.0, 3.0, 1, 0),
    (1, "a", 1.0, 4.0, 0, 0),
    (3, "b", 5.0, 9.0, 0, 0),
    (0, "root", 0.0, 10.0, -1, 0),
]
NESTED_SELF = {"root": 3.0, "a": 2.0, "g": 1.0, "b": 4.0}


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(NESTED) == NESTED_SELF


def test_tracer_accumulates_the_same_self_times(monkeypatch):
    # Clock reads in call order: each enter() reads start; each exit() reads once
    # more when it has a parent, to charge the closed child to that parent.
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    t = tracing.Tracer()
    root = t.enter("root")
    a = t.enter("a")
    g = t.enter("g")
    t.exit("g", g, 3.0)  # reads 3.0
    t.exit("a", a, 4.0)  # reads 4.0
    b = t.enter("b")  # reads 5.0
    t.exit("b", b, 9.0)  # reads 9.0
    t.exit("root", root, 10.0)
    assert t.self_s == NESTED_SELF
    assert tracing.self_times(t.spans) == NESTED_SELF
    assert t.calls == dict.fromkeys(NESTED_SELF, 1)


def test_tracer_caps_the_span_log_but_not_the_aggregates():
    t = tracing.Tracer(cap=2)
    for _ in range(5):
        t.exit("x", t.enter("x"), 1.0)
    assert len(t.spans) == 2 and t.dropped == 3 and t.calls == {"x": 5}


@pytest.mark.parametrize(
    "count, want",
    [(19, None), (20, (50.0, 10)), (39, (50.0, 20)), (40, (75.0, 30)), (100, (90.0, 90)),
     (199, (90.0, 180)), (200, (95.0, 190)), (1000, (99.0, 990)), (10000, (99.9, 9990))],
)
def test_tail_is_highest_ladder_percentile_with_ten_ops_beyond(count, want):
    values = [float(v) for v in range(count, 0, -1)]  # value k is the k-th smallest
    assert harness.tail_percentile(values) == want
    if want is not None:
        assert sum(v > want[1] for v in values) >= 10


def test_calibrator_rescales_each_op_by_the_samples_around_it():
    cal = harness.Calibrator()
    ref = harness.CAL_REFERENCE_S
    cal.samples = [ref, ref, 3 * ref, ref, ref]
    assert cal.scale_at(0) == 1.0  # no sample before the op: the first after it
    assert cal.scale_at(1) == 1.0  # samples 0 and 1
    assert cal.scale_at(2) == 0.5  # samples 1 and 2: the machine slowed down
    assert cal.scale_at(5) == 1.0  # no sample after the op: the last before it


def test_nearest_rank_median():
    assert harness.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert harness.nearest_rank([1.0, 2.0, 3.0], 50) == 2.0


def _verify_op_and_golden(stdout: str):
    op = Op(("verify", "built.json", "problem.json"), None)
    entry = {
        "argv": list(op.argv),
        "exit": 0,
        "verdict": "verification passed",
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "output_sha256": None,
    }
    return op, entry


def test_wrong_golden_hash_counts_as_failed():
    stdout = "telescoping: 2/2 ok\nverification passed\n"
    op, entry = _verify_op_and_golden(stdout)
    good = run.Checker([op], [entry])
    good.check([(0, stdout)])
    assert (good.attempted, good.failed) == (1, 0)

    bad = run.Checker([op], [dict(entry, stdout_sha256="0" * 64)])
    bad.check([(0, stdout)])
    bad.check([(0, stdout)])
    assert (bad.attempted, bad.failed) == (2, 2)
    assert "stdout_sha256 differs from the golden record" in bad.problems[0]


def test_outcome_change_between_passes_counts_as_failed():
    op, _ = _verify_op_and_golden("")
    checker = run.Checker([op], None)
    checker.check([(0, "a\nverification passed\n")])
    checker.check([(0, "b\nverification passed\n")])
    assert (checker.attempted, checker.failed) == (2, 1)


def test_missing_race_output_counts_as_failed(tmp_path):
    out = tmp_path / "race.json"
    op = Op(("race", "t.json", out.as_posix()), out.as_posix(), verdict="found", witness=((0,), (0, 1)))
    checker = run.Checker([op], None)
    checker.check([(0, "found\n")])
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "race output missing or unreadable" in checker.problems[0]


def test_run_pass_deletes_stale_output_before_each_op(tmp_path):
    out = tmp_path / "race.json"
    out.write_text('{"stale": true}')
    op = Op(("race", "t.json", out.as_posix()), out.as_posix(), verdict="found")

    class Silent:  # exits 0 and writes nothing
        @staticmethod
        def main(argv):
            return 0

    raw, cpu, wall = run.run_pass(Silent, [op])
    assert raw == [(0, "")] and len(cpu) == len(wall) == 1
    assert not out.exists()


def test_expected_counts_cover_only_contract_totals():
    ops = [
        Op(("build", "p.json", "b.json"), "b.json", gaps=7),
        Op(("verify", "b.json", "p.json"), None),
        Op(("plot", "b.json", "b.svg", "--hmax", "2"), "b.svg"),
        Op(("race", "t.json", "r.json"), "r.json", verdict="exhausted"),
        Op(("race", "u.json", "s.json"), "s.json", verdict="found"),
    ]
    assert workloads.expected_counts(ops) == {
        "cli.main.calls": 5,
        "construction.verify_differences.calls": 2,
        "construction.gaps_carved": 7,
        "discrete.search_race_sets.calls": 2,
        "discrete.exhausted": 1,
    }


def test_candidates_are_the_distinct_sets_the_search_folds():
    from sumset_races import cli, discrete, realization  # noqa: F401 (cli loads every module)

    t = tracing.Tracer()
    with tracing.instrument(t):
        assert discrete.search_race_sets([[1, 2], [2, 1]], 4, 3) is None
        assert discrete.search_race_sets([[1, 2], [2, 1]], 6, 5) is not None
        realization.hfold_ints((0, 5, 9), 2)  # outside a search: not a candidate
    # Subsets of {1..ground} with at most maxsize - 1 elements, each with 0 added.
    assert t.counts["discrete.candidates"] == (1 + 4 + 6) + (1 + 6 + 15 + 20 + 15)
    assert t.counts["discrete.exhausted"] == 1 and not t.bases


def test_instrument_patches_every_import_site_and_restores():
    from sumset_races import cli, construction, intervals, realization

    originals = (cli.build_sets, realization.hfold_ints, intervals.IntervalUnion.__add__)
    t = tracing.Tracer()
    with tracing.instrument(t):
        assert cli.build_sets is construction.build_sets is not originals[0]
        assert realization.hfold_ints is not originals[1]
        a = intervals.IntervalUnion([(0, 1)])
        a.hfold(3)
    assert t.calls["intervals.hfold"] == 1 and t.calls["intervals.add"] == 2
    assert (cli.build_sets, realization.hfold_ints, intervals.IntervalUnion.__add__) == originals


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
