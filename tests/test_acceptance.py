"""Acceptance gate: ten numbered criteria, each printing one verdict line.

Every check is exact; no tolerance appears anywhere except the stated
runtime budgets. Run with ``pytest tests/test_acceptance.py -s`` to see
the verdict lines on a passing run.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from sumset_races import (
    DiffMatrix,
    IntervalUnion,
    build_sets,
    carve,
    choose_params,
    dense_rank,
    filler_set,
    grid_measure_oracle,
    lift_steps,
    realize,
    solve_steps,
    thickened_measure,
    verify_differences,
    verify_tau_race,
)
from sumset_races.cli import main

SEED = 20260819


def _verdict(num, desc, ok):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_union(rng, max_parts=10):
    den = rng.choice([1, 2, 3, 7, 64, 1024, 4096])
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        lo = F(rng.randint(-4096, 4096), den)
        parts.append((lo, lo + F(rng.randint(0, 512), den)))
    return IntervalUnion(parts)


@pytest.fixture(scope="module")
def random_builds():
    rng = random.Random(SEED)
    thetas = [F(1), F(3, 7), F(22, 7)]
    instances = []
    start = time.perf_counter()
    for k in range(50):
        n = rng.randint(2, 4)
        H = rng.randint(2, 4)
        rows = tuple(
            tuple(rng.randint(-5, 5) for _ in range(H)) for _ in range(n - 1)
        )
        diffs = DiffMatrix(rows)
        theta = thetas[k % 3]
        result = build_sets(diffs, theta)
        report = verify_differences(result.sets, diffs, theta)
        instances.append((diffs, theta, report))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_01_filler_closure():
    start = time.perf_counter()
    ok = True
    for eps in (F(1, 5), F(1, 4), F(3, 10), F(1, 3)):
        x = IntervalUnion([(0, 1 - eps), (2, 3 - eps)])
        if eps < F(1, 3):
            ok = ok and filler_set(eps) == x
        for h in (3, 4, 5, 6):
            ok = ok and x.hfold(h) == IntervalUnion([(0, h * (3 - eps))])
    elapsed = time.perf_counter() - start
    _verdict(1, "high folds of the filler collapse to one interval, <1s", ok and elapsed < 1.0)


def test_criterion_02_two_fold_decomposition():
    x = filler_set(F(1, 4))
    expected = IntervalUnion([(0, F(3, 2)), (2, F(7, 2)), (4, F(11, 2))])
    _verdict(2, "two-fold filler keeps exactly the frozen three blocks", x + x == expected)


def test_criterion_03_thickened_closed_form():
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        H = rng.randint(2, 5)
        counts = [rng.randint(0, 4) for _ in range(H)]
        if not any(counts):
            counts[rng.randrange(H)] = rng.randint(1, 4)
        params = choose_params(H, 2, sum(counts))
        block = carve(counts, params)
        for h in range(1, H + 1):
            residue = sum(
                (r - h + 1) * c for r, c in enumerate(counts, start=1) if r >= h
            )
            closed = (h - 1) * params.delta + 1 - 3 * params.eps - params.delta * residue
            ok = ok and thickened_measure(block, h, params) == closed
    _verdict(3, "carved-block thickening matches its closed form, 100 random rows", ok)


def test_criterion_04_solve_and_lift():
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        H = rng.randint(2, 5)
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(H)) for _ in range(n - 1))
        diffs = DiffMatrix(rows)
        steps = solve_steps(diffs)
        for i in range(n - 1):
            for h in range(1, H + 1):
                back = sum((r - h + 1) * steps.rows[i][r - 1] for r in range(h, H + 1))
                ok = ok and back == rows[i][h - 1]
        lifted = lift_steps(steps)
        ok = ok and all(v >= 0 for row in lifted.rows for v in row)
        ok = ok and all(t > 0 for t in lifted.row_totals)
        for i in range(n - 1):
            for r in range(H):
                ok = ok and lifted.rows[i + 1][r] - lifted.rows[i][r] == steps.rows[i][r]
    _verdict(4, "triangular solve and nonnegative lift reproduce targets, 100 random", ok)


def test_criterion_05_end_to_end_builds(random_builds):
    instances, elapsed = random_builds
    ok = len(instances) == 50 and elapsed < 10.0
    for diffs, theta, report in instances:
        ok = ok and report.all_ok
        for check in report.checks:
            ok = ok and check.computed == theta * diffs.rows[check.pair - 1][check.h - 1]
    _verdict(5, "50 random end-to-end builds hit every scaled target exactly, <10s", ok)


def test_criterion_06_race_subcommand(tmp_path):
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps({"targets": [[1, 2], [2, 1]]}))
    out_path = tmp_path / "race.json"
    code = main(
        ["race", str(targets_path), str(out_path), "--ground", "12", "--maxsize", "5"]
    )
    ok = code == 0
    data = json.loads(out_path.read_text()) if ok else {}
    ok = ok and data.get("all_pass") is True
    witness = [tuple(b) for b in data.get("witness", [])]
    ok = ok and len(witness) == 2
    if ok:
        sets, _ = realize(witness, 2)
        report = verify_tau_race(sets, witness, [(1, 2), (2, 1)])
        ok = report.all_ok
        ok = ok and report.checks[0].cardinality_ranks == (1, 2)
        ok = ok and report.checks[1].cardinality_ranks == (2, 1)
    _verdict(6, "race subcommand finds and realizes the lead-flip witness", ok)


def test_criterion_07_rank_reference_patterns():
    table = [
        ((-2, 13, 11, 0, 22, 4), (1, 5, 4, 2, 6, 3)),
        ((7, 3, 2, 9, 3, 5), (4, 2, 1, 5, 2, 3)),
        ((9, 7, 8, 9, 7, 8), (3, 1, 2, 3, 1, 2)),
    ]
    ok = all(dense_rank(u) == expected for u, expected in table)
    _verdict(7, "rank normalization reproduces the three reference patterns", ok)


def test_criterion_08_grid_oracle_sandwich():
    rng = random.Random(SEED)
    g = F(1, 1024)
    ok = True
    for _ in range(100):
        u = _random_union(rng)
        inner, outer = grid_measure_oracle(u, g)
        exact = u.measure()
        ok = ok and inner <= exact <= outer
        ok = ok and outer - inner <= 2 * g * len(u.parts)
    _verdict(8, "grid oracle brackets the measure within 2g per part, 100 random", ok)


def test_criterion_09_superadditivity():
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        a = _random_union(rng, max_parts=6)
        b = _random_union(rng, max_parts=6)
        ok = ok and (a + b).measure() >= a.measure() + b.measure()
    _verdict(9, "sum measure dominates the sum of measures, 200 random pairs", ok)


def test_criterion_10_telescoping(random_builds):
    instances, _ = random_builds
    ok = bool(instances)
    for _, _, report in instances:
        ok = ok and len(report.telescoping) > 0
        ok = ok and all(t.ok for t in report.telescoping)
    _verdict(10, "pairwise differences telescope on every built instance", ok)
