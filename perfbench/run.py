"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload fold-heavy --seed 1 --seconds 30 --trace 0

Run from anywhere; the script works from the repository root above it and
writes only under ``.bench_out/``.

With ``--trace 0`` it runs the workload's pass in a closed loop until
``--seconds`` of wall time have gone to ops and reports the end-to-end
metrics. Op latencies are CPU seconds of this process and ``ops_per_s``
counts ops per wall second spent in ops; both are rescaled by the
interleaved calibration samples of ``harness.Calibrator`` to a reference CPU
speed: on a shared VM the drifting speed of the CPU moves every op alike,
and no change to the program causes it.

With ``--trace 1`` it runs a warm-up pass, then a traced, an untraced and a
traced pass of the same ops (``--seconds`` does not apply). The two traced
passes must give identical counts, and the totals the CLI contract fixes
must match totals derived from the plan. It reports the per-layer metrics.

The last stdout line is the JSON result.

``--write-golden`` records the golden outcomes for the workload at the
golden seed (run it only when the program's outputs are meant to change).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 15

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("intervals", "construction", "discrete", "realization", "serialization", "svg", "cli")

PER_LAYER = (
    *(
        (f"intervals.add.{k}", u)
        for k, u in (("calls", "count"), ("pairs", "count"), ("parts_out", "count"), ("self_s", "s"))
    ),
    ("intervals.hfold.calls", "count"),
    ("intervals.hfold.self_s", "s"),
    ("intervals.union_init.calls", "count"),
    ("intervals.union_init.self_s", "s"),
    ("intervals.subtract.self_s", "s"),
    ("intervals.dilate.self_s", "s"),
    ("intervals.oracle.self_s", "s"),
    ("intervals.den_bits_max", "bits"),
    *(
        (f"construction.{stage}.self_s", "s")
        for stage in (
            "solve_steps", "lift_steps", "choose_params", "carve",
            "assemble_set", "build_sets", "verify_differences",
        )
    ),
    ("construction.verify_differences.calls", "count"),
    ("construction.gaps_carved", "count"),
    ("construction.set_parts", "count"),
    ("discrete.search_race_sets.calls", "count"),
    ("discrete.search_race_sets.self_s", "s"),
    ("discrete.hfold_ints.calls", "count"),
    ("discrete.hfold_ints.self_s", "s"),
    ("discrete.dense_rank.calls", "count"),
    ("discrete.dense_rank.self_s", "s"),
    ("discrete.candidates", "count"),
    ("discrete.exhausted", "count"),
    ("realization.realize.self_s", "s"),
    ("realization.verify_tau_race.self_s", "s"),
    ("serialization.load.self_s", "s"),
    ("serialization.dump.self_s", "s"),
    ("serialization.bytes_read", "bytes"),
    ("serialization.bytes_written", "bytes"),
    ("svg.layout.self_s", "s"),
    ("svg.render.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
    "import sumset_races.cli; print(time.process_time() - t)"
)


class BenchmarkError(RuntimeError):
    """The harness itself is inconsistent; no result may be reported."""


def measure_setup(workload: str, seed: int, work: Path):
    """Median over SETUP_REPS of (import the CLI in a fresh interpreter + generate inputs).

    Returns (that median with each set-up rescaled to the calibration
    reference speed, the median as measured, one pass of ops).
    """
    scaled, raw, ops, cal = [], [], [], harness.Calibrator()
    for _ in range(SETUP_REPS):
        mark = cal.mark()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            capture_output=True, text=True, timeout=60, check=True,
        )
        start = time.process_time()
        ops = workloads.make_plan(workload, seed, work)
        raw.append(float(child.stdout) + time.process_time() - start)
        cal.sample()
        scaled.append(raw[-1] * cal.scale_at(mark))
    return statistics.median(scaled), statistics.median(raw), ops


def run_pass(cli, ops, tracer=None, cal=None) -> tuple[list, list[float], list[float]]:
    """Run every op once; return outcomes and per-op CPU and wall seconds.

    Each op's output file is deleted before the op starts (outside its
    timing), so an op that fails to write it cannot pass on an earlier
    pass's file. With a calibrator, calibration samples are taken between
    ops (never inside an op's timing) and both times of each op are
    rescaled by the samples just before and after it.
    """
    raw, cpu, wall, marks = [], [], [], []
    for i, op in enumerate(ops):
        if op.output is not None:
            Path(op.output).unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = i
        if cal is not None:
            marks.append(cal.mark())
        wall_start, start = time.perf_counter(), time.process_time()
        raw.append(harness.run_op(cli, op.argv))
        cpu.append(time.process_time() - start)
        wall.append(time.perf_counter() - wall_start)
        if cal is not None:
            cal.maybe_sample()
    if cal is not None:
        cal.sample()
        scales = [cal.scale_at(m) for m in marks]
        cpu = [x * k for x, k in zip(cpu, scales)]
        wall = [x * k for x, k in zip(wall, scales)]
    return raw, cpu, wall


class Checker:
    """Accumulates per-op check results across passes."""

    def __init__(self, ops, golden) -> None:
        self.ops, self.golden, self.first = ops, golden, None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, raw) -> list:
        outcomes, problems = harness.check_pass(self.ops, raw, self.golden, self.first)
        self.first = self.first or outcomes
        self.attempted += len(raw)
        self.failed += len({i for i, _ in problems})
        self.problems += [f"op {i} {' '.join(self.ops[i].argv)}: {p}" for i, p in problems]
        return outcomes


def timed_run(cli, ops, seconds: float, checker: Checker) -> dict:
    passes = []  # (rescaled per-op CPU seconds, rescaled per-op wall seconds, calibration samples)
    elapsed = 0.0
    while elapsed < seconds:
        cal = harness.Calibrator()
        start = time.perf_counter()
        raw, cpu, wall = run_pass(cli, ops, cal=cal)
        elapsed += time.perf_counter() - start
        passes.append((cpu, wall, cal.samples))
        checker.check(raw)
    latencies = [x for p in passes for x in p[0]]
    walls = [x for p in passes for x in p[1]]
    metrics = {
        "op_s_p50": (harness.nearest_rank(sorted(latencies), 50), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail = harness.tail_percentile(latencies)
    extra = {
        "ops": len(latencies),
        "run_wall_s": elapsed,
        "passes": [{"op_cpu_s": cpu, "op_wall_s": wall, "calibration_s": c} for cpu, wall, c in passes],
    }
    if tail is not None:
        metrics["op_s_tail"] = (tail[1], "s")
        extra["op_s_tail_percentile"] = tail[0]
    return {"metrics": metrics, "extra": extra}


def _trace_values(tracer: tracing.Tracer) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = tracer.self_s[name]
    values.update(tracer.counts)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            s for name, s in tracer.self_s.items() if name.startswith(layer + ".")
        )
    return values


def traced_run(cli, ops, checker: Checker) -> dict:
    # Warm-up pass, then traced / untraced / traced, so the untraced pass the
    # overhead is measured against is neither the cold first pass nor later
    # than both traced ones.
    checker.check(run_pass(cli, ops)[0])
    tracers, cpus = [], []
    for traced in (True, False, True):
        tracer = tracing.Tracer()
        if traced:
            with tracing.instrument(tracer):
                raw, lat, _ = run_pass(cli, ops, tracer)
            tracers.append(tracer)
            cpus.append(sum(lat))
        else:
            raw, lat, _ = run_pass(cli, ops)
            untraced_cpu = sum(lat)
        checker.check(raw)

    counts = [{**t.calls, **t.counts} for t in tracers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        raise BenchmarkError(f"traced passes of one seed gave different counts: {diff}")
    values = [_trace_values(t) for t in tracers]
    for key, want in workloads.expected_counts(ops).items():
        got = values[0].get(key, 0)
        if got != want:
            raise BenchmarkError(f"{key}: traced {got}, plan implies {want}")

    def mean(name: str) -> float:
        return sum(v.get(name, 0.0) for v in values) / len(values)

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = sum(cpus) / len(cpus) / untraced_cpu
        elif unit == "s":
            value = mean(name)
        else:
            value = values[0].get(name, 0)
        metrics[name] = (value, unit)
    table = {
        name: {"calls": calls, "self_s": mean(f"{name}.self_s")}
        for name, calls in sorted(tracers[0].calls.items())
    }
    return {
        "metrics": metrics,
        "extra": {
            "self_time_table": table,
            "untraced_cpu_s": untraced_cpu,
            "traced_cpu_s": cpus,
            "spans_kept": len(tracers[0].spans),
            "spans_dropped": tracers[0].dropped,
        },
        "spans": tracers[0].spans,
    }


def predictions(workload: str, metrics: dict) -> list[str]:
    """The benchmark's layer prediction for this workload, judged on the traced self times."""
    layer = {k: metrics[f"layer.{k}.self_s"][0] for k in LAYERS}
    total = sum(layer.values()) or 1.0
    if workload == "fold-heavy":
        share = (metrics["intervals.add.self_s"][0] + metrics["intervals.hfold.self_s"][0]) / total
        claim, holds = "intervals.add + intervals.hfold take the majority", share > 0.5
    elif workload == "race-search":
        share = layer["discrete"] / total
        claim, holds = "discrete takes the majority", share > 0.5
    else:
        top = max(layer, key=layer.get)
        share = layer[top] / total
        claim, holds = f"no single layer takes half (largest: {top})", share < 0.5
    lines = [f"layer share {k}: {v / total:.1%}" for k, v in layer.items()]
    lines.append(
        f"prediction {workload}: {claim}: {share:.1%} of traced self time -> "
        f"{'holds' if holds else 'FAILS'}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sumset_races" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from sumset_races import cli

    work = Path(".bench_out") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_s, setup_raw_s, ops = measure_setup(args.workload, args.seed, work)

    if args.write_golden:
        if args.seed != harness.GOLDEN_SEED:
            print(f"golden outcomes are recorded for seed {harness.GOLDEN_SEED} only", file=sys.stderr)
            return 2
        raw = run_pass(cli, ops)[0]
        checker = Checker(ops, None)
        outcomes = checker.check(raw)
        if checker.problems:
            print("\n".join(checker.problems), file=sys.stderr)
            return 1
        harness.write_golden(args.workload, ops, outcomes)
        print(f"wrote golden record for {args.workload}: {len(outcomes)} ops")
        return 0

    checker = Checker(ops, harness.load_golden(args.workload, args.seed))
    try:
        if args.trace:
            result = traced_run(cli, ops, checker)
        else:
            result = timed_run(cli, ops, args.seconds, checker)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["extra"]["setup_cpu_s_unscaled"] = setup_raw_s
    except BenchmarkError as exc:
        print(f"benchmark self-check failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    names = PER_LAYER if args.trace else END_TO_END
    for name, _ in names:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    failed_ratio = checker.failed / checker.attempted
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} ({checker.failed}/{checker.attempted} ops)")
    if not args.trace and "op_s_tail_percentile" in result["extra"]:
        extra = result["extra"]
        print(f"{args.workload} op_s_tail is p{extra['op_s_tail_percentile']:g} of {extra['ops']} ops")
    if args.trace:
        for name, row in result["extra"]["self_time_table"].items():
            print(f"self time {name:<40} {row['calls']:>10} calls {row['self_s']:>12.6f} s")
        for line in predictions(args.workload, metrics):
            print(line)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": harness.machine_facts(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": failed_ratio,
        "problems": checker.problems,
        **result["extra"],
    }
    if args.trace:
        record["spans"] = {"fields": ["id", "name", "start", "end", "parent", "op"], "rows": result["spans"]}
    out = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
