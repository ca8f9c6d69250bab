"""Closed-loop op execution, output checks and the metric arithmetic.

One client in one process calls ``sumset_races.cli.main`` in-process, one op
at a time, with no extra threads. Each op's outcome is its exit code, its
last stdout line (the verdict), and the sha256 of its stdout and of the file
it writes. Outcomes are checked against the golden record for the golden
seed, and against what the plan knows independently for every seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from workloads import Op

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
GOLDEN_SEED = 1

# Standard percentiles, highest first; see tail_percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Reported times are CPU seconds rescaled to the CPU speed at which one
# calibration sample takes CAL_REFERENCE_S (about its time on an idle 2-vCPU
# Xeon VM). A sample runs calibration_work CAL_REPS times: single runs were
# too short to follow the machine's speed. A sample is taken at least every
# CAL_EVERY_S of CPU time.
CAL_REPS = 8
CAL_REFERENCE_S = 0.048
CAL_EVERY_S = 0.2


def calibration_work() -> None:
    """A fixed mix of rational arithmetic, dict updates and sorting; never the program's code."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 7)
    counts: dict[int, int] = {}
    for i in range(20000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


class Calibrator:
    """Times ``calibration_work`` between ops to track the machine's current CPU speed.

    On a shared VM the speed of the same code drifts by half within seconds
    and by a third over minutes, for every op alike. ``scale_at(mark)``
    converts the CPU seconds of an op that started after ``mark`` samples
    into seconds at the reference speed, using the mean of the last sample
    before the op and the first sample after it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.process_time()
        for _ in range(CAL_REPS):
            calibration_work()
        self._last = time.process_time()
        self.samples.append(self._last - start)

    def maybe_sample(self) -> None:
        if time.process_time() - self._last >= CAL_EVERY_S:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def scale_at(self, mark: int) -> float:
        window = self.samples[max(0, mark - 1) : mark + 1]
        return CAL_REFERENCE_S * len(window) / sum(window)


@dataclass(frozen=True)
class Outcome:
    exit: int
    verdict: str
    stdout_sha256: str
    output_sha256: str | None


def run_op(cli, argv) -> tuple[int, str]:
    """Call ``cli.main`` in-process with stdout and stderr captured; return (code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails this op, not the whole run
            print(f"uncaught {type(exc).__name__}: {exc}")
            code = 1  # what the interpreter would exit with
    return code, out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(op: Op, code: int, stdout: str) -> Outcome:
    lines = stdout.strip().splitlines()
    written = None
    if op.output is not None and os.path.exists(op.output):
        written = _sha256(Path(op.output).read_bytes())
    return Outcome(code, lines[-1] if lines else "", _sha256(stdout.encode()), written)


def _all_pass(path: str) -> bool:
    try:
        return json.loads(Path(path).read_text()).get("all_pass") is True
    except (OSError, ValueError):
        return False


def semantic_problems(op: Op, got: Outcome, stdout: str) -> list[str]:
    """Checks that hold for every seed: exit code, verdict line, the output's own all_pass."""
    problems = []
    if op.kind == "race":
        want = 0 if op.verdict == "found" else 4
        if got.exit != want:
            problems.append(f"exit {got.exit}, catalogue verdict {op.verdict} wants {want}")
        elif op.verdict == "found":
            try:
                data = json.loads(Path(op.output).read_text())
                witness = tuple(tuple(b) for b in data["witness"])
            except (OSError, ValueError, KeyError, TypeError):
                return problems + ["race output missing or unreadable"]
            if witness != op.witness:
                problems.append("witness differs from the catalogue's")
            if data.get("all_pass") is not True:
                problems.append("race output all_pass is not true")
        elif got.output_sha256 is not None:
            problems.append("exhausted search wrote an output file")
        return problems
    if got.exit != 0:
        return [f"exit {got.exit}"]
    if op.kind == "build":
        if not got.verdict.startswith("built ") or not _all_pass(op.output):
            problems.append("build output does not report all_pass")
    elif op.kind == "verify":
        if got.verdict != "verification passed":
            problems.append(f"verify verdict {got.verdict!r}")
    elif op.kind == "plot":
        if got.output_sha256 is None or not Path(op.output).read_text().startswith("<svg"):
            problems.append("plot wrote no SVG")
    elif op.kind == "oracle":
        rows = stdout.strip().splitlines()[1:]
        if not rows or any(not r.endswith(" ok") for r in rows):
            problems.append("oracle row not ok")
    return problems


def check_pass(ops, raw, golden, first) -> tuple[list[Outcome], list[tuple[int, str]]]:
    """Outcomes of one pass and the problems found, as (op index, problem).

    ``golden`` is the golden record's op list (golden seed only) and ``first``
    the outcomes of this run's first pass; either may be None.
    """
    outcomes, problems = [], []
    for i, (op, (code, stdout)) in enumerate(zip(ops, raw)):
        got = outcome(op, code, stdout)
        outcomes.append(got)
        found = semantic_problems(op, got, stdout)
        if golden is not None:
            entry = golden[i]
            if entry["argv"] != list(op.argv):
                found.append("plan differs from the golden record; regenerate it")
            for key, value in asdict(got).items():
                if entry[key] != value:
                    found.append(f"{key} differs from the golden record")
        if first is not None and first[i] != got:
            found.append("outcome differs from the run's first pass")
        problems += [(i, p) for p in found]
    return outcomes, problems


def load_golden(workload: str, seed: int):
    if seed != GOLDEN_SEED:
        return None
    return json.loads(GOLDEN.read_text())["workloads"][workload]


def write_golden(workload: str, ops, outcomes) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": GOLDEN_SEED, "workloads": {}}
    data["workloads"][workload] = [
        {"argv": list(op.argv), **asdict(o)} for op, o in zip(ops, outcomes)
    ]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def nearest_rank(sorted_values, pct: float) -> float:
    """The smallest value with at least pct percent of the values at or below it."""
    return sorted_values[max(1, _rank(pct, len(sorted_values))) - 1]


def _rank(pct: float, count: int) -> int:
    # Exact, so that 99.9% of 10000 is rank 9990 and not 9991.
    return math.ceil(Fraction(str(pct)) * count / 100)


def tail_percentile(values) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with at least 10 ops beyond it.

    None when fewer than 20 ops ran, since even the median then has fewer
    than 10 ops above it.
    """
    s = sorted(values)
    for pct in TAIL_LADDER:
        k = _rank(pct, len(s))
        if k >= 1 and len(s) - k >= 10:
            return pct, s[k - 1]
    return None


def machine_facts() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu_model": model,
        "platform": platform.platform(),
    }
