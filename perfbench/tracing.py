"""Layer spans recorded from outside the program, by wrapping its functions.

``instrument`` replaces each traced function of ``sumset_races`` with a
wrapper at every place the function is reachable: the defining module, each
module that imported it by name (``cli.build_sets``, ``realization.hfold_ints``,
...) and, for methods, the ``IntervalUnion`` class. It restores the originals
on exit. Nothing under ``src/`` changes.

Each wrapper records one span: name, start, end, parent span and op id.
Self time is a span's duration minus the time its child spans cover; the
tracer accumulates it as spans close, and ``self_times`` recomputes it from
span records for the tests. Bookkeeping done after a span closes (counters,
appending the record) is charged to no span, so it shows up only in the
traced-over-untraced wall ratio.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

SPAN_LOG_CAP = 20_000  # span records kept per tracer; aggregates cover every span


class Tracer:
    def __init__(self, cap: int = SPAN_LOG_CAP) -> None:
        self.cap = cap
        self.op = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds, span name]
        self.bases: set[tuple] = set()  # hfold_ints bases seen in the open search

    def enter(self, name: str) -> float:
        self._stack.append([self._next_id, 0.0, name])
        self._next_id += 1
        return perf_counter()

    def exit(self, name: str, start: float, end: float) -> None:
        span_id, child, _ = self._stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child)
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < self.cap:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1
        if self._stack:
            self._stack[-1][1] += perf_counter() - start

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def within(self, name: str) -> bool:
        """True when a span of this name is open (the caller's own span included)."""
        return any(entry[2] == name for entry in self._stack)


def self_times(spans) -> dict[str, float]:
    """Self time per span name from span records (id, name, start, end, parent, op)."""
    child: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for span_id, name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start - child.get(span_id, 0.0))
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable, count: Callable | None) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            exit_(name, start, perf_counter())
            raise
        end = perf_counter()
        if count is not None:
            count(tracer, args, result)
        exit_(name, start, end)
        return result

    return traced


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_add(t: Tracer, args, result) -> None:
    t.add("intervals.add.pairs", len(args[0].parts) * len(args[1].parts))
    t.add("intervals.add.parts_out", len(result.parts))
    if result.parts:
        t.maximum("intervals.den_bits_max", max(p.hi.denominator.bit_length() for p in result.parts))


def _count_base(t: Tracer, args, result) -> None:
    if t.within("discrete.search_race_sets"):
        t.bases.add(tuple(args[0]))


def _count_search(t: Tracer, args, result) -> None:
    # Candidates the search actually examined: distinct sets it folded.
    t.add("discrete.candidates", len(t.bases))
    t.bases.clear()
    t.add("discrete.exhausted", int(result is None))


# (module, attribute, span name, counter hook). Methods are "IntervalUnion.<name>".
TARGETS = (
    ("intervals", "IntervalUnion.__add__", "intervals.add", _count_add),
    ("intervals", "IntervalUnion.hfold", "intervals.hfold", None),
    ("intervals", "IntervalUnion.__init__", "intervals.union_init", None),
    ("intervals", "IntervalUnion.subtract", "intervals.subtract", None),
    ("intervals", "IntervalUnion.dilate", "intervals.dilate", None),
    ("intervals", "grid_measure_oracle", "intervals.oracle", None),
    ("construction", "solve_steps", "construction.solve_steps", None),
    ("construction", "lift_steps", "construction.lift_steps", None),
    ("construction", "choose_params", "construction.choose_params", None),
    (
        "construction", "carve", "construction.carve",
        lambda t, a, r: t.add("construction.gaps_carved", len(r.gaps)),
    ),
    ("construction", "assemble_set", "construction.assemble_set", None),
    (
        "construction", "build_sets", "construction.build_sets",
        lambda t, a, r: t.add("construction.set_parts", sum(len(s.parts) for s in r.sets)),
    ),
    ("construction", "verify_differences", "construction.verify_differences", None),
    ("discrete", "search_race_sets", "discrete.search_race_sets", _count_search),
    ("discrete", "hfold_ints", "discrete.hfold_ints", _count_base),
    ("discrete", "dense_rank", "discrete.dense_rank", None),
    ("realization", "realize", "realization.realize", None),
    ("realization", "verify_tau_race", "realization.verify_tau_race", None),
    *(
        (
            "serialization", loader, "serialization.load",
            lambda t, a, r: t.add("serialization.bytes_read", _file_size(a[0])),
        )
        for loader in ("load_problem", "load_sets_file", "load_race_targets")
    ),
    ("serialization", "build_output_obj", "serialization.dump", None),
    ("serialization", "race_output_obj", "serialization.dump", None),
    (
        "serialization", "write_json", "serialization.dump",
        lambda t, a, r: t.add("serialization.bytes_written", _file_size(a[0])),
    ),
    ("svg", "layout", "svg.layout", None),
    ("svg", "render", "svg.render", None),
    ("cli", "main", "cli.main", None),
)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "sumset_races" and m]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch every import site of every traced function; restore them all on exit.

    Raises RuntimeError if, after patching, any module of the package still
    holds an unwrapped original: a span would then be silently missed.
    """
    modules = _package_modules()
    patches: list[tuple[object, str, object, Callable]] = []  # owner, attribute, original, wrapper
    originals: dict[int, object] = {}
    for module_name, attr, span, count in TARGETS:
        module = sys.modules[f"sumset_races.{module_name}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            sites = [owner]
        else:
            original = module.__dict__[attr]
            sites = [m for m in modules if m.__dict__.get(attr) is original]
        originals[id(original)] = original
        wrapper = _wrap(tracer, span, original, count)
        patches += [(site, attr, original, wrapper) for site in sites]
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        for owner in modules:
            for attr, value in owner.__dict__.items():
                if id(value) in originals:
                    raise RuntimeError(f"{owner.__name__}.{attr} escaped instrumentation")
        yield
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)
