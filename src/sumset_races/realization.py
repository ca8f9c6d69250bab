"""Transport integer race witnesses onto the real line.

An integer set B becomes the union of blocks [b, b + width] with a width
small enough that blocks in every h-fold sumset up to the horizon stay
pairwise disjoint. The h-fold measure is then |hB| times h*width, so the
rank pattern of the measures matches the rank pattern of the sumset
sizes: whatever order race the integers run, the interval sets run too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .discrete import IntSet, as_int_set, dense_rank, hfold_ints
from .intervals import Interval, IntervalUnion, _require_int, as_fraction

__all__ = [
    "RealizationPlan",
    "realize",
    "TauRaceCheck",
    "TauRaceReport",
    "verify_tau_race",
]


@dataclass(frozen=True)
class RealizationPlan:
    """Block width, fold horizon, and the integer sets that were realized.

    The width is an exact rational in (0, 1/(horizon+1)]; ``base_sets`` is
    a nonempty tuple of nonempty, sorted, duplicate-free int tuples.
    """

    width: Fraction
    horizon: int
    base_sets: tuple[IntSet, ...]

    def __post_init__(self) -> None:
        _require_int(self.horizon, "horizon", lo=1)
        width = as_fraction(self.width)
        if not 0 < width <= Fraction(1, self.horizon + 1):
            raise ValueError("width must lie in (0, 1/(horizon+1)]")
        object.__setattr__(self, "width", width)
        normalized = tuple(as_int_set(b) for b in self.base_sets)
        if not normalized or not all(normalized):
            raise ValueError("need at least one base set, and every base set must be nonempty")
        if normalized != self.base_sets:
            raise ValueError("base sets must be tuples of sorted, distinct integers")


def realize(
    base_sets: Sequence[Sequence[int]], horizon: int
) -> tuple[tuple[IntervalUnion, ...], RealizationPlan]:
    """Blow each integer up to a block of width 1/(horizon+1).

    Distinct integers in an h-fold sumset are at least 1 apart while the
    blocks have width h/(horizon+1) < 1 for h <= horizon, so the blocks
    never meet and each fold's measure is exactly |hB| * h * width. The
    plan checks the horizon and the base sets; the input sets may come in
    any order and with repeats.
    """
    # max() keeps the width defined for any int, so a horizon below 1
    # reaches the plan's check instead of dividing by zero here.
    plan = RealizationPlan(
        width=Fraction(1, max(horizon, 0) + 1),
        horizon=horizon,
        base_sets=tuple(as_int_set(b) for b in base_sets),
    )
    sets = tuple(
        IntervalUnion(Interval(Fraction(b), b + plan.width) for b in base)
        for base in plan.base_sets
    )
    return sets, plan


@dataclass(frozen=True)
class TauRaceCheck:
    """Rank patterns of the h-fold measures versus the h-fold sumset sizes."""

    h: int
    measures: tuple[Fraction, ...]
    cardinalities: tuple[int, ...]
    measure_ranks: tuple[int, ...]
    cardinality_ranks: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.measure_ranks == self.cardinality_ranks


@dataclass(frozen=True)
class TauRaceReport:
    checks: tuple[TauRaceCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_tau_race(
    sets: Sequence[IntervalUnion], base_sets: Sequence[Sequence[int]], horizon: int
) -> TauRaceReport:
    """Check, fold by fold, that measures and sumset sizes rank identically.

    The measures come from the generic interval fold and the sizes from
    the integer fold; the two routes share no code, so agreement is a
    real cross-check and not an echo.
    """
    _require_int(horizon, "horizon", lo=1)  # a report with no folds would pass vacuously
    if len(sets) != len(base_sets):
        raise ValueError(f"got {len(sets)} interval sets for {len(base_sets)} base sets")
    normalized = [as_int_set(b) for b in base_sets]
    fold_measures = [[fold.measure() for fold in s.folds(horizon)] for s in sets]
    checks = []
    for h in range(1, horizon + 1):
        measures = tuple(m[h - 1] for m in fold_measures)
        cards = tuple(len(hfold_ints(b, h)) for b in normalized)
        checks.append(
            TauRaceCheck(
                h=h,
                measures=measures,
                cardinalities=cards,
                measure_ranks=dense_rank(measures),
                cardinality_ranks=dense_rank(cards),
            )
        )
    return TauRaceReport(checks=tuple(checks))
