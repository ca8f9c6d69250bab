"""Transport integer race witnesses onto the real line.

An integer set B becomes the union of blocks [b, b + width] with a width
small enough that blocks in every h-fold sumset up to the horizon stay
pairwise disjoint. The h-fold measure is then |hB| times h*width, so the
rank pattern of the measures matches the rank pattern of the sumset
sizes: whatever order race the integers run, the interval sets run too.
``realize`` returns the interval sets and the block width, and
``verify_tau_race`` checks both patterns against the targeted ones.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple, Sequence

from .discrete import RankTable, _set_step, as_int_set, dense_rank, hfold_ints
from .intervals import IntervalUnion, _require_int

__all__ = [
    "realize",
    "TauRaceCheck",
    "TauRaceReport",
    "verify_tau_race",
]


def realize(
    base_sets: Sequence[Sequence[int]], horizon: int
) -> tuple[tuple[IntervalUnion, ...], Fraction]:
    """Blow each integer up to a block of width 1/(horizon+1); return the sets and width.

    Distinct integers in an h-fold sumset are at least 1 apart while the
    blocks have width h/(horizon+1) < 1 for h <= horizon, so the blocks
    never meet and each fold's measure is exactly |hB| * h * width. The
    horizon is an int >= 1 and at least one base set, none empty, is
    needed; a set may list its elements in any order and with repeats.
    Block b is the integer pair (b*k, b*k + 1) over k = horizon + 1.
    """
    _require_int(horizon, "horizon", lo=1)
    bases = [as_int_set(b) for b in base_sets]
    if not bases or not all(bases):
        raise ValueError("need at least one base set, and every base set must be nonempty")
    k = horizon + 1
    blocks = ([(b * k, b * k + 1) for b in base] for base in bases)
    return tuple(IntervalUnion._from_pairs(k, pairs) for pairs in blocks), Fraction(1, k)


class TauRaceCheck(NamedTuple):
    """Rank patterns of the h-fold measures and sumset sizes, and the one wanted."""

    h: int
    measures: tuple[Fraction, ...]
    cardinalities: tuple[int, ...]
    measure_ranks: tuple[int, ...]
    cardinality_ranks: tuple[int, ...]
    target: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.measure_ranks == self.cardinality_ranks == self.target


class TauRaceReport(NamedTuple):
    checks: tuple[TauRaceCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_tau_race(
    sets: Sequence[IntervalUnion],
    base_sets: Sequence[Sequence[int]],
    targets: Sequence[Sequence[int]],
) -> TauRaceReport:
    """Check, fold by fold, that measures and sumset sizes both rank as targeted.

    ``targets`` must make a ``RankTable`` (one dense rank tuple per fold,
    one rank per set), so the horizon is ``len(targets)``. The measures
    come from the generic interval fold and the sizes from the integer
    fold; the two routes share no code, so agreement is a real
    cross-check and not an echo. Each base is folded once, as a ladder:
    1B is ``hfold_ints(b, 1)``, which refuses a bad base before any
    interval fold runs, and each rung hB is (h-1)B + B by
    ``discrete._set_step``, the one set step ``hfold_ints`` climbs too,
    kept lazily one rung per base.
    """
    goal = RankTable(targets).rows  # at least one row, so a report always has folds
    if len(goal[0]) != len(sets):
        raise ValueError(f"rank tuples of length {len(goal[0])} for {len(sets)} sets")
    if len(sets) != len(base_sets):
        raise ValueError(f"got {len(sets)} interval sets for {len(base_sets)} base sets")
    horizon = len(goal)
    firsts = [hfold_ints(b, 1) for b in base_sets]
    fold_measures = [s.fold_measures(horizon) for s in sets]
    ladders = [accumulate(repeat(b, horizon - 1), _set_step, initial=b) for b in firsts]
    checks = []
    for h, (target, measures, rungs) in enumerate(zip(goal, zip(*fold_measures), zip(*ladders)), 1):
        cards = tuple(map(len, rungs))
        checks.append(
            TauRaceCheck(
                h=h,
                measures=measures,
                cardinalities=cards,
                measure_ranks=dense_rank(measures),
                cardinality_ranks=dense_rank(cards),
                target=target,
            )
        )
    return TauRaceReport(checks=tuple(checks))
