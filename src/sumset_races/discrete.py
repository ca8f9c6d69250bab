"""Finite integer sumsets, rank normalization, and exhaustive race search."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .intervals import _require_int

IntSet = tuple[int, ...]

MAX_RACE_CANDIDATES = 1_000_000
"""Largest candidate space one race search may enumerate.

Far above the spaces the benchmark catalogue and the CLI defaults use
(6885 candidates at ground 16, maxsize 6; 794 at ground 12, maxsize 5).
"""

__all__ = [
    "IntSet",
    "as_int_set",
    "hfold_ints",
    "dense_rank",
    "is_rank_tuple",
    "check_race_targets",
    "check_race_bounds",
    "MAX_RACE_CANDIDATES",
    "search_race_sets",
]


def as_int_set(elements: Iterable[int]) -> IntSet:
    """Normalize to a sorted duplicate-free tuple of ints."""
    return tuple(sorted({_require_int(e, "set element") for e in elements}))


def hfold_ints(base: Iterable[int], h: int) -> IntSet:
    """All sums of h elements of ``base``, repetition allowed."""
    b = as_int_set(base)
    if not b:
        raise ValueError("sumset base must be nonempty")
    _require_int(h, "fold count", lo=1)
    sums = {0}
    for _ in range(h):
        sums = {s + x for s in sums for x in b}
    return tuple(sorted(sums))


def dense_rank(values: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Replace each entry by the rank of its value among the distinct values.

    Ties share a rank and ranks run consecutively from 1, so the result
    records the order pattern of the tuple and nothing else.
    """
    if len(values) == 0:
        raise ValueError("cannot rank an empty sequence")
    order = {v: r for r, v in enumerate(sorted(set(values)), start=1)}
    return tuple(order[v] for v in values)


def is_rank_tuple(values: Sequence[int]) -> bool:
    """True when the tuple is its own rank pattern (entries are 1..k, dense)."""
    try:
        ranks = tuple(_require_int(v, "rank") for v in values)
        return dense_rank(ranks) == ranks
    except (TypeError, ValueError):
        return False


def check_race_targets(targets: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Validate race targets: one dense rank tuple per fold, all of one length >= 2.

    Returns the targets as a list of tuples; raises ``ValueError`` otherwise.
    """
    goal = [tuple(t) for t in targets]
    if not goal:
        raise ValueError("at least one rank tuple is required")
    for t in goal:
        if not is_rank_tuple(t):
            raise ValueError(f"not a valid rank tuple (dense ranks from 1): {list(t)}")
    n = len(goal[0])
    if n < 2:
        raise ValueError("a race needs at least two sets")
    if any(len(t) != n for t in goal):
        raise ValueError("rank tuples must all have the same length")
    return goal


def check_race_bounds(ground: int, maxsize: int) -> None:
    """Validate a race search's bounds and refuse a space too large to enumerate.

    The search enumerates sum_{k < maxsize} C(ground, k) candidates (0 plus
    k elements of {1, ..., ground}). That count is summed before any
    candidate exists and the sum stops once it passes
    ``MAX_RACE_CANDIDATES``, so huge bounds are refused at once. Raises
    ``TypeError`` for a non-int and ``ValueError`` otherwise.
    """
    _require_int(ground, "ground", lo=0)
    _require_int(maxsize, "maxsize", lo=1)
    total = 0
    for k in range(min(maxsize - 1, ground) + 1):
        total += comb(ground, k)
        if total > MAX_RACE_CANDIDATES:
            raise ValueError(
                f"ground {ground} with maxsize {maxsize} gives more than "
                f"{MAX_RACE_CANDIDATES} candidate sets; lower ground or maxsize"
            )


def _fold_sizes(base: IntSet, horizon: int) -> tuple[int, ...]:
    """(|1B|, ..., |horizon B|) for a nonempty set of nonnegative ints.

    Each fold is an int whose bit s is set when s is in hB, built as
    hB = (h-1)B + B by OR-ing one shifted copy per element of B.
    """
    fold, sizes = 1, []
    for _ in range(horizon):
        nxt = 0
        for x in base:
            nxt |= fold << x
        fold = nxt
        sizes.append(fold.bit_count())
    return tuple(sizes)


def search_race_sets(
    targets: Sequence[Sequence[int]], ground: int, maxsize: int
) -> Optional[tuple[IntSet, ...]]:
    """Exhaustively look for integer sets whose sumset sizes race as ordered.

    ``targets[h-1]`` is the required rank tuple of (|hB_1|, ..., |hB_n|).
    Candidates are the subsets of {0, ..., ground} that contain 0 (sumset
    sizes are translation invariant, so anchoring at 0 loses nothing) with
    at most ``maxsize`` elements, enumerated by size then lexicographically.
    Returns the first matching tuple of sets in product order over that
    enumeration, or None once the space is exhausted. Exhaustion is a
    normal outcome, not an error. Bounds whose space holds more than
    ``MAX_RACE_CANDIDATES`` candidates raise ``ValueError`` before any
    candidate is built.

    Whether a choice matches depends only on each set's size profile
    (|1B|, ..., |HB|), so the search keeps the first candidate of each
    distinct profile and branches over profiles, not candidates. Any
    matching tuple stays matching when every set is replaced by the first
    candidate with its profile, so the first match in product order is
    made of such first candidates, and profiles taken in order of their
    first candidate visit those tuples in the same order.
    """
    goal = check_race_targets(targets)
    check_race_bounds(ground, maxsize)
    n, horizon = len(goal[0]), len(goal)

    first: dict[tuple[int, ...], IntSet] = {}
    for size in range(1, maxsize + 1):
        for rest in combinations(range(1, ground + 1), size - 1):
            cand = (0,) + rest
            first.setdefault(_fold_sizes(cand, horizon), cand)
    profiles = list(first)  # in order of first candidate

    # A prefix shows a target's rank pattern iff every pair of its entries
    # compares as the target's entries do at every fold. Earlier pairs were
    # checked when the prefix was built, so entry d is checked only against
    # entries j < d: signs[d] lists (j, h, sign of target[h][j] - target[h][d]).
    signs = [
        [(j, h, (t[j] > t[d]) - (t[j] < t[d])) for j in range(d) for h, t in enumerate(goal)]
        for d in range(n)
    ]

    # Siblings differ in their newest profile, so the search reaches each
    # prefix once and a memo of subtree outcomes would never be hit.
    def first_suffix(prefix: tuple[tuple[int, ...], ...]) -> Optional[tuple[tuple[int, ...], ...]]:
        depth = len(prefix)
        if depth == n:
            return ()
        # At fold h entry `depth` must lie in [lo[h], hi[h]]: above every
        # earlier entry the target ranks below it, below every one it ranks
        # above, equal to every one it ties with.
        lo, hi = [1] * horizon, [float("inf")] * horizon
        for j, h, sign in signs[depth]:
            v = prefix[j][h]
            if sign >= 0:
                hi[h] = min(hi[h], v - 1 if sign else v)
            if sign <= 0:
                lo[h] = max(lo[h], v + 1 if sign else v)
        for profile in profiles:
            if all(a <= v <= b for a, v, b in zip(lo, profile, hi)):
                suffix = first_suffix(prefix + (profile,))
                if suffix is not None:
                    return (profile,) + suffix
        return None

    witness = first_suffix(())
    if witness is None:
        return None
    return tuple(first[profile] for profile in witness)
