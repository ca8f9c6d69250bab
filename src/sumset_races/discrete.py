"""Finite integer sumsets, rank normalization, and exhaustive race search."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .intervals import _require_int

IntSet = tuple[int, ...]

__all__ = [
    "IntSet",
    "as_int_set",
    "hfold_ints",
    "dense_rank",
    "is_rank_tuple",
    "check_race_targets",
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
    normal outcome, not an error.
    """
    goal = check_race_targets(targets)
    n = len(goal[0])
    _require_int(ground, "ground", lo=0)
    _require_int(maxsize, "maxsize", lo=1)

    horizon = len(goal)
    candidates: list[IntSet] = []
    for size in range(1, maxsize + 1):
        for rest in combinations(range(1, ground + 1), size - 1):
            candidates.append((0,) + rest)

    # Feasibility of a partial choice depends only on the candidates'
    # size profiles (|1B|, ..., |HB|), never on the elements themselves,
    # so memoize subtree outcomes on the profile prefix. The suffix found
    # for a profile prefix is the same for every choice realizing it,
    # which keeps the first-in-product-order contract intact.
    profile_ids: dict[tuple[int, ...], int] = {}
    cand_pid: list[int] = []
    for cand in candidates:
        profile = tuple(len(hfold_ints(cand, h)) for h in range(1, horizon + 1))
        pid = profile_ids.setdefault(profile, len(profile_ids))
        cand_pid.append(pid)
    profiles = list(profile_ids)

    # Rank pattern the first d entries of each target must show.
    target_prefix = [[dense_rank(t[:d]) for d in range(1, n + 1)] for t in goal]

    def consistent(pids: tuple[int, ...]) -> bool:
        depth = len(pids)
        for h in range(horizon):
            column = tuple(profiles[pid][h] for pid in pids)
            if dense_rank(column) != target_prefix[h][depth - 1]:
                return False
        return True

    memo: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}

    def first_suffix(pids: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if len(pids) == n:
            return ()
        if pids in memo:
            return memo[pids]
        found = None
        for idx, pid in enumerate(cand_pid):
            extended = pids + (pid,)
            if not consistent(extended):
                continue
            suffix = first_suffix(extended)
            if suffix is not None:
                found = (idx,) + suffix
                break
        memo[pids] = found
        return found

    witness = first_suffix(())
    if witness is None:
        return None
    return tuple(candidates[i] for i in witness)
