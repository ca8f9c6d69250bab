"""Finite integer sumsets, rank normalization, and exhaustive race search."""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import Iterable, Optional, Sequence

from .intervals import IntTable, SchemaError, _require_int

IntSet = tuple[int, ...]

MAX_RACE_CANDIDATES = 1_000_000
"""Largest candidate space one race search may enumerate into its profile table.

The profile table folds each candidate at most once, from its parent, with
one shift-OR per fold, so its time grows with candidates times folds while
it holds only the distinct profiles; the search then holds, per fold, one
bitmask over the profiles for each value their sizes take. The
depth-first search over the n sets that follows is not bounded by this
limit: at ground 16, maxsize 7 (14,893 candidates, 206 profiles over 3
folds) the targets ``[[1, 2, ..., 10]] * 3`` take about 45 s to exhaust.
Far above the spaces the benchmark catalogue and the CLI defaults use (6885 candidates
at ground 16, maxsize 6; 794 at ground 12, maxsize 5). The heaviest shape
within it that was tried, ground 19 and maxsize 20 with 64 folds (524,288
candidates, 10,902 profiles), takes about 10 s and 67 MB on a 2-vCPU VM.
"""

__all__ = [
    "IntSet",
    "as_int_set",
    "hfold_ints",
    "dense_rank",
    "is_rank_tuple",
    "RankTable",
    "check_race_bounds",
    "MAX_RACE_CANDIDATES",
    "search_race_sets",
]


def as_int_set(elements: Iterable[int]) -> IntSet:
    """Normalize to a sorted duplicate-free tuple of ints."""
    return tuple(sorted({_require_int(e, "set element") for e in elements}))


def hfold_ints(base: Iterable[int], h: int) -> IntSet:
    """All sums of h elements of ``base``, repetition allowed.

    Each call folds from scratch over Python sets: step i adds every
    element of ``base`` to every sum of (i-1)B, so the cost follows the
    sumsets, the sum of |iB| * |B| over i = 0..h-1, and not the span of
    ``base``. That is why it stays a set fold: a shift-OR fold on one int
    is far faster on dense bases but holds h * (max B - min B) bits, so
    on a spread base (the kind that reaches the bound C(|B|+h-1, h)) it
    is slower by orders of magnitude and can need gigabytes.
    """
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


class RankTable(IntTable):
    """Race targets: ``rows[h-1]`` is the dense rank tuple wanted of the h-fold sumsets.

    So n is the width and H the number of rows; a row that is not its own
    ``dense_rank`` raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "RankTable":
        self = super().__new__(cls, rows)
        for row in self.rows:
            if dense_rank(row) != row:
                raise ValueError(f"not a valid rank tuple (dense ranks from 1): {list(row)}")
        return self

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def H(self) -> int:
        return len(self.rows)


def check_race_bounds(ground: int, maxsize: int) -> None:
    """Validate a race search's bounds and refuse a space too large to enumerate.

    The search enumerates at most sum_{k < maxsize} C(ground, k) candidates
    (0 plus k elements of {1, ..., ground}). That count is summed before any
    candidate exists and the sum stops once it passes
    ``MAX_RACE_CANDIDATES``, so huge bounds are refused at once. Raises
    ``TypeError`` for a non-int and ``SchemaError`` for any bound it refuses.
    """
    for value, what, lo in ((ground, "ground", 0), (maxsize, "maxsize", 1)):
        if _require_int(value, what) < lo:
            raise SchemaError(f"{what} must be an integer >= {lo}, got {value}")
    total = 0
    for k in range(min(maxsize - 1, ground) + 1):
        total += comb(ground, k)
        if total > MAX_RACE_CANDIDATES:
            raise SchemaError(
                f"ground {ground} with maxsize {maxsize} gives more than "
                f"{MAX_RACE_CANDIDATES} candidate sets; lower ground or maxsize"
            )


# _GOLOMB_LENGTHS[s] is the optimal Golomb-ruler length for s marks (OEIS
# A003022): the least span of s integers whose pairwise differences are distinct.
_GOLOMB_LENGTHS = (0, 0, 1, 3, 6, 11, 17, 25)


def _profile_capacity(ground: int, maxsize: int, horizon: int) -> int:
    """The most profiles ``_profile_table(ground, maxsize, horizon)`` can hold.

    A set of size s has h(s-1) + 1 <= |hB| <= C(s+h-1, h). At h = 2 only a
    Sidon set (all pairwise sums distinct) reaches C(s+1, 2); its s(s-1)/2
    positive differences are distinct and at most max B, so it spans at
    least the optimal Golomb-ruler length for s marks, or s(s-1)/2 past the
    lengths held here. Where ground is shorter, that top value is dropped.
    """
    total = 0
    for s in range(1, min(maxsize, ground + 1) + 1):
        widths = [comb(s + h - 1, h) - h * (s - 1) for h in range(2, horizon + 1)]
        span = _GOLOMB_LENGTHS[s] if s < len(_GOLOMB_LENGTHS) else comb(s, 2)
        if widths and ground < span:
            widths[0] -= 1
        total += prod(widths)
    return total


def _profile_table(ground: int, maxsize: int, horizon: int) -> dict[tuple[int, ...], IntSet]:
    """Each distinct size profile (|1B|, ..., |horizon B|) mapped to its first candidate.

    Candidates are 0 plus fewer than ``maxsize`` elements of {1, ..., ground},
    taken by size, then lexicographically, and the table lists profiles in
    the order of their first candidates. Sizes past ground + 1 hold no set.
    The walk stops once the table holds ``_profile_capacity`` profiles, the
    most the sumset-size bounds allow with the Sidon value |2B| = C(s+1, 2)
    dropped where no Sidon set of size s fits in [0, ground] (the optimal
    Golomb-ruler lengths), since no later candidate can add or change an
    entry. With that refinement (10, 5, 2), (14, 6, 2) and (16, 6, 2) stop
    early, though no Sidon set of their largest size fits.
    """
    top = min(maxsize, ground + 1)
    firsts: dict[tuple[int, ...], IntSet] = {(1,) * horizon: (0,)}
    capacity = _profile_capacity(ground, maxsize, horizon)

    # Depth first over the sets, each extended only by elements above its
    # maximum, reaches the sets of one size in lexicographic order. Each fold
    # is an int whose bit s is set when s is in hB, and B + {x} folds from B
    # with one shift-OR per fold: h(B + {x}) = hB | ((h-1)(B + {x}) + x).
    # Nothing reads a leaf's folds, so a leaf keeps only each fold's
    # popcount as it goes, and its set is built only for a new profile.
    # Each call returns whether the table is full, checked after each leaf
    # loop; a full table cannot change, so every caller returns at once.
    def grow(base: IntSet, folds: list[int]) -> bool:
        size = len(base) + 1
        if size == top:
            start = base[-1] + 1
            if size > 2:
                # A leaf B = base + (x,) with x - B[-2] < B[1] has a mirror
                # x - B of its size and profile that is lexicographically
                # smaller, so that profile was recorded first.
                start = base[-1] + base[1]
            for x in range(start, ground + 1):
                counts, prev = [], 1
                for fold in folds:
                    prev = fold | (prev << x)
                    counts.append(prev.bit_count())
                key = tuple(counts)
                if key not in firsts:
                    firsts[key] = base + (x,)
            return len(firsts) == capacity
        for x in range(base[-1] + 1, ground + 1):
            child, prev = [], 1
            for fold in folds:
                prev = fold | (prev << x)
                child.append(prev)
            cand = base + (x,)
            firsts.setdefault(tuple(map(int.bit_count, child)), cand)
            if grow(cand, child):
                return True
        return False

    if top > 1:
        grow((0,), [1] * horizon)
    return dict(sorted(firsts.items(), key=lambda item: (len(item[1]), item[1])))


def _bound_masks(column: list[int]) -> list[int]:
    """For v in 0..max(column), the bitmask of {i : column[i] <= v}.

    The mask of {i : column[i] == v} is accumulated value by value, and a
    new int is made only at values present, so equal neighbours share one
    int. The mask of {i : column[i] >= v} is the complement of entry v - 1
    within all profiles, so it is not stored.
    """
    exact = [0] * (max(column) + 1)
    for i, v in enumerate(column):
        exact[v] |= 1 << i
    mask, out = 0, []
    for bits in exact:
        if bits:
            mask |= bits
        out.append(mask)
    return out


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
    normal outcome, not an error. Targets that make no ``RankTable`` raise
    as it does, and bad bounds or a space of more than ``MAX_RACE_CANDIDATES``
    candidates raise ``SchemaError``, all before any candidate is built.

    Whether a choice matches depends only on each set's size profile
    (|1B|, ..., |HB|), so the search keeps the first candidate of each
    distinct profile and branches over profiles, not candidates. Any
    matching tuple stays matching when every set is replaced by the first
    candidate with its profile, so the first match in product order is
    made of such first candidates, and profiles taken in order of their
    first candidate visit those tuples in the same order.

    The profile table walks the sets depth first, each child B + {x} (x
    above max B) folded from its parent with one shift-OR per fold, and
    keeps the first set of each profile. A profile fixes its sets' size
    (|1B| = |B|) and the walk meets the sets of one size in lexicographic
    order, so the table, sorted once by (size, set), lists profiles as the
    (size, lex) enumeration meets them. Sets of the largest size are
    leaves, and one whose mirror max B - B is lexicographically smaller is
    skipped unfolded: the mirror has the same profile and came first. The
    other leaves are scored without being built: each fold's popcount is
    taken as the fold is made, no fold is kept, and the set's tuple is
    made only when its profile is new. The sumset-size bounds
    h(|B|-1) + 1 <= |hB| <= C(|B|+h-1, h) cap how many profiles each size
    can have, less the value |2B| = C(|B|+1, 2) of a Sidon set (all
    pairwise sums distinct) where none of that size fits in [0, ground],
    which the optimal Golomb-ruler lengths decide. Once the table holds
    that many the walk stops: every profile that can occur is recorded,
    with its first candidate. It stops early for every one-fold target, and
    with two folds wherever the table fills: (12, 5, 2) holds the Sidon
    profile of its largest size, and (10, 5, 2), (14, 6, 2) and (16, 6, 2)
    fill without it. The three-fold shapes tried (ground up to 14, sets of
    three to six elements) and two-fold ones such as (12, 6, 2) still walk
    every candidate.

    The depth-first search numbers profiles in table order. For each fold
    h and value v it holds the bitmask of the profiles with |hB| <= v; the
    profiles with |hB| >= v are its complement at v - 1. So the profiles a
    node admits are one AND per constraint the earlier sets impose, and it
    tries them lowest bit first, which is table order.
    """
    goal = RankTable(targets).rows
    check_race_bounds(ground, maxsize)
    n, horizon = len(goal[0]), len(goal)

    table = _profile_table(ground, maxsize, horizon)
    profiles = list(table)
    everything = (1 << len(profiles)) - 1
    columns = [[p[h] for p in profiles] for h in range(horizon)]
    at_most = [_bound_masks(column) for column in columns]

    # A prefix shows a target's rank pattern iff every pair of its entries
    # compares as the target's entries do at every fold. Earlier pairs were
    # checked when the prefix was built, so entry d is checked only against
    # entries j < d. With sign = sign(target[h][j] - target[h][d]) and v =
    # entry j's |hB|, entry d needs |hB| <= v - sign when sign >= 0 and
    # |hB| >= v - sign, that is not |hB| <= v - sign - 1, when sign <= 0.
    # checks[d] lists (j, column, masks, step, flip): entry d is admitted by
    # the mask masks[v + step] XOR flip, where flip is everything to take
    # the complement and 0 to take the mask as it is.
    checks: list[list[tuple[int, list[int], list[int], int, int]]] = [[] for _ in range(n)]
    for d in range(n):
        for j in range(d):
            for h, t in enumerate(goal):
                sign = (t[j] > t[d]) - (t[j] < t[d])
                if sign >= 0:
                    checks[d].append((j, columns[h], at_most[h], -sign, 0))
                if sign <= 0:
                    checks[d].append((j, columns[h], at_most[h], -sign - 1, everything))

    # Siblings differ in their newest profile, so the search reaches each
    # prefix once: a memo keyed on the prefix would never be hit.
    def first_suffix(prefix: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        depth = len(prefix)
        if depth == n:
            return ()
        admitted = everything
        for j, column, masks, step, flip in checks[depth]:
            admitted &= masks[column[prefix[j]] + step] ^ flip
            if not admitted:
                return None
        while admitted:
            low = admitted & -admitted
            index = low.bit_length() - 1
            suffix = first_suffix(prefix + (index,))
            if suffix is not None:
                return (index,) + suffix
            admitted ^= low
        return None

    witness = first_suffix(())
    if witness is None:
        return None
    first_sets = list(table.values())
    return tuple(first_sets[index] for index in witness)
