"""Exact arithmetic on finite unions of closed rational intervals.

Every set handled by this package is a finite union of closed intervals
with rational endpoints, kept in canonical form: parts sorted by left
endpoint, overlapping or touching parts merged. Endpoints are
``fractions.Fraction``, so measures, Minkowski sums and dilations are
exact, and equality of canonical forms is equality of point sets. No
operation ever rounds.

A Minkowski sum A + B is the union, over the parts [lo, lo + L] of B, of
A thickened by L and shifted by lo; thickening by L fills exactly the gaps
of A no wider than L, so the sum costs what its output costs rather than
one piece per pair of parts. ``IntervalUnion.folds`` builds 1A, ..., HA as
a ladder hA = (h-1)A + A and is the one fold routine every caller shares.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int]

__all__ = [
    "Rational",
    "as_fraction",
    "Interval",
    "IntervalUnion",
    "grid_measure_oracle",
]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are refused outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _require_int(value: object, what: str, lo: int | None = None) -> int:
    """Return ``value`` if it is an int (bool excluded) of at least ``lo``.

    This is the package's one integer check: a non-int or a bool raises
    ``TypeError``, an int below ``lo`` raises ``ValueError``.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be an integer >= {lo}, got {value}")
    return value


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints; lo == hi is a point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        if lo > hi:
            raise ValueError(f"endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


IntervalLike = Union[Interval, Sequence[Rational]]


def _as_interval(item: IntervalLike) -> Interval:
    if isinstance(item, Interval):
        return item
    lo, hi = item
    return Interval(lo, hi)


def _merge(intervals: Iterable[IntervalLike]) -> tuple[Interval, ...]:
    """Sort and merge; touching parts ([0,1] and [1,2]) collapse into one."""
    items = sorted((_as_interval(iv) for iv in intervals), key=lambda iv: (iv.lo, iv.hi))
    merged: list[Interval] = []
    for iv in items:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


@dataclass(frozen=True, init=False)
class IntervalUnion:
    """Canonical finite union of disjoint closed intervals.

    The constructor accepts any iterable of ``Interval`` or ``(lo, hi)``
    pairs and canonicalizes it, so two unions compare equal exactly when
    they are the same point set. Construction is idempotent on already
    canonical input. ``IntervalUnion()`` is the empty set.
    """

    parts: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[IntervalLike] = ()) -> None:
        object.__setattr__(self, "parts", _merge(intervals))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def measure(self) -> Fraction:
        """Total length of the union (points contribute nothing).

        The lengths are summed as integers over the common denominator,
        and one ``Fraction`` is built at the end.
        """
        scale = _common_denominator(self.parts)
        return Fraction(sum(hi - lo for lo, hi in _scaled_endpoints(self.parts, scale)), scale)

    def bounds(self) -> tuple[Fraction, Fraction] | None:
        """Smallest and largest covered point, or None when empty."""
        if not self.parts:
            return None
        return self.parts[0].lo, self.parts[-1].hi

    def __contains__(self, x: Rational) -> bool:
        value = as_fraction(x)
        idx = bisect_right(self.parts, value, key=lambda p: p.lo)
        return idx > 0 and value <= self.parts[idx - 1].hi

    def translate(self, offset: Rational) -> "IntervalUnion":
        """Shift every part by the same amount."""
        t = as_fraction(offset)
        return IntervalUnion(Interval(p.lo + t, p.hi + t) for p in self.parts)

    def dilate(self, scale: Rational) -> "IntervalUnion":
        """Scale about the origin; measure scales by |scale| exactly."""
        s = as_fraction(scale)
        if self.is_empty:
            return self
        if s == 0:
            return IntervalUnion([Interval(Fraction(0), Fraction(0))])
        if s > 0:
            return IntervalUnion(Interval(p.lo * s, p.hi * s) for p in self.parts)
        return IntervalUnion(Interval(p.hi * s, p.lo * s) for p in self.parts)

    def __add__(self, other: "IntervalUnion") -> "IntervalUnion":
        """Minkowski sum, computed as a union of thickenings.

        For a part [lo, lo + L] of one operand, ``A + [lo, lo + L]`` is the
        other operand A thickened by L and shifted by lo: each gap of A of
        width at most L fills and each part stretches right by L. Each
        distinct L is thickened once, at a cost in the gaps that survive
        it, so the work follows the output rather than the p*q part pairs.
        Endpoints are rescaled to a common denominator, so the sort and
        merge run on plain integers; the result is exact.
        """
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        if not self.parts or not other.parts:
            return IntervalUnion()
        # Every part of the iterated operand emits at least one piece, so
        # iterate the one with fewer parts and thicken the other.
        base, other = (self, other) if len(self.parts) >= len(other.parts) else (other, self)
        scale = _common_denominator(base.parts, other.parts)
        thickened = _Thickenings(_scaled_endpoints(base.parts, scale))
        pairs = []
        for lo, hi in _scaled_endpoints(other.parts, scale):
            pairs.extend([(lo + a, lo + b) for a, b in thickened[hi - lo]])
        pairs.sort()
        merged: list[list[int]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        return _from_scaled(merged, scale)

    def folds(self, H: int) -> list["IntervalUnion"]:
        """The folds [1A, 2A, ..., HA] of this union A (H >= 1).

        Each fold is one sum, hA = (h-1)A + A, so the whole ladder costs
        H - 1 sums. This is the one fold routine; ``hfold`` is its last
        entry.
        """
        _require_int(H, "fold count", lo=1)
        ladder = [self]
        for _ in range(H - 1):
            ladder.append(ladder[-1] + self)
        return ladder

    def hfold(self, h: int) -> "IntervalUnion":
        """h-fold Minkowski sum of the union with itself (h >= 1)."""
        return self.folds(h)[-1]

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        """Remove the interiors of ``other``'s parts, keeping all endpoints.

        The subtrahend is treated as a union of open intervals, so the
        result is again a closed union; single-point parts of ``other``
        remove nothing.
        """
        if not self.parts or not other.parts:
            return self
        pieces: list[Interval] = []
        for part in self.parts:
            cursor = part.lo
            for gap in other.parts:
                if gap.hi <= cursor:
                    continue
                if gap.lo > part.hi:
                    break
                if gap.lo >= cursor:
                    pieces.append(Interval(cursor, min(gap.lo, part.hi)))
                cursor = gap.hi
                if cursor > part.hi:
                    break
            if cursor <= part.hi:
                pieces.append(Interval(cursor, part.hi))
        return IntervalUnion(pieces)

    def __repr__(self) -> str:
        if not self.parts:
            return "IntervalUnion()"
        return "IntervalUnion(" + " | ".join(repr(p) for p in self.parts) + ")"


def _common_denominator(*part_groups: tuple[Interval, ...]) -> int:
    scale = 1
    for parts in part_groups:
        for p in parts:
            scale = math.lcm(scale, p.lo.denominator, p.hi.denominator)
    return scale


def _scaled_endpoints(parts: tuple[Interval, ...], scale: int) -> list[tuple[int, int]]:
    return [
        (p.lo.numerator * (scale // p.lo.denominator), p.hi.numerator * (scale // p.hi.denominator))
        for p in parts
    ]


class _Thickenings(dict):
    """Maps L to the integer parts of ``parts + [0, L]``, built once per L.

    ``parts`` are sorted, disjoint integer pairs. Thickening by L fills
    exactly the gaps of width at most L, so with the gaps sorted by
    decreasing width the surviving ones are a prefix of that order, found
    by bisection; one thickening costs O(surviving gaps), not O(parts).
    """

    def __init__(self, parts: list[tuple[int, int]]) -> None:
        super().__init__()
        self.parts = parts
        # Gap i lies between parts i and i + 1. Keyed on minus its width,
        # the gaps sort widest first and the keys ascend, ready for bisect.
        self.by_width = sorted(range(len(parts) - 1), key=lambda i: parts[i][1] - parts[i + 1][0])
        self.neg_widths = [parts[i][1] - parts[i + 1][0] for i in self.by_width]

    def __missing__(self, L: int) -> list[tuple[int, int]]:
        parts = self.parts
        open_gaps = sorted(self.by_width[: bisect_left(self.neg_widths, -L)])  # wider than L
        starts = [parts[0][0]] + [parts[i + 1][0] for i in open_gaps]
        ends = [parts[i][1] + L for i in open_gaps] + [parts[-1][1] + L]
        self[L] = segments = list(zip(starts, ends))
        return segments


def _from_scaled(pairs: list[list[int]], scale: int) -> IntervalUnion:
    # The integer pairs are already sorted and merged, so skip _merge.
    union = IntervalUnion.__new__(IntervalUnion)
    parts = tuple(Interval(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in pairs)
    object.__setattr__(union, "parts", parts)
    return union


def grid_measure_oracle(union: IntervalUnion, step: Rational) -> tuple[Fraction, Fraction]:
    """Bracket the measure by counting grid cells of width ``step``.

    Returns ``(inner, outer)`` where inner counts cells [k*step, (k+1)*step]
    fully inside the union and outer counts cells meeting it in positive
    length. Always inner <= measure <= outer, and the gap is at most
    2*step per part, which makes this an independent cross-check on
    ``measure`` rather than a reimplementation of it.
    """
    g = as_fraction(step)
    if g <= 0:
        raise ValueError(f"grid step must be positive, got {g}")
    inner_cells = 0
    outer_cells = 0
    prev_touch_last: int | None = None
    for part in union.parts:
        if part.lo == part.hi:
            continue
        first_full = math.ceil(part.lo / g)
        last_full = math.floor(part.hi / g) - 1
        if last_full >= first_full:
            inner_cells += last_full - first_full + 1
        first_touch = math.floor(part.lo / g)
        last_touch = math.ceil(part.hi / g) - 1
        if prev_touch_last is not None and first_touch <= prev_touch_last:
            first_touch = prev_touch_last + 1
        if last_touch >= first_touch:
            outer_cells += last_touch - first_touch + 1
            prev_touch_last = last_touch
    return g * inner_cells, g * outer_cells
