"""Exact arithmetic on finite unions of closed rational intervals.

Every set handled by this package is a finite union of closed intervals
with rational endpoints, kept in canonical form: parts sorted and
strictly apart, overlapping or touching ones merged. A union is held as
``(scale, pairs)``: ``scale`` is the least common denominator of the
endpoints and ``pairs`` are the parts as integer pairs, each endpoint
multiplied by ``scale``. Equal point sets therefore have equal forms,
and sums, shifts, dilations and measures run on plain integers, exactly;
no operation ever rounds. ``Fraction`` appears only at the edges: the
constructor takes ``Interval``s or ``(lo, hi)`` pairs of ints and
Fractions, and ``parts``, ``bounds`` and the measures return Fractions.
Floats are refused.

A Minkowski sum A + B is the union, over the parts [lo, lo + L] of A, of
B thickened by L and shifted by lo. ``_Thickenings`` holds every
thickening of a union as prefixes of two lists, and ``_int_sum``, the
one integer kernel, turns A's parts into shifts of such prefixes, so the
sum costs what its output costs rather than one piece per pair of parts.
``_merged``, the one merge routine, sorts the starts and the ends
separately and cuts wherever an end falls below the next start.

Every fold routine climbs the ladder hA = (h-1)A + A with the standard
library's lazy fold. ``IntervalUnion.folds`` and ``fold_measures`` climb
one integer ladder, ``itertools.accumulate`` of ``_int_sum`` on A's
pairs: A's scale is a common denominator of every hA, so one
``_Thickenings`` of A is shared by every rung and each rung is one call
of ``_int_sum``. ``fold_measures`` measures each rung before it makes
the next and makes one ``Fraction`` per fold; ``folds`` makes each rung
a union, because its callers need the folds themselves.
``IntervalUnion.hfold`` is h - 1 sums with ``+`` (``functools.reduce``).
The module also holds the checks every other module shares:
``SchemaError``, the ``MAX_SETS``/``MAX_FOLDS`` caps, ``_require_int`` and ``IntTable``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, pairwise, repeat, starmap
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Rational = Union[Fraction, int]

__all__ = [
    "SchemaError",
    "MAX_SETS",
    "MAX_FOLDS",
    "Rational",
    "as_fraction",
    "IntTable",
    "Interval",
    "IntervalUnion",
    "grid_measure_oracle",
]


class SchemaError(ValueError):
    """Refused input: the package's one refusal type, which the CLI maps to exit 2."""


MAX_SETS = 64
"""Most sets a problem, sets file or race may hold: 8 times the widest benchmark shape.

A build's telescoping checks grow as n**2 * H (1000 all-zero sets took
9.5 s and 1 GB on a 2-vCPU VM) and the race search recurses once per set.
"""

MAX_FOLDS = 64
"""Most folds a problem, race or ``plot --hmax`` may ask for: 8 times the deepest benchmark shape.

``solve_steps`` checks itself in time quadratic in H (16,000 folds took 21 s).
"""


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


class IntTable(NamedTuple("IntTable", [("rows", tuple[tuple[int, ...], ...])])):
    """Validated integer table: one or more list or tuple rows of one width >= 2.

    It describes ``n`` >= 2 sets and ``H`` folds: here rows + 1 and the
    width; subclasses may read it the other way round or add rules. More
    than ``MAX_SETS`` sets or ``MAX_FOLDS`` folds raise ``SchemaError``,
    checked before any entry is. A table given as ``rows`` is read by its rows.
    """

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "IntTable":
        rows = tuple(rows.rows if isinstance(rows, IntTable) else rows)
        for row in rows:  # a dict or set row would otherwise be read as its keys
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"each table row must be a list or tuple, got {row!r}")
        if not rows:
            raise ValueError("need at least one row")
        if len(rows[0]) < 2:
            raise ValueError(f"need at least two columns, got {len(rows[0])}")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must all have the same width")
        shape = super().__new__(cls, rows)  # n and H read only lengths: no row is copied yet
        if shape.n < 2:
            raise ValueError(f"need at least two sets, got {shape.n}")
        if shape.n > MAX_SETS:
            raise SchemaError(f"{shape.n} sets, more than the limit of {MAX_SETS} sets")
        if shape.H > MAX_FOLDS:
            raise SchemaError(f"{shape.H} folds, more than the limit of {MAX_FOLDS} folds")
        for row in rows:  # entries last: an oversized table is refused before they are read
            for v in row:
                _require_int(v, "table entry")
        return super().__new__(cls, tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    @property
    def H(self) -> int:
        return len(self.rows[0])


class Interval(NamedTuple("Interval", [("lo", Fraction), ("hi", Fraction)])):
    """Closed interval [lo, hi] with rational endpoints; lo == hi is a point.

    It is the ``(lo, hi)`` pair of Fractions, so it equals (and hashes as)
    that tuple, and ``IntervalUnion`` takes either for a part.
    """

    __slots__ = ()

    def __new__(cls, lo: Rational, hi: Rational) -> "Interval":
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"endpoints out of order: {lo} > {hi}")
        return super().__new__(cls, lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


IntPairs = Sequence[Sequence[int]]


class IntervalUnion:
    """Canonical finite union of disjoint closed intervals.

    A union is stored as ``(scale, pairs)``: ``pairs`` are the parts as
    sorted, strictly separated integer pairs (lo <= hi), each endpoint
    multiplied by ``scale``, and ``scale`` is the least common denominator
    of the endpoints. The form is canonical, so two unions compare (and
    hash) equal exactly when they are the same point set. ``parts``, the
    parts as ``Interval``s with ``Fraction`` ends, is built when asked for.

    The constructor accepts any iterable of ``Interval`` or ``(lo, hi)``
    pairs and canonicalizes it; it is idempotent on already canonical
    input. ``IntervalUnion()`` is the empty set.
    """

    __slots__ = ("_scale", "_pairs")

    def __init__(self, intervals: Iterable[Sequence[Rational]] = ()) -> None:
        parts = [Interval(lo, hi) for lo, hi in intervals]
        scale = math.lcm(*(end.denominator for p in parts for end in (p.lo, p.hi)))
        pairs = [
            (p.lo.numerator * (scale // p.lo.denominator), p.hi.numerator * (scale // p.hi.denominator))
            for p in parts
        ]
        self._set(scale, pairs)

    @classmethod
    def _from_pairs(cls, scale: int, pairs: IntPairs) -> "IntervalUnion":
        """The union of the integer pairs ``(lo, hi)``, lo <= hi, divided by ``scale`` > 0.

        Pairs that are already sorted and strictly apart, as the kernels
        here return them and ``union_to_obj`` writes them, pass one linear
        check and are kept as they are; any others are sorted and merged.
        """
        union = cls.__new__(cls)
        union._set(scale, pairs)
        return union

    def _set(self, scale: int, pairs: IntPairs) -> None:
        if any(left[1] >= right[0] for left, right in pairwise(pairs)):
            pairs = _merged([lo for lo, _ in pairs], [hi for _, hi in pairs])
        g = math.gcd(scale, *chain.from_iterable(pairs))  # reduce to the least common denominator
        self._scale = scale // g
        self._pairs = tuple([(lo // g, hi // g) for lo, hi in pairs])

    scale = property(lambda self: self._scale, doc="Least common denominator of the endpoints.")
    pairs = property(lambda self: self._pairs, doc="The parts as integer pairs over ``scale``.")

    @property
    def parts(self) -> tuple[Interval, ...]:
        """The parts as ``Interval``s, sorted, with lowest-terms ``Fraction`` ends."""
        s = self._scale
        return tuple(Interval(Fraction(lo, s), Fraction(hi, s)) for lo, hi in self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._scale == other._scale and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self._scale, self._pairs))

    @property
    def is_empty(self) -> bool:
        return not self._pairs

    def measure(self) -> Fraction:
        """Total length of the union (points contribute nothing).

        The integer lengths are summed and one ``Fraction`` is built at
        the end.
        """
        return Fraction(_total_length(self._pairs), self._scale)

    def bounds(self) -> tuple[Fraction, Fraction] | None:
        """Smallest and largest covered point, or None when empty."""
        if not self._pairs:
            return None
        return Fraction(self._pairs[0][0], self._scale), Fraction(self._pairs[-1][1], self._scale)

    def dilate(self, scale: Rational) -> "IntervalUnion":
        """Scale about the origin; measure scales by |scale| exactly.

        Dilation is monotone, so the scaled parts stay sorted and apart;
        a negative scale reverses their order and swaps each part's ends.
        """
        s = as_fraction(scale)
        num = s.numerator
        pairs = [(lo * num, hi * num) for lo, hi in self._pairs]
        if num < 0:
            pairs = [(hi, lo) for lo, hi in reversed(pairs)]
        return IntervalUnion._from_pairs(self._scale * s.denominator, pairs)

    def __add__(self, other: "IntervalUnion") -> "IntervalUnion":
        """Minkowski sum, computed as a union of thickenings by ``_int_sum``.

        Both operands are put over one scale, so the sum, sort and merge
        run on plain integers; the result is exact.
        """
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        scale = math.lcm(self._scale, other._scale)
        thickened = _Thickenings(_rescaled(other, scale))
        return IntervalUnion._from_pairs(scale, _int_sum(_rescaled(self, scale), thickened))

    def _ladder(self, H: int) -> Iterator[IntPairs]:
        """The rungs 1A, ..., HA as integer pairs over A's scale, one ``_int_sum`` each."""
        _require_int(H, "fold count", lo=1)
        return accumulate(repeat(_Thickenings(self._pairs), H - 1), _int_sum, initial=self._pairs)

    def folds(self, H: int) -> list["IntervalUnion"]:
        """The folds [1A, 2A, ..., HA] of this union A (H >= 1).

        Each is a rung of the integer ladder ``fold_measures`` climbs, made
        a union without any ``__add__``; ``hfold(H)`` is the last entry.
        """
        return [IntervalUnion._from_pairs(self._scale, pairs) for pairs in self._ladder(H)]

    def fold_measures(self, H: int) -> list[Fraction]:
        """The measures of the folds 1A, ..., HA, without building the folds.

        Equal to ``[fold.measure() for fold in self.folds(H)]``. A's scale
        is also a common denominator of every hA, since hA's endpoints are
        sums of A's, so the ladder climbs on A's integer pairs, one
        ``_int_sum`` per rung, and each measure is one ``Fraction`` over a
        fold's integer lengths. A's ``_Thickenings`` (lists in gap-width
        order, empty when A is) is built once and shared by every rung.
        The ladder is lazy: each rung is measured before the next is made,
        so only the rung below and the rung being made are alive at once.
        """
        return [Fraction(_total_length(pairs), self._scale) for pairs in self._ladder(H)]

    def hfold(self, h: int) -> "IntervalUnion":
        """h-fold Minkowski sum of the union with itself (h >= 1).

        The last rung of ``folds(h)``, climbed as h - 1 sums with ``+``
        (``__add__``), keeping only the rung below.
        """
        _require_int(h, "fold count", lo=1)
        return reduce(operator.add, repeat(self, h))

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        """Remove the interiors of ``other``'s parts, keeping all endpoints.

        The subtrahend is treated as a union of open intervals, so the
        result is again a closed union; single-point parts of ``other``
        remove nothing (the two pieces one splits a part into touch, and
        are merged again). The sorted gaps whose interiors meet a part [lo, hi]
        are one slice, found by two bisections; the part's pieces run from lo
        and their right ends to their left ends and hi, empty ones dropped.
        """
        if not isinstance(other, IntervalUnion):
            raise TypeError(f"subtrahend must be an IntervalUnion, got {type(other).__name__}")
        scale = math.lcm(self._scale, other._scale)
        gaps = _rescaled(other, scale)
        gap_los = [lo for lo, _ in gaps]
        gap_his = [hi for _, hi in gaps]
        pieces = []
        for lo, hi in _rescaled(self, scale):
            meet = slice(bisect_right(gap_his, lo), bisect_left(gap_los, hi))
            ends = zip([lo, *gap_his[meet]], [*gap_los[meet], hi])
            pieces += [(start, end) for start, end in ends if start <= end]
        return IntervalUnion._from_pairs(scale, pieces)

    def __repr__(self) -> str:
        return "IntervalUnion(" + " | ".join(repr(p) for p in self.parts) + ")"


def _rescaled(union: IntervalUnion, scale: int) -> IntPairs:
    """The union's integer pairs over ``scale``, a multiple of its own scale."""
    k = scale // union._scale
    return [(lo * k, hi * k) for lo, hi in union._pairs]


def _total_length(pairs: IntPairs) -> int:
    """The sum of hi - lo over integer pairs, in one C-level pass."""
    return -sum(starmap(operator.sub, pairs))


def _merged(starts: list[int], ends: list[int]) -> list[tuple[int, int]]:
    """The union of the integer pieces [starts[i], ends[i]] (each lo <= hi) as sorted, apart pairs.

    The one merge routine: ``_int_sum`` and every union built from pairs
    that are not yet sorted and apart go through it. A union of closed
    pieces depends only on the multisets of their starts and of their
    ends, so the two lists are sorted separately, in place. In sorted
    order the union has a hole between the i-th end and the (i+1)-th start
    exactly when ends[i] < starts[i + 1]: up to any point of that hole
    i + 1 pieces have started and i + 1 have ended. One C-level
    comparison pass finds those cuts; touching pieces (an end equal to the
    next start) merge.
    """
    if not starts:
        return []
    starts.sort()
    ends.sort()
    later = starts[1:]
    apart = list(map(operator.lt, ends, later))  # a cut between ends[i] and later[i]
    return list(zip([starts[0], *compress(later, apart)], [*compress(ends, apart), ends[-1]]))


class _Thickenings:
    """The pieces of ``parts + [0, L]``, for every L, as prefixes of two lists built once.

    ``parts`` are sorted, disjoint integer pairs. Thickening by L fills
    exactly the gaps of width at most L, so the thickened parts start at
    the first part's start and at the right end of every gap wider than L,
    and end L past the last part and past the left end of every such gap.
    Gap i lies between parts i and i + 1; keyed on minus its width, the
    gaps sort widest first and the keys, ``neg_widths``, ascend, ready for
    bisect. ``starts`` is the first part's start and then each gap's right
    end, and ``ends`` the last part's end and then each gap's left end, in
    that order: the thickening by L is their first
    ``bisect_left(neg_widths, -L) + 1`` entries, L added to the ends.
    They follow width order, not position; ``_merged`` sorts starts and
    ends apart, so only their multisets matter. The empty union has no
    first or last part and no gaps, so all three lists are empty and
    every thickening of it has no pieces.
    """

    __slots__ = ("neg_widths", "starts", "ends")

    def __init__(self, parts: IntPairs) -> None:
        los = [lo for lo, _ in parts]
        his = [hi for _, hi in parts]
        neg = list(map(operator.sub, his, los[1:]))
        by_width = sorted(range(len(neg)), key=neg.__getitem__)
        self.neg_widths = list(map(neg.__getitem__, by_width))
        self.starts = [*los[:1], *map(los[1:].__getitem__, by_width)]
        self.ends = [*his[-1:], *map(his.__getitem__, by_width)]


def _int_sum(a: IntPairs, thickened: _Thickenings) -> list[tuple[int, int]]:
    """Minkowski sum a + b of canonical unions, a as sorted integer pairs.

    b arrives only as ``thickened`` = ``_Thickenings(b)``, which a ladder
    builds once for all its rungs. For a part [lo, hi] of ``a``,
    ``[lo, hi] + b`` is b thickened by L = hi - lo and shifted by lo: its
    k pieces start at lo plus the first k of ``thickened.starts`` and end
    at hi plus the first k of its ``ends`` (none when b is empty), where
    k - 1 gaps of b are wider than L. One bisection per distinct part
    length finds k, and the parts with equal k form one group, kept in
    position order.

    Each group becomes shifts ``(source, lo, hi, j)``: pieces starting
    at lo plus the first j of ``source.starts`` and ending at hi plus the
    first j of ``source.ends``. A group of at most k parts gives
    ``(thickened, lo, hi, k)`` per part. A larger group G leaves the same
    k - 1 gaps of b open for every part, so G + b is the union of
    G + [c, d] over b's k coarse parts [c, d], b with only those gaps
    open (the k starts and the k ends, each sorted). G + [c, d] is G
    thickened by d - c and shifted by c, so with ``own = _Thickenings(G)``
    it gives ``(own, c, d, j)``, j - 1 being the number of G's gaps wider
    than d - c. One loop makes every shift's pieces, ``repeat(lo, j)``
    bounding each C-level ``map``, so no prefix is sliced. A rung's pieces
    thus number the sum of j over its shifts, known before any is made,
    and follow the output rather than the p*q part pairs, or |G| * k for
    a group. ``_merged`` sorts and merges them, touching ones included.
    """
    groups: dict[int, list[Sequence[int]]] = {}  # k pieces per part -> those parts, in position order
    k_of: dict[int, int] = {}  # part length -> k, one bisection per distinct length
    for part in a:
        L = part[1] - part[0]
        k = k_of.get(L)
        if k is None:
            k = k_of[L] = bisect_left(thickened.neg_widths, -L) + 1
        groups.setdefault(k, []).append(part)
    shifts: list[tuple[_Thickenings, int, int, int]] = []
    for k, group in groups.items():
        if len(group) <= k:
            shifts += [(thickened, lo, hi, k) for lo, hi in group]
        else:
            own = _Thickenings(group)
            coarse = zip(sorted(thickened.starts[:k]), sorted(thickened.ends[:k]))
            shifts += [(own, c, d, bisect_left(own.neg_widths, c - d) + 1) for c, d in coarse]
    starts: list[int] = []
    ends: list[int] = []
    for source, lo, hi, j in shifts:
        starts += map(operator.add, repeat(lo, j), source.starts)
        ends += map(operator.add, repeat(hi, j), source.ends)
    return _merged(starts, ends)


def grid_measure_oracle(union: IntervalUnion, step: Rational) -> tuple[Fraction, Fraction]:
    """Bracket the measure by counting grid cells of width ``step``.

    Returns ``(inner, outer)`` where inner counts cells [k*step, (k+1)*step]
    fully inside the union and outer counts cells meeting it in positive
    length. Always inner <= measure <= outer, and the gap is at most
    2*step per part, which makes this an independent cross-check on
    ``measure`` rather than a reimplementation of it.
    """
    if not isinstance(union, IntervalUnion):
        raise TypeError(f"grid oracle needs an IntervalUnion, got {type(union).__name__}")
    g = as_fraction(step)
    if g <= 0:
        raise ValueError(f"grid step must be positive, got {g}")
    # the endpoint e / scale lies e * gd / (scale * gn) cells right of 0, for g = gn / gd
    num, den = g.denominator, union.scale * g.numerator
    inner_cells = 0
    outer_cells = 0
    prev_touch_last: int | None = None
    for lo, hi in union.pairs:
        if lo == hi:
            continue
        first_full = -(-lo * num // den)
        last_full = hi * num // den - 1
        if last_full >= first_full:
            inner_cells += last_full - first_full + 1
        first_touch = lo * num // den
        last_touch = -(-hi * num // den) - 1
        if prev_touch_last is not None and first_touch <= prev_touch_last:
            first_touch = prev_touch_last + 1
        if last_touch >= first_touch:
            outer_cells += last_touch - first_touch + 1
            prev_touch_last = last_touch
    return g * inner_cells, g * outer_cells
