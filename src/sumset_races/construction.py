"""Building interval sets whose h-fold sumset measures differ as prescribed.

Given an (n-1) x H table of integer targets d[i][h] and a positive
rational scale, the pipeline produces n interval unions A_1, ..., A_n with

    measure(hA_i) - measure(hA_{i+1}) = scale * d[i][h]

exactly, for every consecutive pair i and every fold count h up to H.

The route: back-substitute the targets into per-step gap increments,
lift those to nonnegative per-set gap multiplicities, carve calibrated
open gaps out of a fixed block, attach a two-block filler whose own
h-fold sums contribute identically for every set, and finally dilate.
Each carved gap of width class r survives thickening by [0, (h-1)*delta]
with exactly (r-h+1)*delta of its width for h <= r, which is what turns
gap multiplicities into controlled measure differences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, pairwise
from typing import NamedTuple, Sequence

from .intervals import (
    IntTable,
    Interval,
    IntervalUnion,
    Rational,
    SchemaError,
    _require_int,
    as_fraction,
)

__all__ = [
    "InternalCheckError",
    "BuildBudgetError",
    "MAX_BUILD_GAPS",
    "DiffMatrix",
    "StepMatrix",
    "CarveMatrix",
    "ConstructionParams",
    "CarvedBlock",
    "solve_steps",
    "lift_steps",
    "choose_params",
    "filler_set",
    "carve",
    "thickened_measure",
    "assemble_set",
    "build_sets",
    "BuildResult",
    "DifferenceCheck",
    "TelescopeCheck",
    "DifferenceReport",
    "verify_differences",
]


class InternalCheckError(ArithmeticError):
    """An exact identity the construction relies on failed to hold."""


MAX_BUILD_GAPS = 100_000
"""Most gaps one ``build_sets`` call may carve, summed over all its sets.

It bounds the carving stage, about 0.8 KB per gap while the sets are built
(tracemalloc, on a 2,500-gap build), not verification, whose fold ladders
grow with parts x H: two sets with H = 64 and rows alternating +350/-350
(88,200 gaps) build in 0.2 s but verify in about 4.5 s, and ``build``
peaks at 212 MB RSS (2 vCPU). The limit is about 300 times the heaviest
benchmark instance (340 gaps) and about 9 times the most that targets with
n <= 4, H <= 10 and |m| <= 50 can need (10,800, for rows alternating +50
and -50).
"""


class BuildBudgetError(SchemaError):
    """The targets need more carved gaps than ``MAX_BUILD_GAPS``."""


class DiffMatrix(IntTable):
    """Integer targets for the measure differences of consecutive sets.

    ``rows[i-1][h-1]`` is the target for measure(hA_i) - measure(hA_{i+1}),
    before scaling. n-1 rows of width H, with n >= 2 and H >= 2.
    """

    __slots__ = ()


class StepMatrix(IntTable):
    """Per-step gap-count increments between consecutive sets, one row per pair."""

    __slots__ = ()


class CarveMatrix(IntTable):
    """Nonnegative gap multiplicities, one row per set, one column per width class."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "CarveMatrix":
        self = super().__new__(cls, rows)
        if any(v < 0 for row in self.rows for v in row):
            raise ValueError("gap multiplicities must be nonnegative")
        if 0 in self.row_totals:
            raise ValueError("every set must carve at least one gap")
        return self

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


_PARAM_FIELDS = [("eps", Fraction), ("delta", Fraction), ("c", Fraction), ("H", int), ("n", int)]


class ConstructionParams(NamedTuple("ConstructionParams", _PARAM_FIELDS)):
    """Shared geometry for one build: gap unit delta, filler offset c, and eps.

    Invariants keep every piece strictly separated: eps in (0, 1/3),
    0 < delta < eps/(H-1), and c far enough right that the filler and the
    carved block never collide with the seed block [0, delta].
    """

    __slots__ = ()

    def __new__(
        cls, eps: Rational, delta: Rational, c: Rational, H: int, n: int
    ) -> "ConstructionParams":
        _require_int(H, "fold horizon H", lo=2)
        _require_int(n, "set count n", lo=2)
        eps, delta, c = as_fraction(eps), as_fraction(delta), as_fraction(c)
        if not 0 < eps < Fraction(1, 3):
            raise ValueError(f"eps must lie strictly between 0 and 1/3, got {eps}")
        if not 0 < delta < eps / (H - 1):
            raise ValueError(f"delta must lie strictly between 0 and eps/(H-1), got {delta}")
        if not (H - 1) * delta + 3 < c:
            raise ValueError(f"offset c too small: need (H-1)*delta + 3 < c, got {c}")
        return super().__new__(cls, eps, delta, c, H, n)


def solve_steps(diffs: DiffMatrix) -> StepMatrix:
    """Solve sum_{r=h..H} (r-h+1)*x_r = d_h for each row by back-substitution.

    The system is upper triangular with unit diagonal, so the integer
    solution is unique; it is re-checked by direct substitution before
    being returned.
    """
    H = diffs.H
    rows = []
    for d in diffs.rows:
        # d_h = 0 past H, so x_r = d_r - 2 d_{r+1} + d_{r+2} holds for every r.
        d = (*d, 0, 0)
        rows.append(tuple(d[r] - 2 * d[r + 1] + d[r + 2] for r in range(H)))
    for x, d in zip(rows, diffs.rows):
        for h in range(1, H + 1):
            total = sum((r - h + 1) * x[r - 1] for r in range(h, H + 1))
            if total != d[h - 1]:
                raise InternalCheckError(
                    f"back-substitution failed: fold {h} gives {total}, wanted {d[h - 1]}"
                )
    return StepMatrix(tuple(rows))


def _lift_column(steps: Sequence[int]) -> list[int]:
    """Smallest nonnegative sequence whose successive differences are ``steps``."""
    sums = [0, *accumulate(steps)]
    lowest = min(sums)
    return [p - lowest for p in sums]


def lift_steps(steps: StepMatrix) -> CarveMatrix:
    """Lift step increments to nonnegative multiplicity rows with positive totals.

    Each width class lifts independently to its minimal nonnegative
    solution. If some set then carves nothing at all, every set gets one
    extra width-1 gap: a constant added to a whole column shifts no
    difference, and it guarantees every carved block is a proper subset
    of its base block.
    """
    n, H = steps.n, steps.H
    columns = [_lift_column([steps.rows[i][r] for i in range(n - 1)]) for r in range(H)]
    rows = [[columns[r][i] for r in range(H)] for i in range(n)]
    if any(sum(row) == 0 for row in rows):
        for row in rows:
            row[0] += 1
    for i in range(n - 1):
        for r in range(H):
            if rows[i + 1][r] - rows[i][r] != steps.rows[i][r]:
                raise InternalCheckError("lift does not reproduce its steps")
    return CarveMatrix(tuple(tuple(r) for r in rows))


def choose_params(H: int, n: int, max_gaps: int) -> ConstructionParams:
    """Fixed parameter recipe, with strict margin in every inequality.

    ``max_gaps`` is the largest total gap count any single set will carve;
    halving the feasibility bound keeps every carved gap strictly inside
    its block even in the extreme width class. ``ConstructionParams``
    checks ``n``; ``H`` is checked here because the recipe divides by H - 1.
    """
    _require_int(H, "fold horizon H", lo=2)
    _require_int(max_gaps, "max gap count", lo=1)
    eps = Fraction(1, 4)
    delta = Fraction(1, 2) * min(eps / (H - 1), (1 - 3 * eps) / (2 * H * max_gaps))
    c = (H - 1) * delta + 4
    return ConstructionParams(eps=eps, delta=delta, c=c, H=H, n=n)


def filler_set(eps: Rational) -> IntervalUnion:
    """The two blocks [0, 1-eps] and [2, 3-eps].

    Their h-fold sums collapse to the single interval [0, h*(3-eps)] for
    every h >= 3, so the filler contributes the same measure to every
    assembled set at every fold.
    """
    e = as_fraction(eps)
    if not 0 < e < Fraction(1, 3):
        raise ValueError(f"eps must lie strictly between 0 and 1/3, got {e}")
    return IntervalUnion([(0, 1 - e), (2, 3 - e)])


class CarvedBlock(NamedTuple):
    """The block [1+eps, 2-2eps] with calibrated open gaps removed.

    Gap j opens at anchor u_j = 1 + eps + 2*H*j*delta and has width
    r*delta, where r is its width class: the first counts[0] gaps are
    class 1, the next counts[1] class 2, and so on. Gaps are open on
    both sides, so every anchor stays in ``kept``; they have positive
    width and lie strictly inside the block, so ``gaps``, the holes
    between consecutive parts of ``kept``, are the gaps one to one.
    """

    counts: tuple[int, ...]
    kept: IntervalUnion

    @property
    def gaps(self) -> tuple[Interval, ...]:
        s = self.kept.scale
        holes = pairwise(self.kept.pairs)
        return tuple(Interval(Fraction(lo, s), Fraction(hi, s)) for (_, lo), (hi, _) in holes)

    @property
    def anchors(self) -> tuple[Fraction, ...]:
        """u_0 = 1 + eps, the block's left end, then the anchor of each gap."""
        return (self.kept.bounds()[0], *(gap.lo for gap in self.gaps))


def carve(counts: Sequence[int], params: ConstructionParams) -> CarvedBlock:
    """Carve ``counts[r-1]`` open gaps of width r*delta out of the base block.

    Every anchor, gap end and block end is an integer multiple of 1/D for
    D = lcm(den eps, den delta), so the kept pieces between the gaps are
    written straight onto that grid, in order, with no merge. The last gap
    ends at 1 + eps + (2*H*total + r_max)*delta, for r_max the widest class
    carved, so it is refused up front unless that lies below 2 - 2eps.
    """
    clean = tuple(_require_int(v, "gap count", lo=0) for v in counts)
    if len(clean) != params.H:
        raise ValueError(f"need one gap count per width class 1..{params.H}")
    total = sum(clean)
    if total == 0:
        raise ValueError("at least one gap must be carved")
    eps, delta, H = params.eps, params.delta, params.H
    r_max = max(r for r, count in enumerate(clean, start=1) if count)
    if (2 * H * total + r_max) * delta >= 1 - 3 * eps:
        raise ValueError(f"delta {delta} leaves no room for {total} gaps in the block")
    grid = math.lcm(eps.denominator, delta.denominator)
    unit = delta.numerator * (grid // delta.denominator)  # delta * grid
    eps_units = eps.numerator * (grid // eps.denominator)
    block_lo, block_top = grid + eps_units, 2 * grid - 2 * eps_units  # 1 + eps, 2 - 2eps
    gaps = []
    anchor = block_lo
    for r, count in enumerate(clean, start=1):
        for _ in range(count):
            anchor += 2 * H * unit
            gaps.append((anchor, anchor + r * unit))
    starts = [block_lo] + [hi for _, hi in gaps]
    ends = [lo for lo, _ in gaps] + [block_top]
    return CarvedBlock(counts=clean, kept=IntervalUnion._from_pairs(grid, list(zip(starts, ends))))


def thickened_measure(block: CarvedBlock, h: int, params: ConstructionParams) -> Fraction:
    """Exact measure of [0, (h-1)*delta] + kept, checked against its closed form.

    Thickening refills each gap of width class r < h completely and all
    but (r-h+1)*delta of each class-r gap with r >= h. The direct
    interval computation and the closed form must agree to the last bit;
    a mismatch raises, because every downstream guarantee leans on it.
    """
    if not 1 <= _require_int(h, "fold") <= params.H:
        raise ValueError(f"fold must lie in 1..{params.H}, got {h!r}")
    delta, eps = params.delta, params.eps
    smear = IntervalUnion([(0, (h - 1) * delta)])
    direct = (smear + block.kept).measure()
    residue = sum((r - h + 1) * cnt for r, cnt in enumerate(block.counts, start=1) if r >= h)
    closed = (h - 1) * delta + 1 - 3 * eps - delta * residue
    if direct != closed:
        raise InternalCheckError(
            f"thickened measure mismatch at fold {h}: direct {direct}, closed form {closed}"
        )
    return direct


def assemble_set(
    filler: IntervalUnion, carved: IntervalUnion, params: ConstructionParams
) -> IntervalUnion:
    """[0, delta] together with the filler and carved block shifted right by c.

    All three go onto one integer grid and through one merge.
    """
    if carved.is_empty:
        raise ValueError("carved block must be nonempty")
    lo, hi = carved.bounds()
    if lo < 1 + params.eps or hi > 2 - 2 * params.eps:
        raise ValueError("carved block must stay inside [1+eps, 2-2eps]")
    delta, c = params.delta, params.c
    grid = math.lcm(filler.scale, carved.scale, c.denominator, delta.denominator)
    shift = c.numerator * (grid // c.denominator)
    pairs = [(0, delta.numerator * (grid // delta.denominator))]
    for piece in (filler, carved):
        k = grid // piece.scale
        pairs += [(lo * k + shift, hi * k + shift) for lo, hi in piece.pairs]
    return IntervalUnion._from_pairs(grid, pairs)


class BuildResult(NamedTuple):
    sets: tuple[IntervalUnion, ...]
    params: ConstructionParams
    carves: CarveMatrix


def build_sets(diffs: DiffMatrix, scale: Rational) -> BuildResult:
    """Full pipeline from difference targets to finished interval sets.

    The assembled sets are dilated by scale/delta, which turns the raw
    per-gap differences of delta * d[i][h] into scale * d[i][h] exactly.
    Targets needing more than ``MAX_BUILD_GAPS`` gaps in total raise
    ``BuildBudgetError`` before anything is carved.
    """
    theta = as_fraction(scale)
    if theta <= 0:
        raise ValueError(f"scale must be positive, got {theta}")
    steps = solve_steps(diffs)
    carves = lift_steps(steps)
    total = sum(carves.row_totals)
    if total > MAX_BUILD_GAPS:
        raise BuildBudgetError(
            f"the targets need {total} carved gaps, more than the limit of {MAX_BUILD_GAPS}"
        )
    params = choose_params(diffs.H, diffs.n, max(carves.row_totals))
    filler = filler_set(params.eps)
    ratio = theta / params.delta
    sets = tuple(
        assemble_set(filler, carve(row, params).kept, params).dilate(ratio)
        for row in carves.rows
    )
    return BuildResult(sets=sets, params=params, carves=carves)


class DifferenceCheck(NamedTuple):
    """One recomputed consecutive difference against its scaled target."""

    pair: int  # 1-based: compares sets[pair-1] and sets[pair]
    h: int
    computed: Fraction
    target: Fraction

    @property
    def ok(self) -> bool:
        return self.computed == self.target


class TelescopeCheck(NamedTuple):
    """Pairwise difference recomputed as a sum of consecutive ones."""

    j: int
    k: int
    h: int
    ok: bool


class DifferenceReport(NamedTuple):
    checks: tuple[DifferenceCheck, ...]
    telescoping: tuple[TelescopeCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks) and all(t.ok for t in self.telescoping)


def verify_differences(
    sets: Sequence[IntervalUnion], diffs: DiffMatrix, scale: Rational
) -> DifferenceReport:
    """Recompute every h-fold measure difference and compare, exactly.

    Also confirms the telescoping identity: for any j < k the difference
    measure(hA_j) - measure(hA_k) equals the sum of the scaled targets of
    the consecutive pairs between them. Nothing here reuses the
    construction's internals; the folds are recomputed from the sets as
    given.

    Each fold's n measures and theta are put over one common denominator,
    so every comparison is between integers: a difference is recomputed
    from the two measures, and a telescoping sum of targets is a
    difference of prefix sums of theta * d. Fractions are made only for
    the ``DifferenceCheck`` records.
    """
    theta = as_fraction(scale)
    if len(sets) != diffs.n:
        raise ValueError(f"expected {diffs.n} sets, got {len(sets)}")
    n, H = diffs.n, diffs.H
    folds = []  # per fold h: (den, the n measures and the prefix sums of targets over den)
    for h, measures in enumerate(zip(*(s.fold_measures(H) for s in sets)), start=1):
        den = math.lcm(theta.denominator, *(m.denominator for m in measures))
        unit = theta.numerator * (den // theta.denominator)
        nums = [m.numerator * (den // m.denominator) for m in measures]
        prefix = [0, *accumulate(unit * diffs.rows[i][h - 1] for i in range(n - 1))]
        folds.append((den, nums, prefix))
    checks = [
        DifferenceCheck(
            pair=i,
            h=h,
            computed=Fraction(nums[i - 1] - nums[i], den),
            target=Fraction(prefix[i] - prefix[i - 1], den),
        )
        for i in range(1, n)
        for h, (den, nums, prefix) in enumerate(folds, start=1)
    ]
    telescoping = [
        TelescopeCheck(j=j, k=k, h=h, ok=nums[j - 1] - nums[k - 1] == prefix[k - 1] - prefix[j - 1])
        for j in range(1, n)
        for k in range(j + 1, n + 1)
        for h, (_, nums, prefix) in enumerate(folds, start=1)
    ]
    return DifferenceReport(checks=tuple(checks), telescoping=tuple(telescoping))
