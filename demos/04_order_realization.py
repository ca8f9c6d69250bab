"""Order races on the real line: prescribe rank patterns, get interval sets.

Here the prescription is weaker than exact differences: only the order
of the h-fold measures matters, fold by fold. The route goes through
integers. Find integer sets whose sumset sizes rank as required, then
blow each integer up into a block so small that measures inherit the
integer ranks.
"""

from sumset_races import (
    dense_rank,
    realize,
    search_race_sets,
    verify_tau_race,
)

# Three folds, three patterns: a three-way tie is never asked for, but
# the middle fold demands set 2 ahead of set 1.
targets = [(1, 1), (2, 1), (1, 2)]

witness = search_race_sets(targets, ground=12, maxsize=6)
print("integer witness:", witness)
print()

# Realization: each integer b becomes the block [b, b + 1/4] (width is
# 1/(horizon+1)), so blocks inside any fold up to 3 never merge.
sets, width = realize(witness, horizon=len(targets))
print("block width:", width)
for i, s in enumerate(sets, start=1):
    print(f"A{i} = {s}")
print()

# Two independent routes to the same rank pattern: interval measures on
# one side, integer sumset sizes on the other. Each fold's check passes
# when both routes rank exactly as its target asks.
report = verify_tau_race(sets, witness, targets)
for check in report.checks:
    print(
        f"h={check.h}: measures {tuple(str(m) for m in check.measures)}"
        f" -> ranks {check.measure_ranks}, sizes {check.cardinalities}"
        f" -> ranks {check.cardinality_ranks}, wanted {check.target}"
    )
print("measure ranks match size ranks everywhere:", all(
    c.measure_ranks == c.cardinality_ranks for c in report.checks
))
print("every wanted pattern hit:", report.all_ok)
print()

# The rank patterns themselves are dense: ties share a rank and no rank
# is skipped, e.g. the pattern of (9, 7, 8, 9, 7, 8) is:
print("rank pattern of (9, 7, 8, 9, 7, 8):", dense_rank((9, 7, 8, 9, 7, 8)))
