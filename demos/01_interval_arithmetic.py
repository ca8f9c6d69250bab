"""A tour of exact interval unions: canonical form, sums, folds, measure.

Everything below is computed in rational arithmetic. No value is ever
rounded, so every printed equality is a real equality.
"""

from fractions import Fraction as F

from sumset_races import IntervalUnion, grid_measure_oracle

# Construction canonicalizes: overlapping and touching parts merge,
# parts come out sorted, and points (lo == hi) survive.
messy = IntervalUnion([(3, 4), (0, 1), (F(1, 2), F(3, 2)), (7, 7)])
print("canonical form:", messy)
print("measure:", messy.measure())
print()

# The Minkowski sum A + B is {a + b}. Summing a set with itself fills
# some gaps and keeps others, depending on the gap widths.
x = IntervalUnion([(0, F(3, 4)), (2, F(11, 4))])
print("x      =", x)
print("x + x  =", x + x)

# Folding is iterated summing: folds(4) is the ladder x, 2x, 3x, 4x, each
# one more sum. By the third fold the gaps of this particular set are gone
# and a single interval remains.
for h, folded in enumerate(x.folds(4)[1:], start=2):
    print(f"{h}-fold = {folded}  (measure {folded.measure()})")
print()

# Dilation scales pointwise and multiplies measure by the factor.
print("dilated by 3/2:", x.dilate(F(3, 2)))

# Subtraction removes the interior of the other set but keeps shared
# endpoints, matching the removal of open gaps from a closed block.
block = IntervalUnion([(0, 4)])
carved = block.subtract(IntervalUnion([(1, 2), (3, F(7, 2))]))
print("open gaps removed:", carved)
print()

# An independent plausibility check: count grid cells fully inside and
# cells merely touched. The exact measure must land between the counts,
# and it does so strictly here because 1/5 divides none of the endpoints
# of the last part.
inner, outer = grid_measure_oracle(carved, F(1, 5))
print(f"grid bracket at step 1/5: {inner} <= {carved.measure()} <= {outer}")
