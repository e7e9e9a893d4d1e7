"""Where does the count live?  Splitting the tuple sum at the saddle.

The count g(n) is a sum of products of partition numbers over color tuples.
Almost all of it concentrates in a shrinking box around the saddle tuple
v = n / (s^2 * a); this demo splits the sum exactly and watches the tail
share decay as n grows.  The decay is slow, like exp(-c * n**(2*eta - 3/2))
with 2*eta - 3/2 <= 1/6, so at these n the tail is still a large share.
"""

from fractions import Fraction

import mpmath

import colorpart as cp

spec = cp.parse_text("s=1;l=2")
eta = Fraction(4, 5)
window = cp.eta_window(spec)
print(f"spec {spec}, box exponent eta = {eta} in ({window.lower}, {window.upper})")

series = cp.g_series_divisor(spec, 400)

print(f"{'n':>5} {'main share':>12} {'tail share':>12}")
for n in (50, 100, 200, 400):
    rep = cp.region_split(spec, n, eta)
    assert rep.main_sum + rep.tail_sum == series[n]  # exact conservation
    tail = rep.tail_fraction()
    print(f"{n:>5} {mpmath.nstr(1 - tail, 8):>12} {mpmath.nstr(tail, 8):>12}")

print("\nsaddle tuple for n=400:", [str(v) for v in cp.saddle_tuple(spec, 400)])

# Four colors: the split is a fold over the three free colors, so n in the
# thousands is in reach.
spec = cp.parse_text("s=1,3;l=2,2")
series = cp.g_series_divisor(spec, 2000)
print(f"\nspec {spec}, eta = {eta}")
print(f"{'n':>5} {'main share':>12} {'tail share':>12}")
for n in (400, 1000, 2000):
    rep = cp.region_split(spec, n, eta)
    assert rep.main_sum + rep.tail_sum == series[n]  # exact conservation
    tail = rep.tail_fraction()
    print(f"{n:>5} {mpmath.nstr(1 - tail, 8):>12} {mpmath.nstr(tail, 8):>12}")
