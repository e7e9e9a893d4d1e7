"""Three independent ways to count colored partitions, agreeing exactly.

A 4-colored partition of n (two colors unrestricted, two only on parts
divisible by 3) can be counted by a divisor-sum recurrence, by pentagonal
division (dividing 1 by Euler's function E(q^s) once per color, which for
s=1;l=1 gives the plain partition numbers p(n)), or by convolving plain
partition counts over constrained tuples.  All three produce identical big
integers.
"""

import colorpart as cp

spec = cp.parse_text("s=1,3;l=2,2")
N = 30

divisor = cp.g_series_divisor(spec, N)
euler = cp.g_series_euler(spec, N)
convolution = cp.g_series_convolution(spec, N)

print(f"spec: {spec}   (colors: {spec.total_colors()})")
print(f"{'n':>4} {'divisor':>16} {'euler':>16} {'convolution':>16}")
for n in range(N + 1):
    assert divisor[n] == euler[n] == convolution[n]
    print(f"{n:>4} {divisor[n]:>16} {euler[n]:>16} {convolution[n]:>16}")

print("\nall three methods agree on every coefficient")

# The classical single-color case collapses to the plain partition numbers.
classical = cp.g_series_divisor(cp.parse_text("s=1;l=1"), 10)
print("p(0..10) =", list(classical.coeffs))
