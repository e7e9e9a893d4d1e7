"""Gaussian integrals of coupled quadratic forms, three ways.

The form a0*(x1+...+xk)^2 + sum a_i*x_i^2 has a determinant that factors
in closed form, so its full-space Gaussian integral is elementary.  This
demo cross-checks the closed form against elimination, adaptive
quadrature (also on a nearly flat form), and Monte Carlo.
"""

import math

import numpy as np

import colorpart as cp

rng = np.random.default_rng(0)

print("determinant identity vs elimination (k = 1..8):")
for k in range(1, 9):
    q = cp.QuadFormSpec(
        a0=float(rng.uniform(0.5, 5)),
        a_rest=tuple(float(x) for x in rng.uniform(0.5, 5, size=k)),
    )
    closed = cp.det_closed_form(q)
    elim = float(np.linalg.det(q.matrix()))
    print(f"  k={k}: closed {closed:14.6f}  elimination {elim:14.6f}  "
          f"rel err {abs(closed - elim) / elim:.2e}")

print("\nintegral cross-checks:")
q1 = cp.QuadFormSpec(1.0, (1.0,))
print(f"  k=1: closed {cp.gaussian_quadform_integral(q1):.10f}  "
      f"quadrature {cp.gaussian_integral_quadrature(q1):.10f}  "
      f"(exact sqrt(pi/2) = {math.sqrt(math.pi / 2):.10f})")

q2 = cp.QuadFormSpec(1.0, (1.0, 1.0))
print(f"  k=2: closed {cp.gaussian_quadform_integral(q2):.10f}  "
      f"quadrature {cp.gaussian_integral_quadrature(q2):.10f}  "
      f"(exact pi/sqrt(3) = {math.pi / math.sqrt(3):.10f})")

# Curvatures near 1e-4, as at the region split's saddle for n ~ 1000: the
# Gaussian is hundreds of units wide, far outside [-8, 8]^2 in x.
q_flat = cp.QuadFormSpec(2e-4, (1e-4, 3e-4))
closed, quad = cp.gaussian_quadform_integral(q_flat), cp.gaussian_integral_quadrature(q_flat)
assert abs(quad - closed) <= 1e-9 * closed
print(f"  k=2, flat: closed {closed:.6f}  quadrature {quad:.6f}")

q3 = cp.QuadFormSpec(1.5, (0.8, 1.2, 2.0))
est, se = cp.gaussian_integral_monte_carlo(q3, samples=10**6, seed=0)
print(f"  k=3: closed {cp.gaussian_quadform_integral(q3):.6f}  "
      f"monte carlo {est:.6f} +/- {se:.6f}")

print("\nquadrature integrates over [-8, 8]^k after scaling x by the square root")
print("of the smallest eigenvalue, so the scaled form is >= |y|^2 and the mass")
print(f"cut off per coordinate is below exp(-64) = {cp.truncation_error_bound(8.0):.3e}")
