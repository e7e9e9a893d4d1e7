"""Gaussian integrals of coupled quadratic forms, three ways.

The form a0*(x1+...+xk)^2 + sum a_i*x_i^2 has a determinant that factors
in closed form, so its full-space Gaussian integral is elementary.  This
demo cross-checks the closed form against elimination, adaptive
quadrature (also on a nearly flat and a strongly coupled form), and Monte
Carlo.
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

# A strong coupling a0 makes a ridge along x + y = 0 about 1e-3 wide: the
# box follows y's conditional centre -a0*x/(a0 + a2) and width.
q_ridge = cp.QuadFormSpec(1e6, (1.0, 1.0))
closed, quad = cp.gaussian_quadform_integral(q_ridge), cp.gaussian_integral_quadrature(q_ridge)
assert abs(quad - closed) <= 1e-12 * closed
print(f"  k=2, ridge: closed {closed:.10f}  quadrature {quad:.10f}")

q3 = cp.QuadFormSpec(1.5, (0.8, 1.2, 2.0))
est, se = cp.gaussian_integral_monte_carlo(q3, samples=10**6, seed=0)
print(f"  k=3: closed {cp.gaussian_quadform_integral(q3):.6f}  "
      f"monte carlo {est:.6f} +/- {se:.6f}")

print("\nquadrature integrates over [-8, 8]^k in coordinates taken from the form's")
print("conditional factorisation (for k = 2, x scaled by the Schur complement and y")
print("centred on its conditional mean), in which the form is |t|^2, so the mass")
print(f"cut off per coordinate is below exp(-64) = {math.exp(-64):.3e}")
