"""Quadratic-form determinants, Gaussian integrals, and sum-vs-integral checks.

The quadratic form of interest is  a0*(x_1 + ... + x_k)**2 + sum a_i*x_i**2
with all coefficients positive.  Its matrix has diagonal a0 + a_i and
constant off-diagonal a0, and the determinant factors in closed form, which
makes the full-space Gaussian integral elementary.  The quadrature oracle
checks it for k <= 2 over a box scaled by the form's smallest eigenvalue,
so the truncated mass stays below exp(-64) per coordinate however flat the
form; Monte Carlo checks it for larger k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure, RadiusTooSmall, SumIntegralBoundError

# Rows per Monte Carlo block: 4096 x 8 doubles (256 KiB) stay in L2.
_MC_BLOCK = 4096
# Half-width of the quadrature box, in the eigenvalue-scaled coordinates.
_BOX = 8.0
# Uniform grid points on which sum_vs_integral estimates max|f|.
_GRID_POINTS = 10**4


@dataclass(frozen=True)
class QuadFormSpec:
    """Positive coefficients (a0; a1..ak) of the coupled quadratic form."""

    a0: float
    a_rest: tuple[float, ...]

    def __post_init__(self):
        if self.a0 <= 0 or any(a <= 0 for a in self.a_rest):
            raise ValueError("all quadratic-form coefficients must be positive")
        if not self.a_rest:
            raise ValueError("need at least one diagonal coefficient")

    @property
    def k(self) -> int:
        return len(self.a_rest)

    def matrix(self) -> np.ndarray:
        """Dense k x k matrix: diagonal a0 + a_i, off-diagonal a0."""
        m = np.full((self.k, self.k), self.a0, dtype=float)
        m[np.diag_indices(self.k)] += np.asarray(self.a_rest)
        return m


def det_closed_form(q: QuadFormSpec) -> float:
    """det = a0 * a1 * ... * ak * sum(1/a_i over i = 0..k)."""
    coeffs = (q.a0,) + q.a_rest
    prod = math.prod(coeffs)
    return prod * sum(1.0 / a for a in coeffs)


def random_form(rng: np.random.Generator, k: int, low: float, high: float) -> QuadFormSpec:
    """A k-dimensional form with a0, then a1..ak, drawn uniformly from [low, high)."""
    return QuadFormSpec(
        a0=float(rng.uniform(low, high)),
        a_rest=tuple(float(x) for x in rng.uniform(low, high, size=k)),
    )


def det_trials(trials: int, k_max: int, seed: int) -> list[tuple[int, float, float]]:
    """(k, closed form, elimination) determinants of seeded random forms.

    Each trial draws k uniformly from 1..k_max, then coefficients from
    [0.1, 10); the ``quadform`` command and the acceptance battery share it.
    Raises ValueError when ``trials`` or ``k_max`` is below 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    rng = np.random.default_rng(seed)
    forms = [random_form(rng, int(rng.integers(1, k_max + 1)), 0.1, 10) for _ in range(trials)]
    by_k: dict[int, list[int]] = {}
    for i, q in enumerate(forms):
        by_k.setdefault(q.k, []).append(i)
    elim = np.empty(trials)
    for k, idx in by_k.items():  # one stacked elimination per dimension
        mats = np.repeat([forms[i].a0 for i in idx], k * k).reshape(len(idx), k, k)
        mats[:, range(k), range(k)] += [forms[i].a_rest for i in idx]
        elim[idx] = np.linalg.det(mats)
    return [(q.k, det_closed_form(q), float(e)) for q, e in zip(forms, elim)]


def gaussian_quadform_integral(q: QuadFormSpec) -> float:
    """Full-space integral of exp(-quadform): pi**(k/2) / sqrt(det)."""
    return math.pi ** (q.k / 2) / math.sqrt(det_closed_form(q))


def truncation_error_bound(radius: float) -> float:
    """Upper bound exp(-r^2) on the one-dimensional Gaussian tail beyond r.

    Valid for r >= 1; used to justify box-truncated quadrature cross-checks.
    """
    if radius < 1:
        raise RadiusTooSmall(f"tail bound requires radius >= 1, got {radius}")
    return math.exp(-radius * radius)


def gaussian_integral_quadrature(q: QuadFormSpec) -> float:
    """Adaptive-quadrature oracle for the Gaussian integral, k in {1, 2}.

    With lam the form's smallest eigenvalue, substitutes y = sqrt(lam)*x:
    the scaled form, coefficients a_i/lam, is >= |y|^2, so the mass outside
    the box [-8, 8]^k is at most sqrt(pi)*erfc(8) per coordinate, below
    ``truncation_error_bound(8)``, for every form.  Returns the scaled
    integral times lam**(-k/2).
    """
    from scipy import integrate  # scipy loads only for the two quadrature paths

    lam = float(np.linalg.eigvalsh(q.matrix())[0])
    a0 = q.a0 / lam
    if q.k == 1:
        a = a0 + q.a_rest[0] / lam
        val, err = integrate.quad(lambda x: math.exp(-a * x * x), -_BOX, _BOX,
                                  epsabs=1e-9)
    elif q.k == 2:
        a1, a2 = (a / lam for a in q.a_rest)

        def f(y, x):
            return math.exp(-(a0 * (x + y) ** 2 + a1 * x * x + a2 * y * y))

        val, err = integrate.dblquad(f, -_BOX, _BOX, -_BOX, _BOX, epsabs=1e-9)
    else:
        raise ValueError("quadrature oracle supports k <= 2; use Monte Carlo above")
    if err > 1e-6:
        raise QuadratureFailure(f"quadrature error estimate {err} too large")
    return val * lam ** (-q.k / 2)


def gaussian_integral_monte_carlo(
    q: QuadFormSpec,
    samples: int = 10**7,
    radius: float = 8.0,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo oracle: (estimate, standard error) over the truncated box.

    Raises ValueError when ``samples`` is below 2 or ``radius`` is not finite.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    truncation_error_bound(radius)
    rng = np.random.default_rng(seed)
    volume = (2 * radius) ** q.k
    a_rest = np.asarray(q.a_rest)
    ones = np.ones(q.k)
    # Blocked and in place: one (B, k) draw buffer and two length-B work
    # vectors, so memory stays O(B*k) whatever the sample count.  Filling
    # rows in order with random() and mapping to [-radius, radius) gives
    # the same draws as uniform(-radius, radius, size=(samples, k)).  Row
    # sums go through matmul with ones: np.sum over a short last axis
    # costs as much as drawing the numbers.
    buf = np.empty((_MC_BLOCK, q.k))
    buf_sq = np.empty(_MC_BLOCK)
    buf_val = np.empty(_MC_BLOCK)
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, _MC_BLOCK):
        m = min(_MC_BLOCK, samples - start)
        x, sq, vals = buf[:m], buf_sq[:m], buf_val[:m]
        rng.random(out=x)
        x *= 2 * radius
        x -= radius
        np.matmul(x, ones, out=sq)
        sq *= sq
        sq *= -q.a0
        x *= x
        np.matmul(x, a_rest, out=vals)
        np.subtract(sq, vals, out=vals)
        np.exp(vals, out=vals)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(var / samples)


def sum_vs_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    m: int,
) -> tuple[float, float, float]:
    """Compare the lattice sum of f over [a, b] with its integral.

    ``m`` is the caller-asserted number of interior critical points of f.
    Returns (sum, integral, bound) with bound = 2 * (m + 1) * max|f|, the
    max estimated on a uniform grid plus endpoints.  Raises
    SumIntegralBoundError if |sum - integral| exceeds the bound and
    QuadratureFailure if the integral cannot be trusted.
    """
    if b - a < 1:
        raise ValueError("interval must have length >= 1")
    if m < 0:
        raise ValueError("critical-point count must be >= 0")
    from scipy import integrate

    lattice = sum(f(n) for n in range(math.ceil(a), math.floor(b) + 1))
    val, err = integrate.quad(f, a, b, epsrel=1e-10, limit=500)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1.0):
        raise QuadratureFailure(f"integral {val} with error estimate {err}")
    xs = np.linspace(a, b, _GRID_POINTS)
    fmax = max(float(np.max(np.abs([f(x) for x in xs]))), abs(f(a)), abs(f(b)))
    bound = 2.0 * (m + 1) * fmax
    if abs(lattice - val) > bound:
        raise SumIntegralBoundError(
            f"|sum - integral| = {abs(lattice - val)} exceeds bound {bound}"
        )
    return lattice, val, bound
