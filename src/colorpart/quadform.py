"""Quadratic-form determinants, Gaussian integrals, and sum-vs-integral checks.

The quadratic form of interest is  a0*(x_1 + ... + x_k)**2 + sum a_i*x_i**2
with all coefficients positive.  Its matrix has diagonal a0 + a_i and
constant off-diagonal a0, and the determinant factors in closed form, which
makes the full-space Gaussian integral elementary.  The quadrature oracle
checks it for k <= 2 over a box taken from the form's conditional
factorisation, so the truncated mass stays below exp(-64) per coordinate
however flat or strongly coupled the form; Monte Carlo checks it for larger
k.  Both the quadrature oracle and ``sum_vs_integral`` run one numpy
Gauss-Kronrod kernel (``_gk15``), so the module needs numpy only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import QuadratureFailure, RadiusTooSmall, SumIntegralBoundError

# Rows per Monte Carlo block: 4096 x 8 doubles (256 KiB) stay in L2.
_MC_BLOCK = 4096
# Trials per det_trials block: about 0.4 KiB of forms and rows each, 1.6 MiB in all.
_DET_BLOCK = 4096
# Half-width of the quadrature box, in coordinates where the form is |t|^2.
_BOX = 8.0
# Uniform grid points on which sum_vs_integral estimates max|f|.
_GRID_POINTS = 10**4

# QUADPACK's qk15 rule on [-1, 1], from the node nearest 1 down to the
# centre: the 15 Kronrod nodes (mirrored), their weights, and the weights of
# the 7-point Gauss rule on every other node (0 elsewhere).
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _XK] + list(_XK[-2::-1]))
_KRONROD = np.array(_WK + _WK[-2::-1])
_GAUSS = np.array(_WG + _WG[-2::-1])
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class QuadFormSpec:
    """Positive coefficients (a0; a1..ak) of the coupled quadratic form."""

    a0: float
    a_rest: tuple[float, ...]

    def __post_init__(self):
        # NaN fails both comparisons, so it is refused with the infinities.
        if not all(0 < a < math.inf for a in (self.a0, *self.a_rest)):
            raise ValueError("all quadratic-form coefficients must be positive and finite")
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


def _gk15_rule(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk15 on the intervals [lo_j, hi_j] with one call of f: (values, errors).

    Values have shape (intervals, *shape of one node's values).  An
    interval's error is its largest component's, estimated as QUADPACK
    does: the Kronrod-Gauss difference, sharpened by (200*diff/resasc)**1.5
    and floored at 50 ulps of the integral of |f|.
    """
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    fx = np.asarray(f((centre[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    shape = fx.shape[1:]
    fx = fx.reshape(len(lo), 15, -1)
    h = half[:, None]
    with np.errstate(all="ignore"):  # a non-finite f gives a NaN error, not a warning
        kron = _KRONROD @ fx
        mean = kron / 2  # the mean value of f over each interval
        resk = h * kron
        diff = np.abs(resk - h * (_GAUSS @ fx))
        resasc = h * (_KRONROD @ np.abs(fx - mean[:, None, :]))
        resabs = h * (_KRONROD @ np.abs(fx))
        sharp = resasc * np.minimum(1.0, (200 * diff / resasc) ** 1.5)
        err = np.where((resasc != 0) & (diff != 0), sharp, diff)
        err = np.where(resabs > _TINY / (50 * _EPS), np.maximum(50 * _EPS * resabs, err), err)
    return resk.reshape(len(lo), *shape), err.max(axis=1)


def _gk15(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
          limit: int = 50):
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15: (value, error).

    ``f`` maps a 1-D array of nodes to an array of values, one entry (or
    row, for a vector-valued integrand) per node, so each step evaluates it
    once.  Global bisection as in QUADPACK's qage: the interval with the
    largest error is halved until the summed error is at most
    max(epsabs, epsrel * |value|), |value| its largest component; both
    tolerances default to QUADPACK's usual 1.49e-8.  Returns a float for a
    scalar integrand, else an array shaped like one node's values; the
    error bounds every component.  Raises QuadratureFailure when ``limit``
    subintervals do not meet the tolerance, a non-finite error included.
    """
    val, err = _gk15_rule(f, np.array([a], dtype=float), np.array([b], dtype=float))
    heap = [(-err[0], a, b, val[0])]  # worst interval first
    total, errsum = val[0].copy(), float(err[0])
    with np.errstate(invalid="ignore"):  # inf - inf when f is not finite
        while not errsum <= max(epsabs, epsrel * float(np.abs(total).max())):
            if len(heap) >= limit:
                raise QuadratureFailure(
                    f"{limit} subintervals leave error estimate {errsum}, above tolerance")
            neg_err, lo, hi, old = heapq.heappop(heap)
            mid = (lo + hi) / 2
            vals, errs = _gk15_rule(f, np.array([lo, mid]), np.array([mid, hi]))
            heapq.heappush(heap, (-errs[0], lo, mid, vals[0]))
            heapq.heappush(heap, (-errs[1], mid, hi, vals[1]))
            total += vals[0] + vals[1] - old
            errsum += float(errs[0] + errs[1]) + neg_err
    value = np.sum([v for *_, v in heap], axis=0)
    errsum = math.fsum(-e for e, *_ in heap)
    return (float(value) if value.ndim == 0 else value), errsum


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


def det_agreement(closed: float, elim: float) -> tuple[bool, float]:
    """(rel < 1e-9, rel), rel the closed-form determinant's relative error to elimination."""
    rel = abs(closed - elim) / abs(elim)
    return rel < 1e-9, rel


def det_trials(trials: int, k_max: int, seed: int) -> Iterator[tuple[int, float, float]]:
    """(k, closed form, elimination) determinants of seeded random forms.

    Each trial draws k uniformly from 1..k_max, then coefficients from
    [0.1, 10); the ``quadform`` command and the acceptance battery share it.
    Raises ValueError when ``trials`` or ``k_max`` is below 1, at the call;
    the trials are then drawn and eliminated ``_DET_BLOCK`` at a time.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    return _det_blocks(trials, k_max, np.random.default_rng(seed))


def _det_blocks(trials: int, k_max: int, rng: np.random.Generator):
    for start in range(0, trials, _DET_BLOCK):
        forms = [random_form(rng, int(rng.integers(1, k_max + 1)), 0.1, 10)
                 for _ in range(min(_DET_BLOCK, trials - start))]
        by_k: dict[int, list[int]] = {}
        for i, q in enumerate(forms):
            by_k.setdefault(q.k, []).append(i)
        elim = np.empty(len(forms))
        for k, idx in by_k.items():  # one stacked elimination per dimension
            mats = np.repeat([forms[i].a0 for i in idx], k * k).reshape(len(idx), k, k)
            mats[:, range(k), range(k)] += [forms[i].a_rest for i in idx]
            elim[idx] = np.linalg.det(mats)
        yield from [(q.k, det_closed_form(q), float(e)) for q, e in zip(forms, elim)]


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

    The box comes from the form's conditional factorisation: x = t/sqrt(a0 + a1)
    for k = 1; for k = 2, Q = S*x**2 + b*(y + a0*x/b)**2 with b = a0 + a2 and
    S = a1 + a0*a2/b (the Schur complement), so x = t/sqrt(S) and
    y = -a0*x/b + u/sqrt(b).  Q is |(t, u)|^2, so the mass outside the box
    [-8, 8]^k is at most sqrt(pi)*erfc(8) per coordinate, below
    ``truncation_error_bound(8)``, for every form.  The integrand is still
    exp(-Q(x, y)), times the Jacobian.  For k = 2 the kernel nests: one
    inner call integrates over u at every outer node of a step at once, and
    the error adds 16 times the largest inner error to the outer one.
    Raises QuadratureFailure when the error estimate exceeds 1e-6.
    """
    if q.k == 1:
        a = q.a0 + q.a_rest[0]
        jac = 1 / math.sqrt(a)
        val, err = _gk15(lambda t: np.exp(-a * (jac * t) ** 2), -_BOX, _BOX, epsabs=1e-9)
    elif q.k == 2:
        a0, (a1, a2) = q.a0, q.a_rest
        b = a0 + a2
        hx, hy = 1 / math.sqrt(a1 + a0 * (a2 / b)), 1 / math.sqrt(b)
        jac, inner_err = hx * hy, 0.0

        def outer(t):
            nonlocal inner_err
            x = hx * t
            ax, cx = a1 * x * x, -a0 * x / b  # cx: the centre of y given x

            def inner(u):  # one row of y per node u, one column per outer node
                y = cx + hy * u[:, None]
                return np.exp(-(a0 * (x + y) ** 2 + ax + a2 * y * y))

            # One shared partition of u for all len(t) integrals, so the limit
            # is the 50 subintervals each had when integrated on its own.
            vals, err = _gk15(inner, -_BOX, _BOX, epsabs=1e-9, limit=50 * len(t))
            inner_err = max(inner_err, err)
            return vals

        val, err = _gk15(outer, -_BOX, _BOX, epsabs=1e-9)
        err += 2 * _BOX * inner_err  # each outer node's value is off by <= inner_err
    else:
        raise ValueError("quadrature oracle supports k <= 2; use Monte Carlo above")
    if err > 1e-6:
        raise QuadratureFailure(f"quadrature error estimate {err} too large")
    return val * jac


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
    max estimated on a uniform grid plus endpoints.  The integral is
    ``_gk15``'s at relative tolerance 1e-10 with at most 500 subintervals.
    Raises SumIntegralBoundError if |sum - integral| exceeds the bound and
    QuadratureFailure if the integral cannot be trusted.
    """
    if b - a < 1:
        raise ValueError("interval must have length >= 1")
    if m < 0:
        raise ValueError("critical-point count must be >= 0")
    lattice = sum(f(n) for n in range(math.ceil(a), math.floor(b) + 1))
    val, err = _gk15(lambda xs: [f(x) for x in xs.tolist()], a, b, epsrel=1e-10, limit=500)
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
