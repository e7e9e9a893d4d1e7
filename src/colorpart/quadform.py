"""Quadratic-form determinants, Gaussian integrals, and sum-vs-integral checks.

The quadratic form of interest is  a0*(x_1 + ... + x_k)**2 + sum a_i*x_i**2
with all coefficients positive.  Its matrix has diagonal a0 + a_i and
constant off-diagonal a0, and the determinant factors in closed form, which
makes the full-space Gaussian integral elementary.  The quadrature oracle
checks it for k <= 2 over a box taken from the form's conditional
factorisation, so the truncated mass stays below exp(-64) per coordinate
however flat or strongly coupled the form; Monte Carlo checks it for larger
k.  The quadrature oracle evaluates the integrand once on one fixed
grid (``_GRID``, the Gauss-Kronrod 7/15 nodes on 8 intervals of the box)
and estimates its error by the Kronrod-minus-Gauss gap; ``sum_vs_integral``
alone runs the adaptive numpy kernel (``_gk15``), so the module needs numpy
only.  ``sum_vs_integral`` takes max|f| from the points it already
evaluated, refined about each local maximum, not from a grid.  One column kernel
(``_closed_dets``) gives the closed-form determinant, for one form in
``det_closed_form`` and for each block of ``det_trials`` at once; past the
float range it goes through ln det.  The Monte Carlo oracle reads one seeded
PCG64 stream in blocks, split into up to two contiguous runs by the block
count alone, each from a copy of the state advanced to its first row; the
first run stays in the calling thread, the other goes to a standard
thread pool.  The per-block sums are added in block order, so its bits
do not depend on the split.  ``QuadFormSpec`` is a ``specs._Record``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NonFiniteValue, QuadratureFailure, SumIntegralBoundError
from .specs import _Record

# Rows per Monte Carlo block: 4096 x 8 doubles (256 KiB) stay in L2.
_MC_BLOCK = 4096
# Runs (threads) per Monte Carlo call at most, whatever the CPU count.
# Measured on 2 cores, where a third thread ran slower than two; on one
# CPU the two-way split cost 1-4 % against one run.
_MC_WORKERS = 2
# Trials per det_trials block: about 0.5 KiB of draws and rows each, 2 MiB in all.
_DET_BLOCK = 4096
_DET_TOL = 1e-9  # a det trial passes when its relative error is below this
# Half-width of the quadrature box, in coordinates where the form is |t|^2.
_BOX = 8.0
# Golden-section steps sum_vs_integral takes about each local maximum of |f|.
# They shrink the bracket by 0.618**40 = 4e-9; at a smooth maximum f then
# differs from its peak by about that squared, below rounding.
_REFINE_STEPS = 40
_GOLDEN = (math.sqrt(5) - 1) / 2

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
# The quadrature oracle's grid on [-_BOX, _BOX]: the 15 nodes of the rule on
# each of 8 intervals of width 2, with their Kronrod and Gauss weights.
_GRID = (np.arange(1 - _BOX, _BOX, 2)[:, None] + _NODES).ravel()
_GRID_KRONROD = np.tile(_KRONROD, int(_BOX))
_GRID_GAUSS = np.tile(_GAUSS, int(_BOX))
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_LN_MAX = math.log(float(np.finfo(float).max))


class QuadFormSpec(_Record):
    """Positive coefficients (a0; a1..ak) of the coupled quadratic form."""

    __slots__ = ("a0", "a_rest")
    a0: float
    a_rest: tuple[float, ...]

    def __init__(self, a0: float, a_rest: Iterable[float]):
        a_rest = tuple(a_rest)  # a list or an array would leave the record mutable or unhashable
        # NaN fails both comparisons, so it is refused with the infinities.
        if not all(0 < a < math.inf for a in (a0, *a_rest)):
            raise ValueError("all quadratic-form coefficients must be positive and finite")
        if not a_rest:
            raise ValueError("need at least one diagonal coefficient")
        super().__init__(a0, a_rest)

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

    Each interval's error is estimated as QUADPACK does: the Kronrod-Gauss
    difference, sharpened by (200*diff/resasc)**1.5 and floored at 50 ulps
    of the integral of |f|.
    """
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    fx = np.asarray(f((centre[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    fx = fx.reshape(len(lo), 15, 1)  # a column of 15 values keeps the bits of each sum
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
    return resk[:, 0], err[:, 0]


def _gk15(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
          limit: int = 50) -> tuple[float, float]:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15: (value, error).

    ``f`` maps a 1-D array of nodes to one value per node, so each step
    evaluates it once.  Global bisection as in QUADPACK's qage: the
    interval with the largest error is halved until the summed error is
    at most max(epsabs, epsrel * |value|); both tolerances default to
    QUADPACK's usual 1.49e-8.  Raises QuadratureFailure when ``limit``
    subintervals do not meet the tolerance, a non-finite error included.
    """
    val, err = _gk15_rule(f, np.array([a], dtype=float), np.array([b], dtype=float))
    heap = [(-err[0], a, b, val[0])]  # worst interval first
    total, errsum = float(val[0]), float(err[0])
    with np.errstate(invalid="ignore"):  # inf - inf when f is not finite
        while not errsum <= max(epsabs, epsrel * abs(total)):
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
    return float(np.sum([v for *_, v in heap])), math.fsum(-e for e, *_ in heap)


def _closed_dets(cols: np.ndarray) -> np.ndarray:
    """det = a0 * a1 * ... * ak * sum(1/a_i) for each column (a0, a1, ..., ak) of cols.

    The product and the sum run down the rows in that order, so each value
    has the bits of math.prod and Python's sum over the coefficients.
    Where a partial product or the det is not a positive finite normal
    number, the det is exp(_ln_det) instead.
    """
    with np.errstate(all="ignore"):  # out-of-range values are caught below, not warned of
        prod, inv = cols[0], 1.0 / cols[0]
        normal = prod >= _TINY
        for c in cols[1:]:
            prod = prod * c
            normal &= prod >= _TINY  # an overflow stays inf and fails the test on det
            inv = inv + 1.0 / c
        det = prod * inv
    normal &= (det >= _TINY) & (det < math.inf)
    for j in np.flatnonzero(~normal):
        det[j] = _exp(_ln_det(cols[:, j].tolist()))
    return det


def _ln_det(coeffs: list[float]) -> float:
    """ln det = sum(ln a_i) + ln sum(1/a_i), the sum taken about the smallest a_i."""
    low = min(coeffs)
    return (math.fsum(map(math.log, coeffs)) - math.log(low)
            + math.log(math.fsum(low / a for a in coeffs)))


def _exp(x: float) -> float:
    """math.exp, but inf past the float range rather than OverflowError."""
    return math.exp(x) if x <= _LN_MAX else math.inf


def det_closed_form(q: QuadFormSpec) -> float:
    """det = a0 * a1 * ... * ak * sum(1/a_i over i = 0..k); inf past the float range."""
    return float(_closed_dets(np.array([q.a0, *q.a_rest], dtype=float)[:, None])[0])


def random_form(rng: np.random.Generator, k: int, low: float, high: float) -> QuadFormSpec:
    """A k-dimensional form with a0, then a1..ak, drawn uniformly from [low, high)."""
    a0, *a_rest = rng.uniform(low, high, size=k + 1).tolist()
    return QuadFormSpec(a0, tuple(a_rest))


def det_trials(trials: int, k_max: int, seed: int) -> Iterator[tuple[int, bool, float]]:
    """(k, passed, rel) for the determinants of seeded random forms.

    Each trial draws k uniformly from 1..k_max, then coefficients from
    [0.1, 10); the ``quadform`` command and the acceptance battery share it.
    rel is the closed form's relative error to elimination, and a trial
    passes when it is below 1e-9 (see ``_judge``).
    Raises ValueError when ``trials`` or ``k_max`` is below 1, at the call.
    The trials are then drawn one by one, ``_DET_BLOCK`` at a time, and
    each block's trials of one k get one closed-form column kernel and one
    stacked elimination.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if k_max < 1:
        raise ValueError(f"k must be >= 1, got {k_max}")
    return _det_blocks(trials, k_max, np.random.default_rng(seed))


def _det_blocks(trials: int, k_max: int, rng: np.random.Generator):
    for start in range(0, trials, _DET_BLOCK):
        # One draw of a0..ak per trial, as random_form draws them.
        ks: list[int] = []
        by_k: dict[int, list[int]] = {}
        coeffs = []
        for i in range(min(_DET_BLOCK, trials - start)):
            k = int(rng.integers(1, k_max + 1))
            ks.append(k)
            by_k.setdefault(k, []).append(i)
            coeffs.append(rng.uniform(0.1, 10, size=k + 1))
        closed, elim = np.empty(len(ks)), np.empty(len(ks))
        with np.errstate(over="ignore"):  # a det past the float range is judged in ln det
            for k, idx in by_k.items():  # one closed form and one stacked elimination per k
                rows = np.array([coeffs[i] for i in idx])
                mats = np.repeat(rows[:, 0], k * k).reshape(len(idx), k, k)
                mats[:, range(k), range(k)] += rows[:, 1:]
                closed[idx], elim[idx] = _closed_dets(rows.T), np.linalg.det(mats)
        yield from zip(ks, *_judge(closed, elim, coeffs))


def _judge(closed: np.ndarray, elim: np.ndarray, coeffs) -> tuple[list[bool], list[float]]:
    """(rel < 1e-9, rel) per trial: rel = |closed - elim| / |elim|, or where either
    det is not finite (past k of about 525) |expm1(ln gap)|, the gap being ln det
    by ``_ln_det`` of coeffs[i] = (a0, ..., ak) less ln det by ``np.linalg.slogdet``,
    and nan when the latter's sign is not +1."""
    with np.errstate(all="ignore"):  # non-finite entries are judged in ln det below
        rel = np.abs(closed - elim) / np.abs(elim)
    for i in np.flatnonzero(~(np.isfinite(closed) & np.isfinite(elim))).tolist():
        c = coeffs[i].tolist()
        sign, ln_elim = np.linalg.slogdet(QuadFormSpec(c[0], c[1:]).matrix())
        rel[i] = abs(math.expm1(_ln_det(c) - (float(ln_elim) if sign == 1 else math.nan)))
    return (rel < _DET_TOL).tolist(), rel.tolist()


def gaussian_quadform_integral(q: QuadFormSpec) -> float:
    """Full-space integral of exp(-quadform): pi**(k/2) / sqrt(det).

    Taken through ln det when det is not a positive finite normal number,
    so coefficients near either end of the float range still give the
    integral whenever it is representable.
    """
    det = det_closed_form(q)
    if _TINY <= det < math.inf:
        return math.pi ** (q.k / 2) / math.sqrt(det)
    return _exp(q.k / 2 * math.log(math.pi) - _ln_det([q.a0, *q.a_rest]) / 2)


def gaussian_integral_quadrature(q: QuadFormSpec) -> float:
    """Fixed-grid quadrature oracle for the Gaussian integral, k in {1, 2}.

    The box comes from the form's conditional factorisation: x = t/sqrt(a0 + a1)
    for k = 1; for k = 2, Q = S*x**2 + b*(y + a0*x/b)**2 with b = a0 + a2 and
    S = a1 + a0*a2/b (the Schur complement), so x = t/sqrt(S) and
    y = -a0*x/b + u/sqrt(b).  Q is |(t, u)|^2, so the mass outside the box
    [-8, 8]^k is at most a fraction erfc(8) < exp(-64) of the integral per
    coordinate, for every form.  The integrand is still exp(-Q(x, y)),
    times the Jacobian, taken once on ``_GRID`` (k = 1) or on its tensor
    square (k = 2).  The value is the Kronrod-weighted sum, and the error
    estimate its gap to the Gauss-weighted sum of the same values.
    Raises QuadratureFailure when that estimate exceeds 1e-6, or is NaN.
    """
    # Scaled by 4**-m, the form gives the same integrand values, and the
    # integral 2**(m*k) times larger; both steps are exact.  m is 0 up to
    # coefficients of 2**1001, past which a sum such as a0 + a1 could overflow.
    m = max(0, math.frexp(max(q.a0, *q.a_rest))[1] // 2 - 500)
    a0, a_rest = math.ldexp(q.a0, -2 * m), [math.ldexp(a, -2 * m) for a in q.a_rest]
    if q.k == 1:
        a = a0 + a_rest[0]
        jac = 1 / math.sqrt(a)
        fx = np.exp(-a * (jac * _GRID) ** 2)
        val, gauss = float(_GRID_KRONROD @ fx), float(_GRID_GAUSS @ fx)
    elif q.k == 2:
        a1, a2 = a_rest
        b = a0 + a2
        hx, hy = 1 / math.sqrt(a1 + a0 * (a2 / b)), 1 / math.sqrt(b)
        jac = hx * hy
        x = hx * _GRID[:, None]  # one row per node t, one column per node u
        y = -a0 * x / b + hy * _GRID  # centred on y's conditional mean given x
        fx = np.exp(-(a0 * (x + y) ** 2 + a1 * x * x + a2 * y * y))
        val = float(_GRID_KRONROD @ (fx @ _GRID_KRONROD))
        gauss = float(_GRID_GAUSS @ (fx @ _GRID_GAUSS))
    else:
        raise ValueError("quadrature oracle supports k <= 2; use Monte Carlo above")
    err = abs(val - gauss)
    if not err <= 1e-6:
        raise QuadratureFailure(f"quadrature error estimate {err} too large")
    return math.ldexp(val * jac, -m * q.k)


def gaussian_integral_monte_carlo(
    q: QuadFormSpec,
    samples: int = 10**7,
    radius: float = 8.0,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo oracle: (estimate, standard error) over the truncated box.

    The draws are those of one ``uniform(-radius, radius, size=(samples, k))``
    call on ``default_rng(seed)``, taken in ``_MC_BLOCK``-row blocks.  The
    blocks are split into min(blocks, ``_MC_WORKERS``) contiguous runs:
    each takes a copy of the seeded PCG64 state advanced by k outputs per
    row skipped, since each double of ``random`` uses exactly one output,
    so together they read the one stream even for ``seed=None``.  The
    first run stays in the calling thread and the others go to
    ``ThreadPoolExecutor.map``, which joins its threads and raises a run's
    error in the caller.  The per-block sums are added in block order, so
    the result has the same bits however the blocks are split.  A
    Gaussian proposal would need another split: ``standard_normal`` uses
    a varying number of outputs per draw.  Raises ValueError when
    ``samples`` is below 2 or ``radius`` is not positive and finite.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not 0 < radius < math.inf:  # NaN fails both comparisons
        raise ValueError(f"radius must be positive and finite, got {radius}")
    from concurrent.futures import ThreadPoolExecutor  # here: it loads logging

    rng = np.random.default_rng(seed)
    blocks = -(-samples // _MC_BLOCK)
    workers = min(blocks, _MC_WORKERS)
    # Run w takes the rows [starts[w], starts[w + 1]), whole blocks but the last.
    starts = [w * blocks // workers * _MC_BLOCK for w in range(workers)] + [samples]
    rows = [end - start for start, end in zip(starts, starts[1:])]
    gens = [rng]
    for start in starts[1:-1]:  # copied before any draw, so no thread reads a moving state
        bits = np.random.PCG64()
        bits.state = rng.bit_generator.state
        bits.advance(start * q.k)
        gens.append(np.random.Generator(bits))
    with ThreadPoolExecutor(workers) as pool:  # one thread per run after the first
        rest = pool.map(lambda gen, n: _mc_block_sums(q, radius, gen, n), gens[1:], rows[1:])
        sums = _mc_block_sums(q, radius, rng, rows[0])  # the first run, in the calling thread
        for share in rest:  # raises a run's error here
            sums += share
    total = 0.0
    total_sq = 0.0
    for s, s2 in sums:  # in block order; sum() would compensate from Python 3.12 on
        total += s
        total_sq += s2
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    volume = (2 * radius) ** q.k
    return volume * mean, volume * math.sqrt(var / samples)


def _mc_block_sums(q: QuadFormSpec, radius: float, rng: np.random.Generator,
                   rows: int) -> list[tuple[float, float]]:
    """(sum f, sum f**2) of each _MC_BLOCK-row block of the next ``rows`` rows of draws."""
    a_rest = np.asarray(q.a_rest)
    ones = np.ones(q.k)
    # Blocked and in place: one (B, k) draw buffer and two length-B work
    # vectors, so memory stays O(B*k) whatever the sample count.  Filling
    # rows in order with random() and mapping to [-radius, radius) gives
    # the same draws as uniform(-radius, radius, size=(rows, k)).  Row
    # sums go through matmul with ones: np.sum over a short last axis
    # costs as much as drawing the numbers.
    buf = np.empty((_MC_BLOCK, q.k))
    buf_sq = np.empty(_MC_BLOCK)
    buf_val = np.empty(_MC_BLOCK)
    sums = []
    for start in range(0, rows, _MC_BLOCK):
        m = min(_MC_BLOCK, rows - start)
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
        sums.append((float(vals.sum()), float(np.dot(vals, vals))))
    return sums


def sum_vs_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    m: int,
) -> tuple[float, float, float]:
    """Compare the lattice sum of f over [a, b] with its integral.

    ``m`` is the caller-asserted number of interior critical points of f.
    Returns (sum, integral, bound) with bound = 2 * (m + 1) * max|f|.  The
    integral is ``_gk15``'s at relative tolerance 1e-10 with at most 500
    subintervals.  max|f| is the largest |f| evaluated, so it never
    exceeds the true max: f is taken at the lattice points, at a and b, at
    the kernel's nodes, and at ``_REFINE_STEPS`` golden-section steps about
    each local maximum of |f| over those points, inside the bracket of its
    two neighbours.  Raises NonFiniteValue, naming x, at the first NaN or
    infinity f returns; SumIntegralBoundError if |sum - integral| exceeds
    the bound; QuadratureFailure if the integral cannot be trusted;
    ValueError, naming it, for a non-finite a or b, before f is called.
    """
    for name, end in (("a", a), ("b", b)):
        if not math.isfinite(end):
            raise ValueError(f"{name} must be finite, got {end}")
    if b - a < 1:
        raise ValueError("interval must have length >= 1")
    if m < 0:
        raise ValueError("critical-point count must be >= 0")
    seen_x: list[float] = []  # every x where f was taken, and f(x)
    seen_f: list[float] = []

    def at(xs):
        fx = [_finite(x, f(x)) for x in xs]
        seen_x.extend(xs)
        seen_f.extend(fx)
        return fx

    lattice = sum(at(range(math.ceil(a), math.floor(b) + 1)))
    at([a, b])
    val, err = _gk15(lambda xs: at(xs.tolist()), a, b, epsrel=1e-10, limit=500)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1.0):
        raise QuadratureFailure(f"integral {val} with error estimate {err}")
    xs, first = np.unique(np.array(seen_x, dtype=float), return_index=True)
    fs = np.abs(np.array(seen_f, dtype=float))[first]
    fmax = float(fs.max())
    # Each local maximum of |f|, at the first point of a plateau; -1 pads the ends.
    left, right = np.append(-1.0, fs[:-1]), np.append(fs[1:], -1.0)
    for i in np.flatnonzero((fs > left) & (fs >= right)).tolist():
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        fmax = max(fmax, _golden_max(lambda x: abs(_finite(x, f(x))), lo, hi))
    bound = 2.0 * (m + 1) * fmax
    if abs(lattice - val) > bound:
        raise SumIntegralBoundError(
            f"|sum - integral| = {abs(lattice - val)} exceeds bound {bound}"
        )
    return lattice, val, bound


def _finite(x: float, v: float) -> float:
    """v = f(x), or NonFiniteValue naming x when v is NaN or infinite."""
    if not math.isfinite(v):
        raise NonFiniteValue(f"f({x}) = {v} is not finite")
    return v


def _golden_max(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Largest g over ``_REFINE_STEPS`` golden-section steps towards a maximum on [lo, hi]."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    best = max(gc, gd)
    for _ in range(_REFINE_STEPS):
        if gc >= gd:  # a maximum lies in [lo, d]
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = g(c)
            best = max(best, gc)
        else:  # in [c, hi]
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = g(d)
            best = max(best, gd)
    return best
