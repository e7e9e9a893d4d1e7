"""Seeded job lists for the four benchmark workloads.

Every list holds ``JOBS_PER_RUN`` jobs.  Job sizes are drawn by stratified
sampling (one draw per equal-probability stratum of the size distribution),
specs likewise from equal-probability bands of a cost weight, and bands are
matched to strata through a permutation that is the same for every seed.
Each job follows the distributions the workloads promise, but the work in a
list varies little from seed to seed, so runs with different seeds can be
compared.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field

JOBS_PER_RUN = 100

WORKLOADS = ("series", "crosscheck", "regions", "oracles")

# Matches strata to spec ranks; fixed so that it does not vary with the seed.
_PAIRING = random.Random(0x5EED).sample(range(JOBS_PER_RUN), JOBS_PER_RUN)

MC_SAMPLES = 10**6


@dataclass
class Job:
    """One unit of closed-loop work.

    ``kind`` is ``"cli"`` (``argv`` goes to ``colorpart.cli.main``) or the
    name of a public ``colorpart.quadform`` function called with ``kwargs``.
    ``spec`` is ``(s, l)`` for jobs that take a colored-partition spec and
    ``size`` the job's size parameter (N, n-max, n, trials or k).
    """

    id: int
    kind: str
    argv: list[str] = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    spec: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    size: int = 0


def spec_text(spec) -> str:
    s, l = spec
    return "s={};l={}".format(",".join(map(str, s)), ",".join(map(str, l)))


def growth_rate(spec) -> float:
    s, l = spec
    return sum(li / si for si, li in zip(s, l))


def spec_population() -> list[tuple[tuple, float]]:
    """Every spec with k <= 3 classes, moduli 1 < s_2 < s_3 <= 9 and l_i <= 3.

    Each comes with its probability when k, then the moduli, then each l_i
    are drawn uniformly.
    """
    out = []
    for k in (1, 2, 3):
        moduli = list(itertools.combinations(range(2, 10), k - 1))
        for rest in moduli:
            for l in itertools.product((1, 2, 3), repeat=k):
                out.append((((1,) + rest, l), 1 / (3 * len(moduli) * 3**k)))
    return out


def _strata(rng: random.Random) -> list[float]:
    """One uniform draw in each of JOBS_PER_RUN equal strata of [0, 1)."""
    return [(i + rng.random()) / JOBS_PER_RUN for i in range(JOBS_PER_RUN)]


def _stratified_specs(rng: random.Random, weight, accept=lambda spec: True) -> list:
    """One random spec per job, stratified by a cost weight.

    The accepted specs, ordered by weight, split the spec distribution into
    JOBS_PER_RUN equal-probability bands; job i draws from band _PAIRING[i].
    Each spec keeps its probability, while the weights in a list barely
    change from seed to seed.
    """
    population = sorted((weight(spec), spec, prob)
                        for spec, prob in spec_population() if accept(spec))
    total = math.fsum(prob for _, _, prob in population)
    cumulative = list(itertools.accumulate(prob / total for _, _, prob in population))
    picks = []
    for i in range(JOBS_PER_RUN):
        u = (_PAIRING[i] + rng.random()) / JOBS_PER_RUN
        picks.append(population[min(bisect.bisect_right(cumulative, u), len(population) - 1)][1])
    return picks


def _series(rng: random.Random) -> list[Job]:
    jobs = []
    for i, (u, spec) in enumerate(zip(_strata(rng), _stratified_specs(rng, growth_rate))):
        n = round(64 * 16**u)  # log-uniform in [64, 1024]
        command = "compare" if _PAIRING[i] % 2 else "fit"
        argv = [command, "--spec", spec_text(spec), "--n-geom", f"{n // 16}:{n}"]
        jobs.append(Job(i, "cli", argv=argv, spec=spec, size=n))
    return jobs


def _crosscheck(rng: random.Random) -> list[Job]:
    jobs = []
    for i, (u, spec) in enumerate(zip(_strata(rng), _stratified_specs(rng, growth_rate))):
        n_max = round(50 + 100 * u)  # uniform in [50, 150]
        argv = ["exact", "--spec", spec_text(spec), "--n-max", str(n_max),
                "--method", "all", "--format", "csv"]
        jobs.append(Job(i, "cli", argv=argv, spec=spec, size=n_max))
    return jobs


def free_moduli(spec) -> list[int]:
    """Moduli of the region split's free coordinates: every color but (1, 1)."""
    s, l = spec
    out = []
    for si, li in zip(s, l):
        out.extend([si] * li)
    return out[1:]


def tuples_estimate(spec, n: int) -> int:
    """The region split's enumeration estimate prod(n // s + 1) over free colors."""
    return math.prod(n // si + 1 for si in free_moduli(spec))


def enumerated_tuples(spec, n: int) -> int:
    """Tuples the region split visits: free coordinates with sum s_i u_i <= n."""
    ways = [1] + [0] * n
    for si in free_moduli(spec):
        for t in range(si, n + 1):
            ways[t] += ways[t - si]
    return sum(ways)


def region_n(spec, target: float) -> int:
    """The largest n whose estimate is at most target, but none under 1e4."""
    def first_above(limit):
        lo, hi = 0, 1
        while tuples_estimate(spec, hi) <= limit:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if tuples_estimate(spec, mid) <= limit else (lo, mid)
        return hi

    return max(first_above(target) - 1, first_above(10**4 - 1))


def _region_weight(spec) -> float:
    """Share of the estimate that the split really visits, near the middle target."""
    n = region_n(spec, 10**4 * math.sqrt(20))
    return enumerated_tuples(spec, n) / tuples_estimate(spec, n)


def _region_spec(spec) -> bool:
    return sum(spec[1]) >= 3 and len(spec[0]) + spec[1][0] >= 3


def _regions(rng: random.Random) -> list[Job]:
    jobs = []
    specs = _stratified_specs(rng, _region_weight, _region_spec)
    for i, (u, spec) in enumerate(zip(_strata(rng), specs)):
        n = region_n(spec, 10**4 * 20**u)  # estimate log-uniform in [1e4, 2e5]
        argv = ["regions", "--spec", spec_text(spec), "--n", str(n)]
        jobs.append(Job(i, "cli", argv=argv, spec=spec, size=n))
    return jobs


def _mc_form(rng: random.Random, k: int) -> tuple[float, tuple[float, ...], float]:
    """Coefficients and box radius for which 1e6 uniform samples resolve the integral.

    Uniform sampling of a box wastes most samples once k is large, so the
    form is kept nearly isotropic and weakly coupled.  The radius is 3.2
    times sqrt(2) marginal standard deviations of the widest coordinate
    (each marginal variance is at most 1 / (2 a_i)), which puts the
    truncation error near 1e-5 relative, far under the standard error.
    """
    a0 = rng.uniform(0.05, 0.2)
    a_rest = tuple(rng.uniform(0.9, 1.1) for _ in range(k))
    return a0, a_rest, 3.2 / math.sqrt(min(a_rest))


def _oracles(rng: random.Random) -> list[Job]:
    jobs = []
    for i, u in enumerate(_strata(rng)):
        slot = _PAIRING[i]
        kind = slot % 4
        if kind == 0:
            trials = round(100 * 20**u)  # log-uniform in [100, 2000]
            argv = ["quadform", "--k", "8", "--trials", str(trials),
                    "--rng-seed", str(rng.randrange(2**31))]
            jobs.append(Job(i, "cli", argv=argv, size=trials))
        elif kind == 1:
            k = 1 + (slot // 4) % 2
            a0 = rng.uniform(0.5, 3.0)
            a_rest = tuple(rng.uniform(0.5, 3.0) for _ in range(k))
            jobs.append(Job(i, "gaussian_integral_quadrature",
                            kwargs={"a0": a0, "a_rest": a_rest}, size=k))
        elif kind == 2:
            k = 3 + (slot // 4) % 6
            a0, a_rest, radius = _mc_form(rng, k)
            jobs.append(Job(i, "gaussian_integral_monte_carlo",
                            kwargs={"a0": a0, "a_rest": a_rest, "radius": radius,
                                    "samples": MC_SAMPLES,
                                    "seed": rng.randrange(2**31)},
                            size=k))
        else:
            # A Gaussian bump on [0, hi]: one interior critical point.
            hi = rng.uniform(20.0, 200.0)
            centre = rng.uniform(0.25, 0.75) * hi
            width = rng.uniform(0.05, 0.15) * hi
            height = rng.uniform(0.5, 5.0)
            jobs.append(Job(i, "sum_vs_integral",
                            kwargs={"height": height, "centre": centre, "width": width,
                                    "a": 0.0, "b": hi, "m": 1},
                            size=round(hi)))
    return jobs


_BUILDERS = {
    "series": _series,
    "crosscheck": _crosscheck,
    "regions": _regions,
    "oracles": _oracles,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list for ``seed``, in the order the closed loop runs it."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[j] for j in order]


# The CLI arguments of a small, untimed warm-up job per workload.
WARMUP = {
    "series": ["compare", "--spec", "s=1;l=1", "--n-geom", "4:64"],
    "crosscheck": ["exact", "--spec", "s=1;l=1", "--n-max", "50", "--method", "all",
                   "--format", "csv"],
    "regions": ["regions", "--spec", "s=1;l=3", "--n", "30"],
    "oracles": ["quadform", "--k", "8", "--trials", "20"],
}


def input_properties(workload: str, jobs: list[Job]) -> dict:
    """Recorded properties of a job list: sizes, color counts, spec reuse."""
    props = {"jobs": len(jobs)}
    kinds: dict[str, int] = {}
    for job in jobs:
        name = job.argv[0] if job.kind == "cli" else job.kind
        kinds[name] = kinds.get(name, 0) + 1
    props["kinds"] = dict(sorted(kinds.items()))
    with_spec = [j for j in jobs if j.spec is not None]
    if with_spec:
        seen = set()
        repeats = 0
        colors: dict[int, int] = {}
        for job in with_spec:
            repeats += job.spec in seen
            seen.add(job.spec)
            total = sum(job.spec[1])
            colors[total] = colors.get(total, 0) + 1
        props["L_distribution"] = dict(sorted(colors.items()))
        props["repeated_spec_share"] = repeats / len(with_spec)
    label = {"series": "N", "crosscheck": "n_max", "regions": "n"}.get(workload)
    if label:
        sizes = [j.size for j in jobs]
        props[f"{label}_range"] = [min(sizes), max(sizes)]
    if workload == "regions":
        ests = [tuples_estimate(j.spec, j.size) for j in jobs]
        props["tuples_est_range"] = [min(ests), max(ests)]
    if workload == "oracles":
        props["k_by_kind"] = {
            kind: sorted({j.size for j in jobs if j.kind == kind})
            for kind in ("gaussian_integral_quadrature", "gaussian_integral_monte_carlo")
        }
    return props
