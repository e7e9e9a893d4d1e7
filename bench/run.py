"""colorpart benchmark: one workload, one closed-loop client, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload series --seed 1 --seconds 28 --trace 0

Each job of the seeded list starts only after the previous one finished.  A
job is an in-process ``colorpart.cli.main(argv)`` call or, where no command
exposes the capability, a call to a public ``colorpart.quadform`` function.
The list is run once in order; then, until ``--seconds`` have passed since
the start, every job is run again on an interleaved schedule that runs short
jobs more often than long ones and spreads each job's runs over the whole
measurement.
A job's latency is its fastest run, and ``wall_s``, the time to solution for
the list, is the sum of those.  Outputs are checked afterwards, outside the
timed region, against the benchmark's own references (``oracle.py``).

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  The last line of standard output is one JSON object; the exit
code is 0 only when every job's output was right.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Runs of each job in an untraced run at least; a job's latency is its fastest run.
MIN_RUNS = 3
# Runs of each job in an untraced run at most.
MAX_RUNS = 64
# Pairs of untraced and traced passes in a traced run, at most; one pair at least.
TRACE_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# A fresh interpreter: import the CLI, run the workload's warm-up job, exit.
_SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from colorpart import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
sys.exit(code)
"""


def measure_setup(workload: str) -> tuple[float, list[float]]:
    """Median wall time of SETUP_REPEATS fresh interpreters doing the set-up."""
    argv = jobs.WARMUP[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), *argv],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr}")
    return statistics.median(times), times


def _bump(height: float, centre: float, width: float, x: float) -> float:
    return height * math.exp(-((x - centre) / width) ** 2 / 2)


def run_job(job: jobs.Job, cli, quadform):
    """Run one job; returns (exit code, output).  Exit code 0 means it ran."""
    if job.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
        return code, out.getvalue()
    kw = job.kwargs
    fn = getattr(quadform, job.kind)
    if job.kind == "sum_vs_integral":
        f = functools.partial(_bump, kw["height"], kw["centre"], kw["width"])
        return 0, fn(f, kw["a"], kw["b"], kw["m"])
    form = quadform.QuadFormSpec(kw["a0"], kw["a_rest"])
    extra = {key: kw[key] for key in ("samples", "radius", "seed") if key in kw}
    return 0, fn(form, **extra)


def run_pass(job_list, cli, quadform, tracer=None):
    """One closed-loop pass: (wall seconds, per-job latencies, per-job outcomes)."""
    latencies, outcomes = [], []
    clock = time.perf_counter
    begin = clock()
    for job in job_list:
        if tracer is not None:
            tracer.job = job.id
        start = clock()
        try:
            outcome = run_job(job, cli, quadform)
        except Exception as exc:  # a crashing job is a failed job, not an aborted run
            outcome = (f"raised {type(exc).__name__}: {exc}", None)
        latencies.append(clock() - start)
        outcomes.append(outcome)
    return clock() - begin, latencies, outcomes


def schedule(estimates, budget_s: float) -> list[int]:
    """Job indices to run next, interleaved so that each job's runs are spread evenly.

    Job j gets ``clamp(c / sqrt(estimates[j]), MIN_RUNS - 1, MAX_RUNS - 1)``
    more runs, with ``c`` the largest value for which the planned runs fit
    ``budget_s``: a job four times as long runs half as often.  Each job's
    runs fall at even intervals over the plan.
    """
    def runs(c):
        return [min(MAX_RUNS - 1, max(MIN_RUNS - 1, int(c / math.sqrt(max(est, 1e-9)))))
                for est in estimates]

    def planned_s(c):
        return math.fsum(n * est for n, est in zip(runs(c), estimates))

    lo, hi = 0.0, MAX_RUNS * math.sqrt(max(estimates))
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if planned_s(mid) <= budget_s else (lo, mid)
    slots = [((k + 0.5) / n, j) for j, n in enumerate(runs(lo)) for k in range(n)]
    return [j for _, j in sorted(slots)]


def measure(job_list, cli, quadform, deadline: float):
    """The untraced measurement: one pass in list order, then scheduled runs.

    Runs continue until ``deadline`` (a ``time.perf_counter`` value), each
    plan sized to the time left from each job's median run so far.  Returns the
    first pass's outcomes, each job's latencies, and per job the number of
    later runs whose outcome differed from its first.
    """
    clock = time.perf_counter
    _, first_lat, first = run_pass(job_list, cli, quadform)
    latencies = [[lat] for lat in first_lat]
    differing = [0] * len(job_list)
    short = len(job_list)  # jobs with fewer than MIN_RUNS runs
    while short or deadline - clock() > 0.05 * math.fsum(map(statistics.median, latencies)):
        typical = [statistics.median(lat) for lat in latencies]
        for j in schedule(typical, max(deadline - clock(), 0.0)):
            if not short and clock() + typical[j] > deadline:
                return first, latencies, differing
            _, lat, (outcome,) = run_pass(job_list[j:j + 1], cli, quadform)
            latencies[j].append(lat[0])
            differing[j] += outcome != first[j]
            short -= len(latencies[j]) == MIN_RUNS
    return first, latencies, differing


def _verdict(job, code, output, refs) -> str | None:
    """The oracle's verdict, with output it cannot parse counted as wrong."""
    try:
        return oracle.check(job, code, output, refs)
    except (ValueError, TypeError, KeyError, IndexError) as exc:  # output of the wrong shape
        return f"malformed output: {exc!r}"


def verdicts(job_list, outcomes) -> list[str | None]:
    """The oracle's verdict on each job's outcome; None when it is right."""
    refs = oracle.References()
    return [_verdict(job, code, output, refs) for job, (code, output) in zip(job_list, outcomes)]


def _failure(job, verdict) -> str:
    return f"job {job.id} {job.kind} {' '.join(job.argv)}: {verdict}"


def check_passes(job_list, passes) -> list[str]:
    """One entry per failed job execution.

    The first pass is checked against the references; a later pass must
    repeat the first pass's outcome exactly and then shares its verdict.
    """
    failures = []
    first = passes[0]
    checked = verdicts(job_list, first)
    for outcomes in passes:
        for job, outcome, reference, verdict in zip(job_list, outcomes, first, checked):
            if outcome != reference:
                verdict = "output differs from the first pass"
            if verdict:
                failures.append(_failure(job, verdict))
    return failures


def check_runs(job_list, first, runs, differing) -> list[str]:
    """``check_passes`` for a measurement in which job j ran ``runs[j]`` times.

    A run that repeats a wrong first outcome fails with it; a run whose
    outcome differs from the first fails on its own.
    """
    failures = []
    for job, verdict, n, n_diff in zip(job_list, verdicts(job_list, first), runs, differing):
        if verdict:
            failures += [_failure(job, verdict)] * (n - n_diff)
        failures += [_failure(job, "output differs from the first run")] * n_diff
    return failures


def quantile(samples, fraction: float) -> float:
    """The Harrell-Davis estimate of a quantile.

    A weighted mean of the order statistics, with weights from the Beta
    distribution of the sample quantile: at 100 samples, p90 rests on about
    the 84th to 96th, so one job's measurement moves it little.
    """
    from scipy.special import betainc

    ordered = sorted(samples)
    n = len(ordered)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return math.fsum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def output_bytes(job_list, outcomes) -> int:
    return sum(len(out.encode()) for job, (_, out) in zip(job_list, outcomes)
               if job.kind == "cli" and isinstance(out, str))


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(latencies_by_pass) -> list[float]:
    """Each job's fastest latency over the passes (interference only slows a job)."""
    return [min(per_job) for per_job in zip(*latencies_by_pass)]


COUNT_UNITS = {"exact.max_coeff_bits": "bits", "exact.fold_useful_ratio": "ratio"}


def per_layer_metrics(tracers, traced_best, untraced_best) -> dict:
    """Self time per layer (the smaller of the traced passes) and the computed counts."""
    metrics = {}
    times = [tracer.self_times() for tracer in tracers]
    for span, name in spans.SELF_TIME_METRICS.items():
        calls, self_s = min(t.get(span, (0, 0.0)) for t in times)
        metrics[name] = _metric(self_s, "s")
        print(f"# span {span}: {calls} calls, self {self_s:.6f} s")
    for name, value in tracers[0].computed_counts().items():
        unit = COUNT_UNITS.get(name, "count")
        metrics[name] = _metric(value, unit)
        print(f"# computed {name} {value} {unit}")
    traced_s, untraced_s = math.fsum(traced_best), math.fsum(untraced_best)
    metrics["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    print(f"# wall_s traced {traced_s:.6f} untraced {untraced_s:.6f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "colorpart" / "cli.py").is_file():
        print(f"error: no colorpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import colorpart
    from colorpart import cli, quadform

    if SRC.resolve() not in Path(colorpart.__file__).resolve().parents:
        print(f"error: colorpart imported from {colorpart.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    env = environment()
    job_list = jobs.build(args.workload, args.seed)
    props = jobs.input_properties(args.workload, job_list)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# environment {json.dumps(env)}")
    print(f"# inputs {json.dumps(props)}")

    setup_s, setup_times = measure_setup(args.workload)
    print(f"# setup runs {[round(t, 4) for t in setup_times]}")
    warm_code, _ = run_job(jobs.Job(-1, "cli", argv=jobs.WARMUP[args.workload]), cli, quadform)
    if warm_code != 0:
        print(f"error: warm-up job exited {warm_code}", file=sys.stderr)
        return 1

    if args.trace:
        # Alternate untraced and traced passes so that drift in machine speed
        # falls on both sides of the overhead estimate.
        passes, untraced, traced, tracers = [], [], [], []
        pair_s = 0.0
        while len(tracers) < TRACE_PASSES and (
                not tracers or time.perf_counter() + pair_s < deadline):
            begin = time.perf_counter()
            _, lat, outcomes = run_pass(job_list, cli, quadform)
            untraced.append(lat)
            passes.append(outcomes)
            tracer = spans.Tracer()
            with tracer:
                _, lat, outcomes = run_pass(job_list, cli, quadform, tracer)
            traced.append(lat)
            passes.append(outcomes)
            tracers.append(tracer)
            pair_s = time.perf_counter() - begin
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_start = time.perf_counter()
        failures = check_passes(job_list, passes)
        attempted = len(job_list) * len(passes)
    else:
        first, latencies, differing = measure(job_list, cli, quadform, deadline)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_start = time.perf_counter()
        runs = [len(lat) for lat in latencies]
        failures = check_runs(job_list, first, runs, differing)
        attempted = sum(runs)
    print(f"# checks took {time.perf_counter() - check_start:.3f} s")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print(f"# failed_ratio {len(failures) / attempted} ({len(failures)} of {attempted})")

    if args.trace:
        metrics = per_layer_metrics(tracers, fastest(traced), fastest(untraced))
        metrics["cli.output_bytes"] = _metric(output_bytes(job_list, passes[1]), "bytes")
        print(f"# computed cli.output_bytes {metrics['cli.output_bytes']['value']} bytes")
    else:
        best = [min(lat) for lat in latencies]
        values = {
            "wall_s": math.fsum(best),
            "job_p50_s": quantile(best, 0.5),
            "job_p90_s": quantile(best, 0.9),
            "peak_rss_mib": peak_rss_mib,
            "setup_s": setup_s,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        print(f"# latency samples {len(best)} (fastest run per job); runs per job "
              f"min {min(runs)} median {statistics.median(runs)} max {max(runs)}; "
              f"computed cli.output_bytes {output_bytes(job_list, first)} bytes per pass")
    for name, m in metrics.items():
        print(f"# metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
