"""Failure accounting, exit status, spans and computed counts of the benchmark."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import colorpart.asymptotic
import colorpart.exact
import colorpart.regions
import jobs
import run
import spans
from colorpart import cli, quadform

EXACT_JOB = jobs.Job(0, "cli", argv=["exact", "--spec", "s=1,3;l=2,2", "--n-max", "30",
                                     "--method", "all", "--format", "csv"],
                     spec=((1, 3), (2, 2)), size=30)
REGIONS_JOB = jobs.Job(1, "cli", argv=["regions", "--spec", "s=1,2;l=2,1", "--n", "40"],
                       spec=((1, 2), (2, 1)), size=40)
COMPARE_JOB = jobs.Job(2, "cli", argv=["compare", "--spec", "s=1,2;l=1,2", "--n-geom", "8:128"],
                       spec=((1, 2), (1, 2)), size=128)


def _failures(job_list):
    _, _, outcomes = run.run_pass(job_list, cli, quadform)
    return run.check_passes(job_list, [outcomes])


def test_correct_outputs_pass():
    assert _failures([EXACT_JOB, REGIONS_JOB, COMPARE_JOB]) == []


def test_one_corrupted_coefficient_is_a_counted_failure(monkeypatch):
    original = colorpart.exact.series_to_csv

    def corrupt(series):
        lines = original(series).splitlines(keepends=True)
        n, g = lines[17].rstrip("\n").split(",")
        lines[17] = f"{n},{int(g) + 1}\n"
        return "".join(lines)

    monkeypatch.setattr(colorpart.exact, "series_to_csv", corrupt)
    failures = _failures([EXACT_JOB, REGIONS_JOB])
    assert len(failures) == 1 and "exact" in failures[0]


def test_one_corrupted_main_sum_is_a_counted_failure(monkeypatch):
    original = colorpart.regions.region_split

    def corrupt(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, main_sum=report.main_sum + 1)

    monkeypatch.setattr(colorpart.regions, "region_split", corrupt)
    failures = _failures([EXACT_JOB, REGIONS_JOB])
    assert len(failures) == 1 and "main_sum" in failures[0]


def test_malformed_output_is_a_counted_failure(monkeypatch):
    original = colorpart.exact.series_to_csv
    monkeypatch.setattr(colorpart.exact, "series_to_csv",
                        lambda series: original(series).replace("\n5,", "\n5,x"))
    failures = _failures([EXACT_JOB])
    assert len(failures) == 1 and "malformed output" in failures[0]


def test_failed_run_exits_nonzero_and_counts_every_pass(monkeypatch, capsys):
    original = colorpart.exact.series_to_csv
    monkeypatch.setattr(colorpart.exact, "series_to_csv",
                        lambda series: original(series).replace("\n5,", "\n5,1"))
    monkeypatch.setattr(jobs, "build", lambda workload, seed: [EXACT_JOB])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "crosscheck", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= run.MIN_RUNS
    assert result["failed"] == result["attempted"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_tracer_wraps_every_lookup_and_restores():
    original = colorpart.exact.g_series_divisor
    with spans.Tracer():
        wrapped = colorpart.exact.g_series_divisor
        assert wrapped is not original
        assert colorpart.asymptotic.g_series_divisor is wrapped
        assert colorpart.asymptotic.constants is colorpart.specs.constants
    assert colorpart.exact.g_series_divisor is original
    assert colorpart.asymptotic.g_series_divisor is original


def test_spans_nest_under_the_cli_call():
    tracer = spans.Tracer()
    with tracer:
        run.run_pass([COMPARE_JOB], cli, quadform, tracer)
    names = [record[0] for record in tracer.spans]
    parent = {record[0]: names[record[2]] if record[2] is not None else None
              for record in tracer.spans}
    assert parent["cli"] is None
    assert parent["asymptotic.comparison"] == "cli"
    assert parent["exact.divisor"] == "asymptotic.comparison"
    assert parent["specs.constants"] == "asymptotic.comparison"
    assert parent[spans.SERIALIZE] == "cli"
    assert all(record[1] == COMPARE_JOB.id for record in tracer.spans)
    assert all(self_s >= 0 for _, self_s in tracer.self_times().values())


def _cheap_jobs(workload, seed):
    """The smallest few jobs of each kind in the workload's list."""
    by_kind = {}
    for job in sorted(jobs.build(workload, seed), key=lambda j: j.size):
        by_kind.setdefault(job.argv[0] if job.kind == "cli" else job.kind, []).append(job)
    return [job for group in by_kind.values() for job in group[:2]]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_computed_counts_repeat_exactly(workload):
    assert jobs.build(workload, 7) == jobs.build(workload, 7)
    job_list = _cheap_jobs(workload, 7)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            _, _, outcomes = run.run_pass(job_list, cli, quadform, tracer)
        counts.append((tracer.computed_counts(), run.output_bytes(job_list, outcomes)))
        assert run.check_passes(job_list, [outcomes]) == []
    assert counts[0] == counts[1]


def test_fold_useful_ratio_is_coefficients_over_fold_entries():
    tracer = spans.Tracer()
    with tracer:
        run.run_pass([EXACT_JOB], cli, quadform, tracer)
    counts = tracer.computed_counts()
    n_max = EXACT_JOB.size
    assert counts["exact.fold_calls"] == n_max + 1
    assert counts["exact.fold_useful_ratio"] == pytest.approx(2 / (n_max + 2))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_schedule_shares_time_and_spreads_runs():
    estimates = [0.001, 0.01, 0.1, 1.0]
    order = run.schedule(estimates, budget_s=4.0)
    runs = [order.count(j) for j in range(len(estimates))]
    assert all(run.MIN_RUNS - 1 <= n <= run.MAX_RUNS - 1 for n in runs)
    assert runs == sorted(runs, reverse=True)
    assert sum(n * est for n, est in zip(runs, estimates)) <= 4.0
    # The short job's runs are spread over the plan, not run back to back.
    positions = [i for i, j in enumerate(order) if j == 0]
    assert positions[-1] - positions[0] > len(order) // 2


def test_harrell_davis_quantiles():
    samples = list(range(1, 100))
    assert run.quantile(samples, 0.5) == pytest.approx(50)
    assert 84 < run.quantile(samples, 0.9) < 96
    assert run.quantile([3.0] * 10, 0.9) == pytest.approx(3.0)


def test_a_run_that_differs_from_the_first_is_a_counted_failure():
    job_list = [EXACT_JOB, REGIONS_JOB]
    _, _, first = run.run_pass(job_list, cli, quadform)
    assert run.check_runs(job_list, first, [5, 4], [0, 0]) == []
    failures = run.check_runs(job_list, first, [5, 4], [0, 2])
    assert len(failures) == 2 and all("regions" in line for line in failures)


def test_measure_runs_every_job_at_least_min_runs():
    job_list = [EXACT_JOB, COMPARE_JOB]
    first, latencies, differing = run.measure(job_list, cli, quadform,
                                              run.time.perf_counter() + 0.5)
    assert run.check_passes(job_list, [first]) == []
    assert all(len(lat) >= run.MIN_RUNS for lat in latencies)
    assert differing == [0, 0]
