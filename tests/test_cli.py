import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from colorpart import cli, exact, precision, quadform, selftest

ROOT = Path(__file__).resolve().parent.parent
# Runs the CLI on its arguments, then writes the process's max RSS to stderr.
RSS_AFTER_CLI = ("import resource, sys; from colorpart import cli; code = cli.main(sys.argv[1:]); "
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
                 "sys.exit(code)")

GOLDEN_EXACT_CSV = "n,g\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n"
GOLDEN_QUADFORM_SEED_7 = """1..5
ok 1 - det k=8 rel_err=3.314e-15
ok 2 - det k=6 rel_err=2.804e-16
ok 3 - det k=7 rel_err=1.753e-16
ok 4 - det k=7 rel_err=1.587e-15
ok 5 - det k=8 rel_err=9.871e-16
"""
GOLDEN_QUADFORM_K3 = """1..5
ok 1 - det k=3 rel_err=1.887e-16
ok 2 - det k=2 rel_err=3.396e-16
ok 3 - det k=2 rel_err=1.805e-16
ok 4 - det k=2 rel_err=2.037e-16
ok 5 - det k=3 rel_err=2.135e-16
"""


# The output of every command in every --format, byte for byte: the CLI's
# contract with scripts that read it.
EXACT_TEXT = {
    "csv": "n,g\n0,1\n1,2\n2,5\n3,12\n",
    "raw": "1\n2\n5\n12\n",
    "json": '{"spec": {"s": [1, 3], "l": [2, 2]}, "method": "METHOD", "g": ["1", "2", "5", "12"]}\n',
}
GOLDEN = [
    pytest.param(["exact", "--spec", "s=1,3;l=2,2", "--n-max", "3", "--method", method,
                  "--format", fmt],
                 EXACT_TEXT[fmt].replace("METHOD", "divisor" if method == "all" else method),
                 id=f"exact-{method}-{fmt}")
    for method in ("divisor", "euler", "convolution", "all") for fmt in EXACT_TEXT
] + [
    pytest.param(["exact", "--spec", "s=1;l=5000", "--n-max", "5", "--format", "json"],
                 '{"spec": {"s": [1], "l": [5000]}, "method": "divisor", "g": ["1", "5000", '
                 '"12507500", "20870840000", "26135478133750", "26198140718756000"]}\n',
                 id="exact-beyond-double"),
    pytest.param(["asymptotic", "--spec", "s=1,3;l=2,2", "--n-list", "9,36"],
                 "a,8/3\nd,-7/4\nc,0.136082763487954338788738\n"
                 "exp_coeff,4.188790204786390984616858\n"
                 "ln_main(9),6.726735580738651842165731\nln_main(36),16.86709106313801621305599\n",
                 id="asymptotic-csv"),
    pytest.param(["asymptotic", "--spec", "s=1,3;l=2,2", "--n-list", "9,36", "--format", "json"],
                 '{"spec": {"s": [1, 3], "l": [2, 2]}, "a": [8, 3], "d": [-7, 4], '
                 '"c": "0.136082763487954338788738", "exp_coeff": "4.188790204786390984616858", '
                 '"ln_main": {"9": "6.726735580738651842165731", '
                 '"36": "16.86709106313801621305599"}}\n',
                 id="asymptotic-json"),
    pytest.param(["compare", "--spec", "s=1;l=1", "--n-list", "16,64"],
                 "n,ln_exact,ln_main,rel_err\n"
                 "16,5.442417710521793540562542,5.552209413601186062151276,"
                 "-0.1039792457763152381423892\n"
                 "64,14.37033201429385040804549,14.4263136937762082076691,"
                 "-0.0544435411845012694366426\n",
                 id="compare-csv"),
    pytest.param(["compare", "--spec", "s=1;l=1", "--n-list", "16,64", "--format", "json"],
                 '[{"n": 16, "ln_exact": "5.442417710521793540562542", '
                 '"ln_main": "5.552209413601186062151276", "rel_err": "-0.1039792457763152381423892"}, '
                 '{"n": 64, "ln_exact": "14.37033201429385040804549", '
                 '"ln_main": "14.4263136937762082076691", "rel_err": "-0.0544435411845012694366426"}]\n',
                 id="compare-json"),
    pytest.param(["fit", "--spec", "s=1;l=1", "--n-geom", "64:1024"],
                 "slope,intercept,r_squared,n_min,n_max\n"
                 "-0.4953268057627926,-0.8493489021229199,0.9999961284684578,64,1024\n",
                 id="fit-csv"),
    pytest.param(["fit", "--spec", "s=1;l=1", "--n-geom", "64:1024", "--format", "json"],
                 '{"slope": -0.4953268057627926, "intercept": -0.8493489021229199, '
                 '"r_squared": 0.9999961284684578, "n_range": [64, 1024]}\n',
                 id="fit-json"),
    pytest.param(["regions", "--spec", "s=1;l=2", "--n", "100"],
                 '{"spec": {"s": [1], "l": [2]}, "n": 100, "eta": [4, 5], "v": [[50, 1], [50, 1]], '
                 '"main_sum": "1497364147076", "tail_sum": "346281673690", '
                 '"tail_fraction": "0.18782440194837776"}\n',
                 id="regions"),
    pytest.param(["quadform", "--k", "3", "--trials", "3", "--rng-seed", "0"],
                 "1..3\nok 1 - det k=3 rel_err=1.887e-16\nok 2 - det k=2 rel_err=3.396e-16\n"
                 "ok 3 - det k=2 rel_err=1.805e-16\n",
                 id="quadform"),
]


# One run of each command, for the checks every command makes.
EVERY_COMMAND = (["exact", "--spec", "s=1;l=1", "--n-max", "5"],
                 ["asymptotic", "--spec", "s=1;l=1", "--n-list", "5"],
                 ["compare", "--spec", "s=1;l=1", "--n-list", "16"],
                 ["fit", "--spec", "s=1;l=1", "--n-geom", "64:1024"],
                 ["regions", "--spec", "s=1;l=2", "--n", "100"],
                 ["quadform"], ["selftest"])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv,text", GOLDEN)
def test_golden_output(capsys, tmp_path, argv, text):
    assert run(capsys, *argv) == (0, text, "")
    path = tmp_path / "out.txt"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_text() == text


class TestExact:
    def test_classical_all_methods(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", "s=1;l=1",
                           "--n-max", "5", "--method", "all")
        assert code == 0
        assert out == GOLDEN_EXACT_CSV

    def test_four_colored_all_methods(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", "s=1,3;l=2,2",
                           "--n-max", "3", "--method", "all")
        assert code == 0
        assert out == "n,g\n0,1\n1,2\n2,5\n3,12\n"

    def test_invalid_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "exact", "--spec", "s=2,3;l=1,1", "--n-max", "5")
        assert code == 2
        assert "first modulus" in err
        for text in ("s=1,x;l=1,1", "s=1,2.5;l=1,1"):
            code, out, err = run(capsys, "exact", "--spec", text, "--n-max", "3")
            assert (code, out) == (2, "")
            assert err.startswith("error: spec 's' must be a list of integers, got ")
        for text in ('{"s":1,"l":1}', '{"s":[1,2.7],"l":[1,1]}', '{"s":[1],"l":[true]}'):
            code, out, err = run(capsys, "exact", "--spec-json", text, "--n-max", "3")
            assert (code, out) == (2, "")
            assert "must be a list of integers" in err
        for flag, text in (("--spec", "s=1;l=1;l=3"),
                           ("--spec-json", '{"s":[1],"l":[1],"l":[3]}')):
            code, out, err = run(capsys, "exact", flag, text, "--n-max", "3")
            assert (code, out) == (2, "")
            assert err == "error: spec field 'l' given more than once\n"

    def test_raw_format(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec", "s=1;l=2",
                           "--n-max", "4", "--format", "raw")
        assert code == 0
        assert out == "1\n2\n5\n10\n20\n"

    def test_json_spec_input(self, capsys):
        code, out, _ = run(capsys, "exact", "--spec-json", '{"s":[1,3],"l":[2,2]}',
                           "--n-max", "3", "--method", "euler")
        assert code == 0
        assert out.splitlines()[-1] == "3,12"

    def test_convolution_budget_exit_4(self, capsys):
        code, _, err = run(capsys, "exact", "--spec", "s=1;l=3", "--n-max", "500",
                           "--method", "convolution", "--budget", "10")
        assert code == 4

    @pytest.mark.parametrize("method", ["convolution", "all", "divisor", "euler"])
    def test_budget_refused_before_any_work(self, capsys, forbid, method):
        forbid("partition_table", "g_series_convolution", "g_series_divisor",
               "g_series_euler")
        code, out, err = run(capsys, "exact", "--spec", "s=1;l=3", "--n-max", "500",
                             "--method", method, "--budget", "10")
        # The fold at n_max: 3 colors * 501**2; the divisor recurrence: 500*501/2;
        # pentagonal division: 3 colors * sum of (501 - g) over the 36
        # generalized pentagonal numbers g <= 500 (they sum to 6327).
        estimate = {"divisor": "125250 divisor", "euler": "35127 euler"}.get(method,
                                                                          "753003 fold")
        assert (code, out) == (4, "")
        assert err == f"error: estimated {estimate} steps exceeds budget 10\n"

    @pytest.mark.parametrize("argv", [
        ["exact", "--spec", "s=1;l=1", "--n-max", "5"],
        ["compare", "--spec", "s=1;l=1", "--n-list", "16"],
        ["fit", "--spec", "s=1;l=1", "--n-geom", "64:1024"],
        ["regions", "--spec", "s=1;l=2", "--n", "100"],
    ], ids=lambda argv: argv[0])
    def test_negative_budget_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: colorpart {argv[0]} ")
        assert err.endswith(f"colorpart {argv[0]}: error: argument --budget: "
                            f"must be >= 0, got -1\n")

    def test_budget_not_an_integer(self, capsys):
        code, _, err = run(capsys, "exact", "--spec", "s=1;l=1", "--n-max", "5",
                           "--budget", "x")
        assert code == 2
        assert err.endswith("colorpart exact: error: argument --budget: "
                            "invalid int value: 'x'\n")

    def test_zero_budget_refuses_any_work(self, capsys):
        assert run(capsys, "exact", "--spec", "s=1;l=1", "--n-max", "5", "--budget", "0") == (
            4, "", "error: estimated 15 divisor steps exceeds budget 0\n")

    def test_disagreement_exit_3(self, capsys, monkeypatch):
        euler = exact.g_series_euler

        def off_by_one(spec, n_max):
            series = euler(spec, n_max)
            coeffs = list(series.coeffs)
            coeffs[4] += 1
            return exact.ExactSeries(series.spec, tuple(coeffs), series.method)

        monkeypatch.setattr(exact, "g_series_euler", off_by_one)
        code, out, err = run(capsys, "exact", "--spec", "s=1;l=1", "--n-max", "5",
                             "--method", "all")
        assert (code, out) == (3, "")
        assert err == "error: methods disagree at n=4: divisor=5 euler=6 convolution=5\n"

    def test_method_choices_are_the_engines(self, capsys):
        code, out, _ = run(capsys, "exact", "--help")
        assert code == 0
        assert f"--method {{{','.join([*exact.ENGINES, 'all'])}}}" in out
        # --method all checks convolution's estimate first, the one it refuses on.
        assert run(capsys, "exact", "--spec", "s=1;l=3", "--n-max", "500", "--method", "all",
                   "--budget", "125250") == (
            4, "", "error: estimated 753003 fold steps exceeds budget 125250\n")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        code, out, _ = run(capsys, "exact", "--spec", "s=1;l=1", "--n-max", "5",
                           "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == GOLDEN_EXACT_CSV

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        for argv in (["exact", "--spec", "s=1;l=1", "--n-max", "5"], ["selftest"]):
            code, out, err = run(capsys, *argv, "--output", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "x.csv" in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv,err", [
        (["exact", "--n-max", "1", "--method", "euler"], "20000000 euler steps"),
        (["exact", "--n-max", "1", "--method", "convolution"], "80000000 fold steps"),
        (["exact", "--n-max", "1", "--method", "all"], "80000000 fold steps"),
        (["regions", "--n", "100", "--eta", "0.75000001"], f"{19_999_999 * 101**2} fold steps"),
    ], ids=["euler", "convolution", "all", "regions"])
    def test_many_colors_refused_without_one_entry_per_color(self, capsys, small_peak, argv,
                                                             err):
        # A two-color refusal first loads what the command loads on its first run.
        assert run(capsys, *argv, "--spec", "s=1;l=2", "--budget", "1")[0] == 4
        with small_peak():
            result = run(capsys, *argv, "--spec", "s=1;l=20000000", "--budget", "1")
        assert result == (4, "", f"error: estimated {err} exceeds budget 1\n")


class TestAsymptotic:
    def test_remark_constants(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--spec", "s=1,3;l=2,2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["a"] == [8, 3]
        assert obj["d"] == [-7, 4]
        assert obj["c"].startswith("0.136082763487954")
        assert obj["exp_coeff"].startswith("4.188790204786390")

    def test_classical_prefactor(self, capsys):
        code, out, _ = run(capsys, "asymptotic", "--spec", "s=1;l=1")
        assert code == 0
        assert any(line.startswith("c,0.144337567297406") for line in out.splitlines())

    def test_precision_stability(self, capsys):
        _, out128, _ = run(capsys, "asymptotic", "--spec", "s=1;l=2",
                           "--format", "json", "--precision-bits", "128")
        _, out256, _ = run(capsys, "asymptotic", "--spec", "s=1;l=2",
                           "--format", "json", "--precision-bits", "256")
        c128 = json.loads(out128)["c"]
        c256 = json.loads(out256)["c"]
        assert c128[:20] == c256[:20]


class TestCompareAndFit:
    @pytest.mark.parametrize("command", ["asymptotic", "compare"])
    def test_n_list_skips_empty_entries(self, capsys, command):
        argv = [command, "--spec", "s=1;l=1", "--n-list"]
        code, out, err = run(capsys, *argv, "5,,6")
        assert (code, out, err) == run(capsys, *argv, "5,6")
        assert (code, err) == (0, "") and "6" in out

    @pytest.mark.parametrize("command,flag,value", [
        ("asymptotic", "--n-list", "5,x"), ("compare", "--n-list", "5,x"),
        ("fit", "--n-list", "8,1e3"), ("compare", "--n-geom", "256"),
        ("fit", "--n-geom", "8:x"), ("compare", "--n-geom", "1:2:4"),
    ])
    def test_bad_n_values_name_the_flag(self, capsys, command, flag, value):
        code, out, err = run(capsys, command, "--spec", "s=1;l=1", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be ") and err.endswith(f"got {value!r}\n")

    @pytest.mark.parametrize("command", ["compare", "fit"])
    def test_n_list_and_n_geom_exclude_each_other(self, capsys, command):
        code, out, err = run(capsys, command, "--spec", "s=1;l=1", "--n-list", "5,7",
                             "--n-geom", "8:16")
        assert (code, out) == (2, "")
        assert "argument --n-geom: not allowed with argument --n-list" in err

    def test_precision_bits_reach_the_table(self, capsys):
        argv = ["compare", "--spec", "s=1;l=1", "--n-list", "16,64", "--format", "json"]
        rows = {bits: json.loads(run(capsys, *argv, "--precision-bits", bits)[1])
                for bits in ("64", "256")}
        assert rows["64"] != rows["256"]
        assert rows["64"][1]["ln_exact"][:15] == rows["256"][1]["ln_exact"][:15]

    def test_compare_csv_schema(self, capsys):
        code, out, _ = run(capsys, "compare", "--spec", "s=1;l=1",
                           "--n-list", "16,64")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ln_exact,ln_main,rel_err"
        assert lines[1].startswith("16,") and lines[2].startswith("64,")

    @pytest.mark.parametrize("command,flag,value", [("compare", "--n-list", "200000"),
                                                    ("fit", "--n-geom", "25000:200000")])
    def test_over_budget_exits_4_before_the_series(self, capsys, forbid, command, flag, value):
        forbid("g_series_divisor")
        assert run(capsys, command, "--spec", "s=1;l=1", flag, value) == (
            4, "", "error: estimated 20000100000 divisor steps exceeds budget 1000000000\n")
        assert run(capsys, command, "--spec", "s=1;l=1", "--n-list", "64,512",
                   "--budget", "1000") == (
            4, "", "error: estimated 131328 divisor steps exceeds budget 1000\n")

    @pytest.mark.parametrize("value", [",", "0,200000", "-5"])
    def test_bad_n_list_is_reported_before_the_budget(self, capsys, value):
        assert run(capsys, "compare", "--spec", "s=1;l=1", "--n-list", value,
                   "--budget", "0") == (2, "", "error: need n values >= 1\n")

    def test_fit_passes_assertion(self, capsys):
        code, out, _ = run(capsys, "fit", "--spec", "s=1;l=1",
                           "--n-geom", "64:1024", "--assert-slope-max=-0.35")
        assert code == 0

    def test_fit_fails_assertion(self, capsys):
        code, _, err = run(capsys, "fit", "--spec", "s=1;l=1",
                           "--n-geom", "64:1024", "--assert-slope-max=-0.9")
        assert code == 1
        assert "slope" in err

    @pytest.mark.parametrize("value,message", [
        ("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"),
        ("-inf", "must be finite, got -inf"), ("x", "invalid float value: 'x'")])
    def test_non_finite_slope_bound_is_a_usage_error(self, capsys, forbid, value, message):
        # No slope exceeds nan or inf: the assertion could never fail.
        forbid("g_series_divisor")
        code, out, err = run(capsys, "fit", "--spec", "s=1;l=1", "--n-geom", "64:1024",
                             f"--assert-slope-max={value}")
        assert (code, out) == (2, "")
        assert err.endswith(f"colorpart fit: error: argument --assert-slope-max: {message}\n")

    def test_fit_too_few_points(self, capsys):
        code, _, _ = run(capsys, "fit", "--spec", "s=1;l=1", "--n-list", "10,20")
        assert code == 2

    def test_fit_json_keys(self, capsys):
        code, out, _ = run(capsys, "fit", "--spec", "s=1;l=1",
                           "--n-geom", "64:1024", "--format", "json")
        assert code == 0
        assert set(json.loads(out)) == {"slope", "intercept", "r_squared", "n_range"}


class TestRegions:
    def test_conservation(self, capsys):
        code, out, _ = run(capsys, "regions", "--spec", "s=1;l=2",
                           "--n", "100", "--eta", "4/5")
        assert code == 0
        obj = json.loads(out)
        import colorpart as cp

        g100 = cp.g_series_divisor(cp.validate([1], [2]), 100)[100]
        assert int(obj["main_sum"]) + int(obj["tail_sum"]) == g100

    def test_budget_exit_4(self, capsys):
        code, _, _ = run(capsys, "regions", "--spec", "s=1;l=3",
                         "--n", "300", "--eta", "4/5", "--budget", "10")
        assert code == 4

    def test_refusal_names_fold_steps(self, capsys):
        code, out, err = run(capsys, "regions", "--spec", "s=1;l=3",
                             "--n", "300", "--budget", "10")
        assert (code, out) == (4, "")
        assert err == "error: estimated 181202 fold steps exceeds budget 10\n"

    def test_budget_refused_before_the_table(self, capsys, forbid):
        forbid("partition_table")
        code, out, err = run(capsys, "regions", "--spec", "s=1;l=2", "--n", "30000",
                             "--budget", "10")
        assert (code, out) == (4, "")
        assert err == "error: estimated 900060001 fold steps exceeds budget 10\n"

    def test_six_colors_fit_the_default_budget(self, capsys):
        # The old estimate counted 201**5 tuples and refused this split.
        code, out, _ = run(capsys, "regions", "--spec", "s=1;l=6", "--n", "200")
        assert code == 0
        obj = json.loads(out)
        import colorpart as cp

        g200 = cp.g_series_divisor(cp.validate([1], [6]), 200)[200]
        assert int(obj["main_sum"]) + int(obj["tail_sum"]) == g200

    @pytest.mark.parametrize("n", ["-5", "-1000000"])
    def test_negative_n_exit_2_before_any_estimate(self, capsys, forbid, n):
        # The fold estimate is positive for a large negative n.
        forbid("partition_table")
        assert run(capsys, "regions", "--spec", "s=1;l=2", "--n", n) == (
            2, "", "error: n must be >= 1\n")

    def test_fine_grained_eta_refused_before_the_table(self, capsys, forbid):
        # The box test raises integers to the power 10**8 at this eta.
        forbid("partition_table")
        code, out, err = run(capsys, "regions", "--spec", "s=1;l=2", "--n", "100",
                             "--eta", "0.80000001")
        assert (code, out) == (4, "")
        assert err == ("error: estimated 262063866606 box-test steps exceeds budget "
                       "1000000000\n")

    def test_fine_grained_eta_within_the_budget(self, capsys):
        import colorpart as cp
        from test_regions import brute_force_split

        code, out, _ = run(capsys, "regions", "--spec", "s=1;l=2", "--n", "40",
                           "--eta", "0.80001")
        assert code == 0
        spec, eta = cp.validate([1], [2]), Fraction("0.80001")
        main, tail = brute_force_split(spec, 40, eta, cp.partition_table(40))
        obj = json.loads(out)
        assert (int(obj["main_sum"]), int(obj["tail_sum"])) == (main, tail)

    @pytest.mark.parametrize("eta", ["1/0", "abc"])
    def test_non_rational_eta_exit_2(self, capsys, eta):
        assert run(capsys, "regions", "--spec", "s=1;l=2", "--n", "50", "--eta", eta) == (
            2, "", f"error: eta must be a rational number, got {eta!r}\n")

    @pytest.mark.parametrize("eta", ["1e-30000000", "1e-5000", "0.8" + "1" * 5000])
    def test_eta_past_the_digit_limit_exit_2(self, capsys, forbid, eta):
        # 1e-30000000 never returned: Fraction built 10**30000000 first.
        forbid("partition_table")
        assert run(capsys, "regions", "--spec", "s=1;l=3", "--n", "5", "--eta", eta) == (
            2, "", f"error: eta text {eta!r} could name an integer of more than 4300 digits\n")

    def test_eta_outside_the_window_is_shown_exactly(self, capsys):
        # Rounded to 6 decimals this eta would read as the upper bound itself.
        assert run(capsys, "regions", "--spec", "s=1;l=3", "--n", "100",
                   "--eta", "0.8333334") == (
            2, "", "error: eta=4166667/5000000 outside (3/4, 5/6)\n")

    def test_classical_rejected(self, capsys):
        # The spec is invalid input for a region split: exit 2, as for an eta outside the window.
        for eta in (["--eta", "4/5"], []):
            assert run(capsys, "regions", "--spec", "s=1;l=1", "--n", "50", *eta) == (
                2, "", "error: eta window needs k + l[0] >= 3, got k=1, l[0]=1\n")

    def test_estimate_past_4000_digits_is_shown_as_a_power_of_two(self, capsys, forbid):
        # The box-test estimate has about 4500 digits at this eta, past the
        # 4300 that str() of an int may print; the limit itself is left alone.
        forbid("partition_table")
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "regions", "--spec", "s=1;l=3", "--n", "5",
                   "--eta", "0.8" + "0" * 3000 + "1") == (
            4, "", "error: estimated at least 2**14955 box-test steps exceeds budget "
                   "1000000000\n")
        assert sys.get_int_max_str_digits() == limit


class TestQuadform:
    def test_tap_output(self, capsys):
        code, out, _ = run(capsys, "quadform", "--k", "8", "--trials", "20",
                           "--rng-seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1..20"
        assert len(lines) == 21
        assert all(line.startswith("ok ") for line in lines[1:])

    @pytest.mark.parametrize("argv,name", [(["--k", "0", "--trials", "2"], "k"),
                                           (["--trials", "-1"], "trials"),
                                           (["--trials", "0"], "trials")])
    def test_bad_arguments_exit_2(self, capsys, argv, name):
        code, out, err = run(capsys, "quadform", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} must be >= 1")

    @pytest.mark.parametrize("argv,estimate", [
        (["--k", "100000", "--trials", "1"], 10**15 + cli._TRIAL_WEIGHT),
        (["--k", "8", "--trials", "100000000"], 10**8 * (8**3 + cli._TRIAL_WEIGHT)),
        (["--k", "1", "--trials", "10000000"], 10**7 * (1 + cli._TRIAL_WEIGHT)),
    ], ids=["large-k", "many-trials", "many-k1-trials"])
    def test_over_budget_exits_4_before_any_draw(self, capsys, monkeypatch, argv, estimate):
        def det_trials(*args):
            raise AssertionError("quadform.det_trials called")
        monkeypatch.setattr(quadform, "det_trials", det_trials)
        assert run(capsys, "quadform", *argv) == (
            4, "", f"error: estimated {estimate} determinant steps exceeds budget 1000000000\n")

    def test_every_bench_trial_count_is_admitted(self, capsys, monkeypatch):
        # The oracles workload runs --k 8 with up to 2000 trials.
        monkeypatch.setattr(quadform, "det_trials", lambda *args: [])
        assert run(capsys, "quadform", "--k", "8", "--trials", "2000") == (0, "1..2000\n", "")

    def test_seeded_reproducibility(self, capsys):
        assert run(capsys, "quadform", "--trials", "5", "--rng-seed", "7") == (
            0, GOLDEN_QUADFORM_SEED_7, "")
        assert run(capsys, "quadform", "--k", "3", "--trials", "5", "--rng-seed", "0") == (
            0, GOLDEN_QUADFORM_K3, "")

    def test_overflowing_determinants_agree_in_ln_det(self, capsys):
        # Seed 2 draws k = 578, whose det overflows to inf in both methods.
        code, out, err = run(capsys, "quadform", "--k", "690", "--trials", "1", "--rng-seed", "2")
        assert (code, err) == (0, "")
        assert re.fullmatch(r"1\.\.1\nok 1 - det k=578 rel_err=\d\.\d{3}e-1[0-6]\n", out)

    def test_each_line_goes_out_as_its_trial_is_drawn(self, capsys, monkeypatch):
        before = []

        def det_trials(trials, k_max, seed):
            yield 1, True, 0.0
            before.append(capsys.readouterr().out)
            yield 2, False, 2.0

        monkeypatch.setattr(quadform, "det_trials", det_trials)
        assert run(capsys, "quadform", "--trials", "2") == (
            1, "not ok 2 - det k=2 rel_err=2.000e+00\n", "")
        assert before == ["1..2\nok 1 - det k=1 rel_err=0.000e+00\n"]

    def test_memory_does_not_grow_with_trials(self):
        # Trials stream in fixed blocks: ten times the trials, the same peak.
        def max_rss_kib(trials):
            path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", RSS_AFTER_CLI, "quadform", "--k", "1",
                                   "--trials", str(trials)],
                                  env={**os.environ, "PYTHONPATH": path},
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stderr)  # KiB on Linux

        assert max_rss_kib(200000) <= max_rss_kib(20000) + 5 * 1024


class TestSelftest:
    def test_each_line_goes_out_as_its_check_ends(self, capsys, monkeypatch):
        before = []

        def passes():
            return "passes", True, "fine"

        def crashes():
            before.append(capsys.readouterr().out)
            raise RuntimeError("boom")

        monkeypatch.setattr(selftest, "ALL_CHECKS", [passes, crashes])
        assert run(capsys, "selftest") == (
            1, "not ok 2 - crashes: raised RuntimeError('boom')\n", "")
        assert before == ["1..2\nok 1 - passes: fine\n"]

    def test_output_opened_before_the_first_check(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "tap.txt"
        monkeypatch.setattr(selftest, "ALL_CHECKS", [lambda: ("opened", path.exists(), "")])
        assert run(capsys, "selftest", "--output", str(path)) == (0, "", "")
        assert path.read_text() == "1..1\nok 1 - opened: \n"


class TestUsage:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_keeps_no_state_between_calls(self, capsys):
        good = ["exact", "--spec", "s=1,3;l=2,2", "--n-max", "6", "--method", "all"]
        first = run(capsys, *good)
        assert first[0] == 0
        assert run(capsys, "exact", "--spec", "s=1;l=1", "--n-max", "x")[0] == 2
        again = run(capsys, *good)
        cli.build_parser.cache_clear()
        assert run(capsys, *good) == again == first

    def test_unknown_command(self, capsys):
        code = cli.main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_precision_too_low(self, capsys):
        # Every command checks --precision-bits, whether or not it uses it.
        for argv in EVERY_COMMAND:
            assert run(capsys, *argv, "--precision-bits", "32") == (
                2, "", "error: precision must be >= 64 bits, got 32\n"), argv[0]

    def test_precision_too_high(self, capsys, monkeypatch):
        # Refused before any extended-precision work, by every command.
        monkeypatch.setattr(mpmath, "workprec", None)
        for argv in EVERY_COMMAND:
            for bits in ("16385", "1000000"):
                assert run(capsys, *argv, "--precision-bits", bits) == (
                    2, "", f"error: precision must be <= 16384 bits, got {bits}\n"), argv[0]

    def test_precision_ceiling_is_admitted(self, capsys):
        assert precision.MAX_BITS == 16384
        code, out, err = run(capsys, "asymptotic", "--spec", "s=1;l=1", "--n-list", "5",
                             "--precision-bits", "16384")
        assert (code, err) == (0, "") and out.startswith("a,1\n")
