"""numpy loads only for the quadform paths, mpmath only for the paths that
use it, no path loads scipy, the exact path loads no dataclasses, json or
fractions, the quadform command no dataclasses or thread pool, and the lazy
paths work.

The cold checks run in a fresh interpreter: the suite's conftest has
already imported ``selftest`` and with it numpy and mpmath.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorpart
from colorpart import asymptotic, cli, exact, precision, quadform, regions, specs

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "scipy", "colorpart.quadform", "colorpart.selftest")
# Loaded only by the commands and library names that do mpmath work.
MPMATH = ("mpmath", "colorpart.asymptotic", "colorpart.regions")
QUADFORM_NAMES = ["QuadFormSpec", "det_closed_form", "gaussian_integral_monte_carlo",
                  "gaussian_integral_quadrature", "gaussian_quadform_integral",
                  "sum_vs_integral"]
# Every public name, under the submodule that defines it.
LAZY_NAMES = {
    exact: ["ExactSeries", "g_series_convolution", "g_series_divisor", "g_series_euler",
            "g_via_tuple_convolution", "partition_table"],
    specs: ["AsymptoticConstants", "ColoredSpec", "EtaWindow", "constants", "eta_window",
            "parse_json", "parse_text", "validate"],
    precision: ["working_precision"],
    asymptotic: ["ComparisonRow", "ExponentFit", "comparison_table", "fit_error_exponent",
                 "geometric_grid", "ln_main_term", "ln_of_bigint"],
    regions: ["RegionSplitReport", "region_split", "saddle_tuple"],
    quadform: QUADFORM_NAMES,
}


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter with this checkout's ``src`` first."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["colorpart", "colorpart.cli"])
def test_import_loads_no_numpy(module):
    # The second line shows that the first quadform name looked up loads quadform.
    proc = fresh_python("-c", f"import sys, {module}; "
                              f"print(*[m for m in {HEAVY!r} if m in sys.modules]); "
                              f"import colorpart; colorpart.det_closed_form; "
                              f"print('colorpart.quadform' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\nTrue\n", "")


def test_import_loads_no_submodule():
    # Each submodule loads when it, or one of its names, is first looked up.
    show = "print(sorted(m for m in sys.modules if m.startswith('colorpart.')))"
    proc = fresh_python("-c", f"import sys, colorpart; {show}; colorpart.errors; {show}; "
                              f"colorpart.validate; {show}")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[]", "['colorpart.errors']",
        "['colorpart.errors', 'colorpart.precision', 'colorpart.specs']"]


NO_SCIPY = """
import contextlib, io, math, sys
from colorpart import cli, quadform

list(quadform.det_trials(3, 4, 0))
forms = [quadform.QuadFormSpec(1.0, (1.0,) * k) for k in (1, 2, 3)]
for q in forms[:2]:
    quadform.gaussian_integral_quadrature(q)
quadform.gaussian_integral_monte_carlo(forms[2], samples=100)
quadform.sum_vs_integral(math.exp, 0, 5, 0)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["selftest"])
print(code, out.getvalue().count("not ok"), [m for m in sys.modules if m.split(".")[0] == "scipy"])
"""


def test_no_path_loads_scipy():
    # Every quadform function and the whole acceptance battery: the
    # quadrature runs quadform's own kernel.
    proc = fresh_python("-c", NO_SCIPY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 []\n", "")


def loaded_after(modules, code, *argv):
    """Those of ``modules`` in sys.modules after ``code`` ran with ``argv`` in a
    fresh interpreter, which must succeed.  The list goes to stderr, as the CLI
    writes its output to stdout."""
    proc = fresh_python("-c", f"import sys; {code}; "
                              f"print(*[m for m in {modules!r} if m in sys.modules], "
                              f"file=sys.stderr)", *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


RUN_CLI = "from colorpart import cli; assert cli.main(sys.argv[1:]) == 0"
EXACT_ALL = ["exact", "--spec", "s=1,3;l=2,2", "--n-max", "60", "--method", "all"]


@pytest.mark.parametrize("args", [
    ["import colorpart"],
    ["import colorpart.cli"],
    [RUN_CLI, *EXACT_ALL],
    [RUN_CLI, "quadform", "--k", "4", "--trials", "5"],
], ids=["import-colorpart", "import-cli", "exact", "quadform"])
def test_start_loads_no_mpmath(args):
    assert loaded_after(MPMATH, *args) == []


# dataclasses imports inspect, ast and dis; the exact path needs none of
# these, nor json and fractions, which load in the functions that use them.
EXACT_PATH_FREE = ("dataclasses", "inspect", "json", "fractions")


@pytest.mark.parametrize("args,modules", [
    (["import colorpart"], EXACT_PATH_FREE),
    (["import colorpart.cli"], EXACT_PATH_FREE),
    ([RUN_CLI, *EXACT_ALL, "--format", "csv"], EXACT_PATH_FREE),
    ([RUN_CLI, "compare", "--spec", "s=1;l=2", "--n-list", "16,64"], ("dataclasses", "inspect")),
    # The Monte Carlo oracle imports its thread pool, and with it logging, on first use.
    ([RUN_CLI, "quadform", "--k", "8", "--trials", "20"],
     ("dataclasses", "concurrent.futures", "logging")),
], ids=["import-colorpart", "import-cli", "exact-csv", "compare", "quadform"])
def test_start_loads_no_dataclasses(args, modules):
    assert loaded_after(modules, *args) == []


def cold_and_in_process(capsys, argv):
    """(exit code, stdout) of the CLI on argv in this process and in a fresh one."""
    code = cli.main(argv)
    in_process = (code, capsys.readouterr().out)
    proc = fresh_python("-c", "import sys; from colorpart import cli; "
                              "sys.exit(cli.main(sys.argv[1:]))", *argv)
    assert proc.stderr == ""
    return in_process, (proc.returncode, proc.stdout)


def test_quadform_command_from_a_cold_interpreter(capsys):
    argv = ["quadform", "--k", "3", "--trials", "3", "--rng-seed", "0"]
    in_process, cold = cold_and_in_process(capsys, argv)
    assert cold == in_process and cold[0] == 0


@pytest.mark.parametrize("argv", [
    ["exact", "--spec", "s=1,3;l=2,2", "--n-max", "30", "--format", "json"],
    ["exact", "--spec-json", '{"s": [1, 2], "l": [1, 3]}', "--n-max", "30", "--method", "euler"],
], ids=["exact-json", "exact-spec-json"])
def test_json_command_from_a_cold_interpreter(capsys, argv):
    # json loads on first use, in the serializer and the spec parser.
    in_process, cold = cold_and_in_process(capsys, argv)
    assert cold == in_process and cold[0] == 0


@pytest.mark.parametrize("argv", [
    ["compare", "--spec", "s=1,3;l=2,2", "--n-list", "8,40", "--format", "json"],
    ["compare", "--spec", "s=1;l=2", "--n-geom", "16:64"],
    ["regions", "--spec", "s=1;l=3", "--n", "40"],
], ids=["compare-json", "compare-csv", "regions"])
def test_mpmath_command_from_a_cold_interpreter(capsys, argv):
    # Their mpf cells print at 25 digits, and tail_fraction at 17, cold as well.
    in_process, cold = cold_and_in_process(capsys, argv)
    assert cold == in_process and cold[0] == 0


class TestLazyReexport:
    def test_every_public_name_resolves(self):
        assert sorted(sum(LAZY_NAMES.values(), [])) == colorpart.__all__
        for module, names in LAZY_NAMES.items():
            assert set(names) <= set(colorpart.__all__)
            for name in names:
                assert getattr(colorpart, name) is getattr(module, name)
        for name in colorpart.__all__:
            assert getattr(colorpart, name) is not None

    def test_star_import(self):
        namespace = {}
        exec("from colorpart import *", namespace)
        assert set(colorpart.__all__) <= set(namespace)
        for module, names in LAZY_NAMES.items():
            for name in names:
                assert namespace[name] is getattr(module, name)

    def test_names_are_the_quadform_objects(self):
        assert colorpart.QuadFormSpec is colorpart.quadform.QuadFormSpec
        for name in QUADFORM_NAMES:
            assert getattr(colorpart, name) is getattr(quadform, name)

    def test_dir_lists_them(self):
        for module, names in LAZY_NAMES.items():
            assert {*names, module.__name__.rpartition(".")[2]} <= set(dir(colorpart))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            colorpart.no_such_name
        assert not hasattr(colorpart, "no_such_name")
