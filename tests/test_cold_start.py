"""numpy loads only for the quadform paths, no path loads scipy, and the
lazy paths work.

The cold checks run in a fresh interpreter: the suite's conftest has
already imported ``selftest`` and with it numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import colorpart
from colorpart import cli, quadform

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "scipy", "colorpart.quadform", "colorpart.selftest")
QUADFORM_NAMES = ["QuadFormSpec", "det_closed_form", "gaussian_integral_monte_carlo",
                  "gaussian_integral_quadrature", "gaussian_quadform_integral",
                  "sum_vs_integral"]


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


def test_quadform_command_from_a_cold_interpreter(capsys):
    argv = ["quadform", "--k", "3", "--trials", "3", "--rng-seed", "0"]
    assert cli.main(argv) == 0
    in_process = capsys.readouterr().out
    proc = fresh_python("-c", "import sys; from colorpart import cli; "
                              "sys.exit(cli.main(sys.argv[1:]))", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, in_process, "")


class TestLazyReexport:
    def test_every_public_name_resolves(self):
        assert set(QUADFORM_NAMES) <= set(colorpart.__all__)
        for name in colorpart.__all__:
            assert getattr(colorpart, name) is not None

    def test_star_import(self):
        namespace = {}
        exec("from colorpart import *", namespace)
        assert set(colorpart.__all__) <= set(namespace)
        assert namespace["QuadFormSpec"] is quadform.QuadFormSpec

    def test_names_are_the_quadform_objects(self):
        assert colorpart.QuadFormSpec is colorpart.quadform.QuadFormSpec
        for name in QUADFORM_NAMES:
            assert getattr(colorpart, name) is getattr(quadform, name)

    def test_dir_lists_them(self):
        assert set(QUADFORM_NAMES) | {"quadform"} <= set(dir(colorpart))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            colorpart.no_such_name
        assert not hasattr(colorpart, "no_such_name")
