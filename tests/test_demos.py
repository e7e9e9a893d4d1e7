"""Every demo runs to the end.

Demos assert their own invariants where they have one (three-way agreement
of the engines, exact conservation of the split), so exit code 0 is the check.
Each demo runs with warnings as errors, as CI runs the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


DEMOS = ["01_exact_series.py", "02_asymptotic_constants.py", "03_error_decay_fit.py",
         "04_region_decomposition.py", "05_gaussian_quadforms.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
