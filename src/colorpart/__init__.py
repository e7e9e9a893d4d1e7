"""colorpart: exact and asymptotic evaluation of colored partition counts.

A colored partition of n assigns one of several colors to each part, where
color class i may only be used on parts divisible by a modulus s_i.  This
package computes the exact counts by three independent methods, evaluates
the closed-form leading asymptotic (prefactor, power of n, exponential
coefficient) in extended precision, measures the empirical error-decay
exponent, and numerically validates the supporting machinery: the
near-saddle region decomposition, sum-to-integral bounds, and Gaussian
integrals of coupled positive-definite quadratic forms.
"""

import importlib
import types

from .asymptotic import (
    ComparisonRow,
    ExponentFit,
    comparison_table,
    fit_error_exponent,
    geometric_grid,
    ln_main_term,
    ln_of_bigint,
)
from .exact import (
    ExactSeries,
    Method,
    g_series_convolution,
    g_series_divisor,
    g_series_euler,
    g_via_tuple_convolution,
    partition_table,
)
from .precision import working_precision
from .regions import (
    RegionSplitReport,
    region_split,
    saddle_tuple,
)
from .specs import (
    AsymptoticConstants,
    ColoredSpec,
    EtaWindow,
    constants,
    eta_window,
    parse_json,
    parse_text,
    validate,
)

__version__ = "0.1.0"

# quadform needs numpy, which takes most of a cold start, and nothing beyond
# it; it is imported when one of its names is first looked up (PEP 562).
_QUADFORM_NAMES = frozenset({
    "QuadFormSpec",
    "det_closed_form",
    "gaussian_integral_monte_carlo",
    "gaussian_integral_quadrature",
    "gaussian_quadform_integral",
    "sum_vs_integral",
})
# The public names: everything imported above, and quadform's.
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
                 | _QUADFORM_NAMES)


def __getattr__(name):
    if name == "quadform" or name in _QUADFORM_NAMES:
        # Not ``from . import quadform``: its hasattr check would call back here.
        quadform = importlib.import_module(".quadform", __name__)
        return quadform if name == "quadform" else getattr(quadform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_QUADFORM_NAMES, "quadform"})
