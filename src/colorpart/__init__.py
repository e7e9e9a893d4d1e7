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

__version__ = "0.1.0"

# The public names, each under the submodule that defines it.  A submodule
# is imported when it or one of its names is first looked up (PEP 562), so
# ``import colorpart`` loads none: asymptotic and regions need mpmath and
# quadform needs numpy, which together take most of a cold start, and the
# exact series need neither.
_NAMES = {
    "exact": ("ExactSeries", "g_series_convolution", "g_series_divisor", "g_series_euler",
              "g_via_tuple_convolution", "partition_table"),
    "specs": ("AsymptoticConstants", "ColoredSpec", "EtaWindow", "constants", "eta_window",
              "parse_json", "parse_text", "validate"),
    "precision": ("working_precision",),
    "asymptotic": ("ComparisonRow", "ExponentFit", "comparison_table", "fit_error_exponent",
                   "geometric_grid", "ln_main_term", "ln_of_bigint"),
    "regions": ("RegionSplitReport", "region_split", "saddle_tuple"),
    "quadform": ("QuadFormSpec", "det_closed_form", "gaussian_integral_monte_carlo",
                 "gaussian_integral_quadrature", "gaussian_quadform_integral",
                 "sum_vs_integral"),
    "errors": (),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module in _NAMES:
        # Not ``from . import ...``: its hasattr check would call back here.
        owner = importlib.import_module(f".{module}", __name__)
        return owner if name == module else getattr(owner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NAMES, *_OWNER})
