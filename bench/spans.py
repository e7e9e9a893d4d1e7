"""Spans recorded from outside the program, by wrapping colorpart's public functions.

Entering a ``Tracer`` replaces each traced function at every ``colorpart``
module attribute that holds it (``exact.g_series_divisor`` and
``asymptotic.g_series_divisor`` alike), so a layer is timed however the CLI
or another layer looks it up.  Each span keeps its name, job id, parent span
and start and end times in memory.  A span's self time is its duration less
the durations of its direct children.

Work counts are computed after the run from the arguments and results that
the wrappers keep, never from inside the program, and are labelled as
computed wherever they are printed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time
from collections import defaultdict

from jobs import tuples_estimate

# (module, function, span name).  A function missing from the module is skipped.
TRACED = [
    ("cli", "main", "cli"),
    ("exact", "g_series_divisor", "exact.divisor"),
    ("exact", "g_series_euler", "exact.euler"),
    ("exact", "g_via_tuple_convolution", "exact.fold"),
    ("exact", "partition_table", "exact.partition_table"),
    ("specs", "constants", "specs.constants"),
    ("asymptotic", "comparison_table", "asymptotic.comparison"),
    ("asymptotic", "fit_error_exponent", "asymptotic.fit"),
    ("regions", "region_split", "regions.split"),
    ("quadform", "det_closed_form", "quadform.det"),
    ("quadform", "gaussian_integral_quadrature", "quadform.quadrature"),
    ("quadform", "gaussian_integral_monte_carlo", "quadform.monte_carlo"),
    ("quadform", "sum_vs_integral", "quadform.sum_vs_integral"),
]
SERIALIZE = "cli.serialize"
# Serializers: every module-level *_to_csv/_json/_raw and every to_json method.
_SERIALIZER = re.compile(r"(^|_)to_(csv|json|raw)$")

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "exact.divisor": "exact.divisor_s",
    "exact.euler": "exact.euler_s",
    "exact.fold": "exact.fold_s",
    "exact.partition_table": "exact.partition_table_s",
    "specs.constants": "specs.constants_s",
    "asymptotic.comparison": "asymptotic.comparison_s",
    "asymptotic.fit": "asymptotic.fit_s",
    "regions.split": "regions.split_s",
    "quadform.det": "quadform.det_s",
    "quadform.quadrature": "quadform.quadrature_s",
    "quadform.monte_carlo": "quadform.monte_carlo_s",
    "quadform.sum_vs_integral": "quadform.sum_vs_integral_s",
    "cli": "cli.self_s",
    SERIALIZE: "cli.serialize_s",
}

_EXACT_ENGINES = ("exact.divisor", "exact.euler", "exact.fold", "exact.partition_table")


def _colorpart_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "colorpart" or name.startswith("colorpart."))]


class Tracer:
    """In-memory span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent, start_ns, end_ns]
        self.calls: list[tuple] = []  # (name, (signature, args, kwargs), result)
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        spans, calls, stack = self.spans, self.calls, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.job, stack[-1] if stack else None, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            calls.append((name, (signature, args, kwargs), result))
            return result

        return wrapper

    def __enter__(self):
        modules = _colorpart_modules()
        targets = {}  # id(original) -> (original, span name)
        for mod_name, attr, name in TRACED:
            mod = importlib.import_module(f"colorpart.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is not None:
                targets[id(fn)] = (fn, name)
        for mod in modules:
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and _SERIALIZER.search(attr)
                        and value.__module__.startswith("colorpart")):
                    targets.setdefault(id(value), (value, SERIALIZE))
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    method = value.__dict__.get("to_json")
                    if inspect.isfunction(method):
                        self._patch(value, "to_json", self._wrap(SERIALIZE, method))
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and targets[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)])
        return self

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child_ns = [0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for idx, (name, _, _, start, end) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child_ns[idx]
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def computed_counts(self) -> dict[str, float]:
        """Work counts computed from the traced calls' arguments and results."""
        coeffs = max_bits = fold_calls = fold_entries = ptable_calls = 0
        rows = tuples_est = mc_samples = 0
        for name, (signature, args, kwargs), result in self.calls:
            if name in _EXACT_ENGINES:
                values = [result] if isinstance(result, int) else result.coeffs
                coeffs += len(values)
                max_bits = max(max_bits, max(abs(v).bit_length() for v in values))
            if name == "exact.fold":
                fold_calls += 1
                fold_entries += _bind(signature, args, kwargs)["n"] + 1
            elif name == "exact.partition_table":
                ptable_calls += 1
            elif name == "asymptotic.comparison":
                rows += len(result)
            elif name == "regions.split":
                bound = _bind(signature, args, kwargs)
                spec = bound["spec"]
                tuples_est += tuples_estimate((spec.s, spec.l), bound["n"])
            elif name == "quadform.monte_carlo":
                mc_samples += _bind(signature, args, kwargs)["samples"]
        return {
            "exact.coeffs": coeffs,
            "exact.max_coeff_bits": max_bits,
            "exact.fold_calls": fold_calls,
            "exact.fold_useful_ratio": fold_calls / fold_entries if fold_entries else 0.0,
            "exact.partition_table_calls": ptable_calls,
            "asymptotic.rows": rows,
            "regions.tuples_est": tuples_est,
            "quadform.mc_samples": mc_samples,
        }


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments

