"""Acceptance gate: each check of ``colorpart.selftest.ALL_CHECKS`` under a time bound.

The criteria live only in ``selftest``; this file names one test per check
and bounds its wall time.  Run with  pytest tests/test_acceptance.py -v -s
to see the per-criterion report.
"""

import time

from colorpart import selftest


def gate(check, bound_s=None):
    def test():
        start = time.monotonic()
        name, ok, detail = check()
        elapsed = time.monotonic() - start
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({elapsed:.2f}s) {detail}")
        assert ok, detail
        assert bound_s is None or elapsed < bound_s, f"{elapsed:.2f}s exceeds {bound_s}s"

    test.check = check
    return test


test_criterion_1_oracle_triple_agreement = gate(selftest.check_triple_agreement, 10)
test_criterion_2_classical_reduction = gate(selftest.check_classical_reduction, 30)
test_criterion_3_closed_form_constants = gate(selftest.check_closed_form_constants)
test_criterion_4_error_exponents = gate(selftest.check_error_exponent, 5)
test_criterion_5_relative_error_decay = gate(selftest.check_error_decay, 5)
test_criterion_6_determinant_identity = gate(selftest.check_determinant, 1)
test_criterion_7_gaussian_quadform_integral = gate(selftest.check_gaussian_integrals, 10)
test_criterion_8_region_decomposition = gate(selftest.check_region_decomposition, 10)
test_criterion_9_sum_to_integral_bound = gate(selftest.check_sum_vs_integral, 5)


def test_every_check_is_gated():
    gated = [test.check for name, test in globals().items() if name.startswith("test_criterion_")]
    assert gated == selftest.ALL_CHECKS
