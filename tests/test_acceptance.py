"""Acceptance gate: every check from the verification suite must pass at
its stated tolerance.  Each test prints one [PASS]/[FAIL] line with the
measured error (run pytest with -s or look at captured output)."""

import pytest

from levylab import acceptance


@pytest.mark.parametrize("name", list(acceptance.CHECKS))
def test_check(name):
    result = acceptance.CHECKS[name]()
    print(result.line)
    assert result.passed, result.line


def test_suite_is_complete():
    assert set(acceptance.CHECKS) == {
        "symbol-stable", "route-equivalence", "kernel-cauchy", "max-principle",
        "regularity-stability", "riesz", "semigroup-decay", "feynman-kac",
        "sampling-law", "krylov", "burgers", "hamilton-jacobi"}
