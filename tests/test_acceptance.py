"""Acceptance gate: every check from the verification suite must pass at
its stated tolerance.  Each test prints one [PASS]/[FAIL] line with the
measured error (run pytest with -s or look at captured output).

One test per entry of ``acceptance.CHECKS`` is generated, named test_ and
the check name with "_" for "-", so a new check is gated without an edit
here and each check keeps its test id."""

from levylab import acceptance


def _gate(name):
    def test():
        result = acceptance.CHECKS[name]()
        print(result.line)
        assert result.passed, result.line
    return test


for _name in acceptance.CHECKS:
    globals()["test_" + _name.replace("-", "_")] = _gate(_name)


def test_suite_is_complete():
    assert set(acceptance.CHECKS) == {
        "symbol-stable", "route-equivalence", "kernel-cauchy", "max-principle",
        "regularity-stability", "riesz", "semigroup-decay", "feynman-kac",
        "sampling-law", "krylov", "burgers", "hamilton-jacobi"}
