"""The acceptance gate: every criterion at its stated strength.

One test per criterion; each prints its pass/fail line so a verbose run
reads as the acceptance report.
"""

import pytest

from skeinlab import acceptance


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA])
def test_criterion(name, fn):
    passed, detail = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_caveat_is_reported():
    assert "surrogates" in acceptance.CAVEAT
    ok, detail = acceptance.criterion_13_caveat()
    assert ok and detail == acceptance.CAVEAT
