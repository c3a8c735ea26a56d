"""The golden table of `cfk selftest` (`cfk.selftest.CHECKS`), run under
pytest: one test per table entry, named after it, so -v prints one
pass/fail line per entry.  The goldens live only in that table; adding a
golden means adding a row there.

Four entries also carry a wall-clock budget, a hard gate here.
"""
import time

import pytest

from cfk import selftest

BUDGET_S = {
    "staircase goldens": 1.0,
    "45-generator sum fixture": 2.0,
    "225-generator sum fixture": 15.0,
    "engine agreement": 20.0,
}


@pytest.mark.parametrize("name,check", selftest.CHECKS,
                         ids=[name for name, _check in selftest.CHECKS])
def test_golden(name, check):
    assert set(BUDGET_S) <= {entry for entry, _check in selftest.CHECKS}
    start = time.monotonic()
    check()
    assert time.monotonic() - start < BUDGET_S.get(name, float("inf"))
