"""Every oracle of the built-in selftest, one test per check.

Many inputs of these checks also run under tests named after them (the ZC,
false-alarm, miss, closed-form solve and sampler cases, the edge round
trip, the link-budget scalars, the pattern constants, the UE centroid and
the least-squares fallback oracle). The selftest caches each input's
result, so within one session an input runs once, under whichever test
reaches it first.
"""

import pytest

from mmwia.selftest import CHECKS, FALSE_ALARM_CASES, LOCATE_CASES


@pytest.mark.parametrize("check", [pytest.param(fn, id=name) for name, fn in CHECKS])
def test_check(check):
    check()


def test_every_case_has_a_test_of_its_own():
    # a new case needs a test named after it before it joins its table
    assert set(FALSE_ALARM_CASES) == {0.1, 0.01, 0.05}
    assert set(LOCATE_CASES) == {"symmetric", "side midpoint", "exterior"}
