"""Every oracle of the built-in selftest, one test per check.

The false-alarm check synthesizes 220k FFT slots, the most of any check. Its
cases run once each, under the tests named after them: criterion 6b
(P_fa 0.1 and 0.01) and test_preamble.py::test_false_alarm_rate_matches_target
(P_fa 0.05).
"""

import pytest

from mmwia.selftest import CHECKS, FALSE_ALARM_CASES

RUN_BY_CASE = "false-alarm threshold closed form"


@pytest.mark.parametrize("check", [pytest.param(fn, id=name) for name, fn in CHECKS
                                   if name != RUN_BY_CASE])
def test_check(check):
    check()


def test_false_alarm_cases_all_run_by_name():
    assert RUN_BY_CASE in dict(CHECKS)
    # a new case needs a test of its own before it joins this table
    assert set(FALSE_ALARM_CASES) == {0.1, 0.01, 0.05}
