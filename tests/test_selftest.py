"""Every oracle of the built-in selftest, one test per check.

Many inputs of these checks also run under tests named after them (the ZC,
false-alarm, miss, solver and sampler cases, the link-budget scalars, the
pattern constants, the UE centroid and the trilateration oracle). The
selftest caches each input's result, so within one session an input runs
once, under whichever test reaches it first.
"""

import pytest

from mmwia.selftest import CHECKS


@pytest.mark.parametrize("check", [pytest.param(fn, id=name) for name, fn in CHECKS])
def test_check(check):
    check()
