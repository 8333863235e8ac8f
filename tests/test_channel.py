import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmwia.antenna import make_codebook, make_pattern
from mmwia.channel import (
    LinkBudgetParams,
    LinkState,
    NLOS_FLOOR_DB,
    link_bearings,
    noise_power,
    pathloss,
    received_power,
    sample_blocking,
)
from mmwia.geometry import Bearing, Point2D, build_cluster, circular_distance
from mmwia.selftest import aligned_link_composition, back_lobe_drop

D = 200.0


def test_pathloss_reference_points():
    assert pathloss(1.0) == pytest.approx(61.4)
    assert pathloss(100.0) == pytest.approx(103.4)
    assert pathloss(200.0) == pytest.approx(61.4 + 21.0 * math.log10(200.0))


def test_pathloss_domain():
    with pytest.raises(ValueError):
        pathloss(0.5)


@given(st.floats(min_value=1.0, max_value=1e4), st.floats(min_value=1.0, max_value=1e4))
def test_pathloss_strictly_increasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert pathloss(lo) <= pathloss(hi)
    # a few ulps apart, 21*log10(hi/lo) is below the resolution of a
    # 60-150 dB double and both sides round to the same value
    if hi > lo * (1.0 + 1e-12):
        assert pathloss(lo) < pathloss(hi)


def test_noise_power_values():
    assert noise_power(LinkBudgetParams(23.0, -171.0, 1.08e6)) == pytest.approx(-110.666, abs=1e-3)
    assert noise_power(LinkBudgetParams(23.0, -171.0, 1.0)) == pytest.approx(-171.0)
    one = noise_power(LinkBudgetParams(23.0, -171.0, 5e5))
    two = noise_power(LinkBudgetParams(23.0, -171.0, 1e6))
    assert two - one == pytest.approx(10.0 * math.log10(2.0))


def _west_ue_geom():
    # UE 200 m due west of cell 0
    return build_cluster(3, D).with_ue(Point2D(-D, 0.0))


def test_received_power_aligned_composition():
    aligned_link_composition()


def test_received_power_back_lobe_drop():
    back_lobe_drop()


def test_blocked_link_below_aligned_los():
    """Best-case blocked reception sits >= 1.55 dB under best-case LOS."""
    pat = make_pattern(math.radians(45.0))
    params = LinkBudgetParams(23.0, -171.0, 1.08e6)
    geom = _west_ue_geom()
    rng = np.random.default_rng(0)
    for _ in range(25):
        state = LinkState(True, Bearing(rng.uniform(0, 2 * math.pi)),
                          NLOS_FLOOR_DB + rng.exponential(5.0))
        depart, arrive = link_bearings(geom, 0, state)
        blocked_best = received_power(params, geom, state, depart, pat,
                                      arrive, pat, 0)
        los_best = received_power(params, geom, LinkState(False), 0.0, pat,
                                  math.pi, pat, 0)
        assert blocked_best <= los_best - NLOS_FLOOR_DB + 1e-9


def test_blocked_argmax_beam_points_at_reflector():
    """The best Tx beam for a blocked link is the one nearest the reflector."""
    cb = make_codebook(8)
    params = LinkBudgetParams(0.0, -171.0, 1.08e6)
    geom = _west_ue_geom()
    state = LinkState(True, Bearing(math.radians(222.0)), 3.0)
    depart, _ = link_bearings(geom, 0, state)
    powers = [received_power(params, geom, state, float(c), cb.pattern,
                             math.pi, cb.pattern, 0)
              for c in cb.beam_centers]
    best = int(np.argmax(powers))
    offsets = circular_distance(cb.beam_centers, depart)
    assert best == int(np.argmin(offsets))


def test_sample_blocking_degenerate_probabilities():
    assert not any(s.blocked for s in sample_blocking(50, 0.0, seed=1))
    blocked = sample_blocking(50, 1.0, seed=1)
    assert all(s.blocked for s in blocked)
    assert all(s.nlos_penalty_db >= NLOS_FLOOR_DB for s in blocked)
    assert all(s.reflector_bearing is not None for s in blocked)


def test_link_state_invariants():
    with pytest.raises(ValueError):
        LinkState(True, None, 3.0)
    with pytest.raises(ValueError):
        LinkState(True, Bearing(0.0), 0.5)  # below the 1.55 dB floor
    with pytest.raises(ValueError):
        LinkState(False, None, 1.0)  # LOS with a penalty
