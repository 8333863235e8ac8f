import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia.antenna import make_codebook, make_pattern
from mmwia.protocol import reorder_rx_beams
from mmwia.selftest import pattern_22p5deg, pattern_45deg

beamwidths = st.floats(min_value=math.radians(2.0), max_value=math.radians(170.0))


def test_pattern_constants_45deg():
    pattern_45deg()


def test_pattern_constant_22p5deg():
    pattern_22p5deg()


@given(beamwidths)
def test_main_lobe_ratio(phi):
    p = make_pattern(phi)
    assert p.phi_ml == pytest.approx(2.6 * phi)
    assert p.g0 > p.g_sl


def test_pattern_domain():
    for bad in (0.0, -0.1, math.pi, 4.0):
        with pytest.raises(ValueError):
            make_pattern(bad)


def test_gain_boresight_halfpower_and_sidelobe():
    p = make_pattern(math.radians(45.0))
    assert p.gain(0.0) == p.g0
    assert p.gain(p.phi_3db / 2.0) == pytest.approx(p.g0 - 3.01)
    assert p.gain(math.pi) == p.g_sl


@given(beamwidths, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_gain_non_increasing_on_main_lobe(phi, f1, f2):
    p = make_pattern(phi)
    half = min(p.phi_ml / 2.0, math.pi)
    a, b = sorted((f1 * half, f2 * half))
    assert p.gain(a) >= p.gain(b) - 1e-12


@given(beamwidths, st.floats(min_value=1e-6, max_value=1.0))
def test_gain_constant_strictly_beyond_main_lobe(phi, f):
    p = make_pattern(phi)
    half = p.phi_ml / 2.0
    if half >= math.pi:
        return
    off = half + f * (math.pi - half)
    assert p.gain(off) == p.g_sl


def test_codebook_uniform_centers():
    cb = make_codebook(4, math.radians(90.0))
    assert np.degrees(cb.beam_centers) == pytest.approx([0.0, 90.0, 180.0, 270.0])
    cb8 = make_codebook(8, math.radians(45.0))
    spacing = np.diff(np.sort(cb8.beam_centers))
    assert spacing == pytest.approx([math.pi / 4] * 7)


def test_codebook_default_beamwidth_ties_to_size():
    cb = make_codebook(8)
    assert cb.pattern.phi_3db == pytest.approx(2 * math.pi / 8)


def _nearest_beam(cb, angle):
    """First beam of the reordered sweep towards a target at ``angle``."""
    target = (100.0 * math.cos(angle), 100.0 * math.sin(angle))
    return reorder_rx_beams(cb, [target], np.zeros((1, 1, 2)))[0, 0, 0]


def test_best_beam_nearest_and_ties():
    cb = make_codebook(4, math.radians(90.0))
    assert _nearest_beam(cb, math.radians(100.0)) == 1
    assert _nearest_beam(cb, math.radians(45.0)) == 0  # midway -> lower index
    for k in range(4):
        assert _nearest_beam(cb, float(cb.beam_centers[k])) == k


@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
@settings(deadline=None)
def test_full_angular_coverage(n, target):
    cb = make_codebook(n)  # phi_ml = 2.6 * spacing always covers the circle
    offsets = np.abs((cb.beam_centers - target + math.pi) % (2 * math.pi) - math.pi)
    assert np.sum(offsets <= cb.pattern.phi_ml / 2.0) >= 1
