import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia.preamble import (
    dbm_to_mw,
    false_alarm_threshold,
    generate_zc,
    is_prime,
    miss_threshold,
    sample_peaks,
)
from mmwia.selftest import (
    SAMPLER_GRID_DBM,
    ZC_CASES,
    false_alarm_case,
    miss_case,
    pdp_matrix,
    sampler_case,
    synthesize_rx,
    zc_autocorrelation,
)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 839}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes or n in (17, 19, 23, 29))
    assert is_prime(839)
    assert not is_prime(840)
    assert not is_prime(1)


def test_generate_zc_validation():
    with pytest.raises(ValueError):
        generate_zc(1, 840)
    with pytest.raises(ValueError):
        generate_zc(0, 11)
    with pytest.raises(ValueError):
        generate_zc(11, 11)


def test_generate_zc_builds_each_sequence_once_read_only():
    seq = generate_zc(1, 839)
    assert generate_zc(1, 839) is seq
    assert not seq.samples.flags.writeable
    with pytest.raises(ValueError):
        seq.samples[0] = 0.0


def test_zc_first_sample_and_modulus():
    for u, n in ((1, 11), (5, 11), (1, 839), (25, 839)):
        seq = generate_zc(u, n)
        assert seq.samples[0] == pytest.approx(1.0)
        assert np.abs(seq.samples) == pytest.approx(np.ones(n))


@pytest.mark.parametrize("u,n", ZC_CASES)
def test_zc_ideal_autocorrelation(u, n):
    zc_autocorrelation(u, n)


@given(st.integers(min_value=0, max_value=838))
@settings(max_examples=20, deadline=None)
def test_shift_theorem(delay):
    seq = generate_zc(1, 839)
    y = synthesize_rx(seq, 0.0, -math.inf, None, delay_lag=delay)
    assert np.argmax(pdp_matrix(y, seq)) == delay


def test_synthesize_noiseless_is_pure_scaled_shift():
    seq = generate_zc(1, 11)
    y = synthesize_rx(seq, 20.0, -math.inf, None, delay_lag=3)
    expect = math.sqrt(dbm_to_mw(20.0)) * np.roll(seq.samples, -3)
    assert y.shape == (1, 11)
    assert y[0] == pytest.approx(expect)


def test_synthesize_noiseless_batch_draws_nothing():
    seq = generate_zc(1, 11)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    y = synthesize_rx(seq, -3.0, -math.inf, rng, n=3, delay_lag=4)
    expect = math.sqrt(dbm_to_mw(-3.0)) * np.roll(seq.samples, -4)
    assert y.shape == (3, 11)
    assert np.array_equal(y, np.tile(expect, (3, 1)))
    assert rng.bit_generator.state == state


def test_synthesize_deterministic_per_seed():
    seq = generate_zc(1, 839)
    a = synthesize_rx(seq, -100.0, -110.0, np.random.default_rng(77))
    b = synthesize_rx(seq, -100.0, -110.0, np.random.default_rng(77))
    assert np.array_equal(a, b)
    c = synthesize_rx(seq, -100.0, -110.0, np.random.default_rng(78))
    assert not np.array_equal(a, c)


def test_synthesize_rejects_bad_lag():
    seq = generate_zc(1, 11)
    with pytest.raises(ValueError):
        synthesize_rx(seq, 0.0, 0.0, None, delay_lag=11)


def test_zero_input_gives_zero_pdp():
    seq = generate_zc(1, 11)
    assert pdp_matrix(np.zeros(11, dtype=complex), seq) == pytest.approx(np.zeros(11))


def test_pdp_length_mismatch():
    seq = generate_zc(1, 11)
    with pytest.raises(ValueError):
        pdp_matrix(np.zeros(12, dtype=complex), seq)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_parseval_identity(seed):
    seq = generate_zc(1, 839)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(839) + 1j * rng.standard_normal(839)
    values = pdp_matrix(y, seq)
    assert np.sum(values) == pytest.approx(839.0 * np.sum(np.abs(y) ** 2), rel=1e-6)


def test_false_alarm_threshold_inverts_exactly():
    # P(any lag exceeds gamma) must round-trip to the requested target
    for p_fa in (1e-4, 0.01, 0.1, 0.5, 1 - 1e-9):
        gamma = false_alarm_threshold(p_fa, 0.0, 839)
        back = 1.0 - (1.0 - math.exp(-gamma / 839.0)) ** 839
        assert back == pytest.approx(p_fa, rel=1e-6)
    # monotone: tighter targets push the threshold up, and vice versa
    g = [false_alarm_threshold(p, 0.0, 839) for p in (0.01, 0.1, 0.5, 1 - 1e-9)]
    assert g == sorted(g, reverse=True)
    with pytest.raises(ValueError):
        false_alarm_threshold(0.0, 0.0, 839)


def test_false_alarm_rate_matches_target():
    """P_fa 0.05 over 20k noise-only FFT slots, within +/-25 %."""
    false_alarm_case(0.05)


def test_miss_threshold_self_consistent():
    """P_miss 0.1 calibrated on a -112 dBm link: the FFT oracle misses it at
    that rate within 4 standard errors (20k draws on each side)."""
    miss_case(0.1, -112.0)


@pytest.mark.parametrize("trials", [100, 101, 1000, 10_000, 20_000])
def test_miss_threshold_is_numpys_linear_quantile(trials):
    """Bit for bit the default np.quantile of the same draws, at targets
    that land on an order statistic and between two. At 101 draws, 0.857
    is a target where interpolating from the lower order statistic would
    differ from numpy in the last bit."""
    seq = generate_zc(1, 839)
    for p_miss in (1e-6, 1e-3, 0.01, 0.05, 0.1, 1 / 3, 0.5, 0.7, 0.857, 0.999):
        peaks = sample_peaks(np.full(trials, dbm_to_mw(-112.0)), dbm_to_mw(-110.67),
                             839, np.random.default_rng(trials))
        got = miss_threshold(p_miss, -112.0, -110.67, seq, trials=trials, seed=trials)
        assert got == float(np.quantile(peaks, p_miss)), p_miss


def test_detection_monotone_in_power():
    seq = generate_zc(1, 839)
    gamma = false_alarm_threshold(0.01, 0.0, 839)
    rng = np.random.default_rng(8)
    rates = []
    for rx_db in (-32.0, -26.0, -20.0):
        vals = pdp_matrix(synthesize_rx(seq, rx_db, 0.0, rng, n=2000), seq)
        rates.append(float(np.mean(vals.max(axis=-1) > gamma)))
    assert rates[0] <= rates[1] + 0.02 <= rates[2] + 0.04


def test_sample_peaks_noiseless_is_exact():
    rx_mw = np.array([[1e-12, 2.5e-11], [0.0, 3.0]])
    peaks = sample_peaks(rx_mw, 0.0, 839, np.random.default_rng(0))
    assert np.array_equal(peaks, rx_mw * 839.0 ** 2)
    seq = generate_zc(1, 839)
    y = synthesize_rx(seq, -100.0, -math.inf, None)
    assert pdp_matrix(y, seq).max() == pytest.approx(
        dbm_to_mw(-100.0) * 839.0 ** 2, rel=1e-9)


def _textbook_peaks(rx_mw, noise_mw, n_zc, rng):
    """The sampler's formula, one draw per Gaussian part and no step in place."""
    rx_mw = np.asarray(rx_mw, dtype=float)
    if noise_mw == 0.0:
        return rx_mw * float(n_zc) ** 2
    s = math.sqrt(n_zc * noise_mw / 2.0)
    re = np.sqrt(rx_mw) * n_zc + s * rng.standard_normal(rx_mw.shape)
    im = s * rng.standard_normal(rx_mw.shape)
    m = -np.log(-np.expm1(np.log(rng.random(rx_mw.shape)) / (n_zc - 1)))
    return np.maximum(re * re + im * im, n_zc * noise_mw * m)


@pytest.mark.parametrize("noise_dbm", [-110.67, -math.inf], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("shape", [(), (7,), (150, 8, 3)])
def test_sample_peaks_is_the_textbook_expression_bit_for_bit(shape, noise_dbm):
    """Same draws, same bits and same shape as the formula written out with
    two Gaussian draws, and the generator left in the same state; a 0-d
    input gives a 0-d result."""
    rx_mw = dbm_to_mw(-112.0) * np.random.default_rng(3).exponential(size=shape)
    ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
    got = sample_peaks(rx_mw, dbm_to_mw(noise_dbm), 839, ours)
    expect = _textbook_peaks(rx_mw, dbm_to_mw(noise_dbm), 839, theirs)
    assert np.shape(got) == shape
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("rx_dbm", SAMPLER_GRID_DBM)
def test_sample_peaks_matches_fft_oracle(rx_dbm):
    """Two-sample KS over 10k draws per side, at alpha = 1e-3."""
    sampler_case(rx_dbm)


def test_miss_threshold_oracle_miss_rate():
    """P_miss 0.01 on the default aligned reference budget (-108.7 dBm)."""
    miss_case(0.01, -108.7)
