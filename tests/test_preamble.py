import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia.preamble import (
    DetectionConfig,
    calibrate_threshold,
    compute_pdp,
    detect,
    dbm_to_mw,
    false_alarm_threshold,
    generate_zc,
    is_prime,
    miss_threshold,
    pdp_matrix,
    sample_peaks,
    sequence_spectrum,
    synthesize_rx,
)
from mmwia.selftest import NOISE_DBM, SAMPLER_GRID_DBM, fft_peaks, sampler_vs_oracle


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


def test_zc_first_sample_and_modulus():
    for u, n in ((1, 11), (5, 11), (1, 839), (25, 839)):
        seq = generate_zc(u, n)
        assert seq.samples[0] == pytest.approx(1.0)
        assert np.abs(seq.samples) == pytest.approx(np.ones(n))


@pytest.mark.parametrize("u,n", [(1, 11), (1, 839), (25, 839)])
def test_zc_ideal_autocorrelation(u, n):
    seq = generate_zc(u, n)
    pdp = compute_pdp(seq.samples, seq)
    assert pdp.peak_lag == 0
    assert pdp.peak_value == pytest.approx(n * n, rel=1e-9)
    assert np.max(np.delete(pdp.values, 0)) < 1e-9 * pdp.peak_value


def test_pdp_matches_brute_force():
    seq = generate_zc(1, 11)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    brute = np.array([
        np.abs(np.sum(y * np.conj(np.roll(seq.samples, -l)))) ** 2
        for l in range(11)
    ])
    assert compute_pdp(y, seq).values == pytest.approx(brute, rel=1e-9)


@given(st.integers(min_value=0, max_value=838))
@settings(max_examples=20, deadline=None)
def test_shift_theorem(delay):
    seq = generate_zc(1, 839)
    y = synthesize_rx(seq, 0.0, 0.0, delay_lag=delay, noiseless=True)
    pdp = compute_pdp(y, seq)
    assert pdp.peak_lag == delay


def test_synthesize_noiseless_is_pure_scaled_shift():
    seq = generate_zc(1, 11)
    y = synthesize_rx(seq, 20.0, -100.0, delay_lag=3, noiseless=True)
    expect = math.sqrt(dbm_to_mw(20.0)) * np.roll(seq.samples, -3)
    assert y == pytest.approx(expect)


def test_synthesize_deterministic_per_seed():
    seq = generate_zc(1, 839)
    a = synthesize_rx(seq, -100.0, -110.0, seed=77)
    b = synthesize_rx(seq, -100.0, -110.0, seed=77)
    assert np.array_equal(a, b)
    c = synthesize_rx(seq, -100.0, -110.0, seed=78)
    assert not np.array_equal(a, c)


def test_synthesize_rejects_bad_lag():
    seq = generate_zc(1, 11)
    with pytest.raises(ValueError):
        synthesize_rx(seq, 0.0, 0.0, delay_lag=11)


def test_zero_input_gives_zero_pdp():
    seq = generate_zc(1, 11)
    pdp = compute_pdp(np.zeros(11, dtype=complex), seq)
    assert pdp.values == pytest.approx(np.zeros(11))
    assert not detect(pdp, 1e-12)[0]


def test_pdp_length_mismatch():
    seq = generate_zc(1, 11)
    with pytest.raises(ValueError):
        compute_pdp(np.zeros(12, dtype=complex), seq)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_parseval_identity(seed):
    seq = generate_zc(1, 839)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(839) + 1j * rng.standard_normal(839)
    values = compute_pdp(y, seq).values
    assert np.sum(values) == pytest.approx(839.0 * np.sum(np.abs(y) ** 2), rel=1e-6)


def test_processing_gain_at_0db_snr():
    seq = generate_zc(1, 839)
    spectrum = sequence_spectrum(seq)
    rng = np.random.default_rng(10)
    sigma = math.sqrt(0.5)
    noise = sigma * (rng.standard_normal((3000, 839))
                     + 1j * rng.standard_normal((3000, 839)))
    vals = pdp_matrix(seq.samples + noise, seq, spectrum)
    gain_db = 10 * math.log10(vals[:, 0].mean() / np.delete(vals, 0, axis=1).mean())
    assert gain_db == pytest.approx(10 * math.log10(839.0), abs=0.5)


def test_detection_config_exactly_one_mode():
    with pytest.raises(ValueError):
        DetectionConfig()
    with pytest.raises(ValueError):
        DetectionConfig(target_p_fa=0.1, target_p_miss=0.1)
    with pytest.raises(ValueError):
        DetectionConfig(target_p_fa=1.5)


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
    seq = generate_zc(1, 839)
    spectrum = sequence_spectrum(seq)
    gamma = false_alarm_threshold(0.05, 0.0, 839)
    rng = np.random.default_rng(2)
    sigma = math.sqrt(0.5)
    hits = 0
    for _ in range(5):
        noise = sigma * (rng.standard_normal((4000, 839))
                         + 1j * rng.standard_normal((4000, 839)))
        vals = pdp_matrix(noise, seq, spectrum)
        hits += int(np.sum(vals.max(axis=-1) > gamma))
    rate = hits / 20_000
    assert rate == pytest.approx(0.05, rel=0.25)


def test_miss_threshold_self_consistent():
    seq = generate_zc(1, 839)
    gamma = miss_threshold(0.1, -112.0, -110.67, seq, trials=5000, seed=3)
    spectrum = sequence_spectrum(seq)
    rng = np.random.default_rng(5)
    amp = math.sqrt(dbm_to_mw(-112.0))
    sigma = math.sqrt(dbm_to_mw(-110.67) / 2.0)
    noise = sigma * (rng.standard_normal((5000, 839))
                     + 1j * rng.standard_normal((5000, 839)))
    vals = pdp_matrix(amp * seq.samples + noise, seq, spectrum)
    rate = float(np.mean(vals.max(axis=-1) > gamma))
    assert rate == pytest.approx(0.9, abs=0.02)


def test_calibrate_threshold_dispatch():
    seq = generate_zc(1, 839)
    fa = calibrate_threshold(DetectionConfig(target_p_fa=0.01), -110.67, seq)
    assert fa == pytest.approx(false_alarm_threshold(0.01, -110.67, 839))
    with pytest.raises(ValueError):
        calibrate_threshold(DetectionConfig(target_p_miss=0.01), -110.67, seq)


def test_detect_strict_inequality():
    seq = generate_zc(1, 11)
    pdp = compute_pdp(seq.samples, seq)
    ok, lag = detect(pdp, pdp.peak_value)
    assert not ok  # equality is not a detection
    ok, lag = detect(pdp, pdp.peak_value * 0.999)
    assert ok and lag == 0


def test_detection_monotone_in_power():
    seq = generate_zc(1, 839)
    spectrum = sequence_spectrum(seq)
    gamma = false_alarm_threshold(0.01, 0.0, 839)
    rng = np.random.default_rng(8)
    sigma = math.sqrt(0.5)
    rates = []
    for rx_db in (-32.0, -26.0, -20.0):
        amp = math.sqrt(dbm_to_mw(rx_db))
        noise = sigma * (rng.standard_normal((2000, 839))
                         + 1j * rng.standard_normal((2000, 839)))
        vals = pdp_matrix(amp * seq.samples + noise, seq, spectrum)
        rates.append(float(np.mean(vals.max(axis=-1) > gamma)))
    assert rates[0] <= rates[1] + 0.02 <= rates[2] + 0.04


def test_sample_peaks_noiseless_is_exact():
    rx_mw = np.array([[1e-12, 2.5e-11], [0.0, 3.0]])
    peaks = sample_peaks(rx_mw, 0.0, 839, np.random.default_rng(0))
    assert np.array_equal(peaks, rx_mw * 839.0 ** 2)
    seq = generate_zc(1, 839)
    y = synthesize_rx(seq, -100.0, 0.0, noiseless=True)
    assert compute_pdp(y, seq).peak_value == pytest.approx(
        dbm_to_mw(-100.0) * 839.0 ** 2, rel=1e-9)


@pytest.mark.parametrize("rx_dbm", SAMPLER_GRID_DBM)
def test_sample_peaks_matches_fft_oracle(rx_dbm):
    """Two-sample KS over 10k draws per side, at alpha = 1e-3."""
    d, crit = sampler_vs_oracle(rx_dbm, n=10_000, seed=7)
    assert d < crit


def test_sample_peaks_false_alarm_rate():
    for p_fa in (0.1, 0.01):
        gamma = false_alarm_threshold(p_fa, NOISE_DBM, 839)
        peaks = sample_peaks(np.zeros(100_000), dbm_to_mw(NOISE_DBM), 839,
                             np.random.default_rng(12))
        rate = float(np.mean(peaks > gamma))
        assert rate == pytest.approx(p_fa, rel=0.30)


def test_miss_threshold_oracle_miss_rate():
    """The FFT oracle misses the reference link at the calibrated rate,
    within 4 standard errors of the two samples together."""
    seq = generate_zc(1, 839)
    n_cal = n_oracle = 20_000
    ref_dbm = -108.7  # default aligned reference budget
    gamma = miss_threshold(0.01, ref_dbm, NOISE_DBM, seq, trials=n_cal, seed=13)
    peaks = fft_peaks(ref_dbm, NOISE_DBM, seq, n_oracle, np.random.default_rng(14))
    rate = float(np.mean(peaks <= gamma))
    se = math.sqrt(0.01 * 0.99 * (1.0 / n_cal + 1.0 / n_oracle))
    assert abs(rate - 0.01) <= 4.0 * se
