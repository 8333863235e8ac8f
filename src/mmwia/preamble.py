"""Zadoff-Chu preambles, PDP peak statistics and detection thresholds.

The correlation convention: PDP(l) = |sum_n y(n) * conj(x_u((n+l) mod N))|^2,
a periodic correlation over all N lags. For a prime-length ZC sequence the
cyclic shifts form an orthogonal family, so the autocorrelation PDP is
N^2 at lag 0 and exactly 0 elsewhere. The same orthogonality fixes the
distribution of a slot's PDP maximum, which ``sample_peaks`` draws
directly; the protocol and the miss-mode calibration use it. The FFT
correlator it is tested against, which synthesizes and correlates whole
slots, is an oracle and lives in ``selftest``.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


class ZcSequence(NamedTuple):
    root: int
    n_zc: int
    samples: np.ndarray  # unit-modulus complex, length n_zc, read-only


@cache
def generate_zc(u: int, n_zc: int) -> ZcSequence:
    """x_u(n) = exp(-j*pi*u*n*(n+1)/n_zc) for prime n_zc and 1 <= u < n_zc.

    Each (u, n_zc) is built once per process: every call returns the same
    sequence, whose samples are read-only."""
    if not is_prime(n_zc):
        raise ValueError(f"n_zc = {n_zc} is not prime")
    if not 1 <= u <= n_zc - 1:
        raise ValueError("root u must satisfy 1 <= u <= n_zc - 1")
    n = np.arange(n_zc, dtype=float)
    samples = np.exp(-1j * math.pi * u * n * (n + 1.0) / n_zc)
    samples.flags.writeable = False
    return ZcSequence(u, n_zc, samples)


def false_alarm_threshold(p_fa: float, noise_power_dbm: float, n_zc: int) -> float:
    """Closed-form threshold for a target any-lag false-alarm probability.

    Under noise-only input each lag's PDP value is Exp(mean N*sigma^2) and
    the lags are independent, so P(max > g) = 1 - (1 - exp(-g/(N s^2)))^N.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    sigma2 = dbm_to_mw(noise_power_dbm)
    return -n_zc * sigma2 * math.log(1.0 - (1.0 - p_fa) ** (1.0 / n_zc))


def sample_peaks(rx_mw, noise_mw: float, n_zc: int, rng) -> np.ndarray:
    """PDP maxima of slots that each carry one preamble, drawn exactly.

    The n_zc cyclic shifts of a prime-length ZC sequence are orthogonal
    with squared norm N, so under white noise of power Pn the N correlator
    outputs are independent CN(0, N*Pn) and the signal of amplitude a adds
    a*N at its own lag. The slot's PDP maximum is therefore
    max(|a*N + sqrt(N*Pn)*g|^2, N*Pn*M) with g ~ CN(0, 1) and M the largest
    of N-1 i.i.d. Exp(1) draws, which has the distribution of the FFT
    correlator's maximum over synthesized slots (``selftest.fft_peaks``)
    at a cost independent of N.
    M inverts its CDF (1 - e^-m)^(N-1) as -log(-expm1(log(U)/(N-1))), which
    keeps its upper tail accurate. With noise_mw = 0 the peak is a^2*N^2.

    rx_mw: received signal power per slot (any shape); returns that shape.
    """
    rx_mw = np.asarray(rx_mw, dtype=float)
    if noise_mw == 0.0:
        return rx_mw * float(n_zc) ** 2
    return _noisy_peaks(np.sqrt(rx_mw) * n_zc, rx_mw.shape, noise_mw, n_zc, rng)


def _noisy_peaks(amplitude, shape: tuple, noise_mw: float, n_zc: int, rng) -> np.ndarray:
    """``sample_peaks`` of slots of the given shape whose signal adds
    ``amplitude`` (a*N, broadcast to the shape) at its lag, under noise of
    power ``noise_mw`` > 0.

    Both Gaussian parts, normal(0, s) with s = sqrt(N*Pn/2), come from one
    standard normal draw scaled in place, the same stream as one draw
    each. ``rng.normal(0, s)`` would give the same bytes (numpy computes
    it as 0 + s*z from the same stream) but draws about 5 % slower (numpy
    2.4). Every step works in place; -N*Pn*log(x) is computed as
    log(x)*(-(N*Pn)), which is exact because negation is."""
    s = math.sqrt(n_zc * noise_mw / 2.0)
    g = rng.standard_normal((2, *shape))
    g *= s
    re, im = g[0, ...], g[1, ...]  # views, 0-d arrays for a 0-d shape
    re += amplitude
    re *= re
    im *= im
    re += im
    m = rng.random(shape)
    np.log(m, out=m)
    m /= n_zc - 1
    np.expm1(m, out=m)
    np.negative(m, out=m)
    np.log(m, out=m)
    m *= -(n_zc * noise_mw)
    return np.maximum(re, m, out=re)


def miss_threshold(
    p_miss: float,
    reference_rx_dbm: float,
    noise_power_dbm: float,
    seq: ZcSequence,
    trials: int,
    seed,
) -> float:
    """Monte Carlo threshold: the p_miss quantile of the aligned reference
    link's PDP peak over ``trials`` exact draws from ``seed``, so that link
    is missed with probability p_miss.

    The quantile is ``np.quantile``'s default (linear) one, bit for bit,
    from the two order statistics around it: one partition puts the upper
    one in place, and the lower one is the largest value before it.
    ``np.quantile`` itself would import ``numpy.ma``, which costs more
    than the draws.
    """
    if not 0.0 < p_miss < 1.0:
        raise ValueError("p_miss must lie in (0, 1)")
    peaks = _noisy_peaks(math.sqrt(dbm_to_mw(reference_rx_dbm)) * seq.n_zc, (trials,),
                         dbm_to_mw(noise_power_dbm), seq.n_zc,
                         np.random.default_rng(seed))
    v = (trials - 1) * p_miss
    lo = math.floor(v)
    hi = min(lo + 1, trials - 1)
    peaks.partition(hi)
    b = peaks[hi]
    a = peaks[:hi].max() if hi > lo else b
    t = v - lo
    # numpy's lerp: from the nearer end, so t = 0 or 1 returns a or b exactly
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))

