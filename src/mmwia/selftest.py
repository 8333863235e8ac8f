"""Built-in oracle suite: every derived expected value, checked analytically.

Each check recomputes its expectation from an independent route (hand
algebra, brute-force correlation, closed-form statistics, the scalar
link budget, exact angles) and compares the implementation against it.
Only such checks live here, with the input checks of the functions they
cover; a property without an independent reference (reproducibility,
shapes, tie rules) is asserted in the test suite, and no property is
asserted in both. This module holds the only copy of each
oracle, including the reference implementations that no campaign runs:
the scalar link budget (``received_power``), the exact subtended angles
(``true_angles``), the modulo angle wrap that ``geometry.bearings``
matches (``normalize_angle``) and the FFT slot correlator
(``synthesize_rx``, ``pdp_matrix``, ``fft_peaks``); the tests import them
from here. Each ``CHECKS`` entry names a check and lists its cases, the
argument tuples it runs on. The CLI `selftest` command runs every case
and prints one line per check; the test suite runs each case as a test
named after its check and its arguments.
"""

from __future__ import annotations

import math
import traceback
from functools import cache

import numpy as np

from . import antenna, channel, estimation, geometry, preamble, protocol
from .config import ChannelConfig, SimConfig

D = 200.0


def _assert_raises(exc, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc:
        return
    raise AssertionError(f"{fn.__name__} must raise {exc.__name__}")


def normalize_angle(angle):
    """Wrap angle(s) to [0, 2*pi) (array-safe)."""
    a = np.mod(angle, geometry.TWO_PI)
    # a tiny negative angle plus 2*pi rounds to 2*pi
    a = np.where(a < geometry.TWO_PI, a, 0.0)
    return float(a) if a.ndim == 0 else a


def true_angles(cells: np.ndarray, ue) -> tuple[float, float, float]:
    """Oracle: angles subtended at the UE between consecutive base-triangle
    cells.

    theta_i is the angle between the UE->cell_i and UE->cell_{i+1}
    directions (cyclic over the first three cells). For a UE inside the
    triangle the three angles sum to exactly 2*pi.
    """
    vectors = cells[:3] - np.asarray(ue)
    if not np.hypot(vectors[:, 0], vectors[:, 1]).all():
        raise ValueError("angles undefined at a UE on a cell")
    b = geometry.bearings(vectors[:, 0], vectors[:, 1])
    return tuple(normalize_angle(np.roll(b, -1) - b).tolist())


# half-power beamwidth (deg) -> peak gain g0 and side-lobe gain g_sl (dBi),
# main-lobe width (deg)
PATTERN_CASES = {45.0: (12.51, -12.14, 117.0), 22.5: (18.37, -11.86, 58.5)}


def _pattern_case(deg: float):
    """g0 and g_sl within 0.01 dB and the main-lobe width of the case, and
    g0 - 3.01 dB at the half-power offset."""
    g0, g_sl, main_lobe = PATTERN_CASES[deg]
    p = antenna.make_pattern(math.radians(deg))
    assert abs(p.g0 - g0) < 0.01, f"g0({deg}deg) = {p.g0:.3f}"
    assert abs(p.g_sl - g_sl) < 0.01, f"g_sl({deg}deg) = {p.g_sl:.3f}"
    assert abs(math.degrees(p.phi_ml) - main_lobe) < 1e-9
    assert abs(p.gain(p.phi_3db / 2.0) - (p.g0 - 3.01)) < 1e-12


def _bearing(x0: float, y0: float, x1: float, y1: float) -> float:
    if x0 == x1 and y0 == y1:
        raise ValueError("bearing undefined between coincident points")
    return normalize_angle(math.atan2(y1 - y0, x1 - x0))


def link_bearings(cell, ue, reflector: float | None = None) -> tuple[float, float]:
    """(departure azimuth at the UE, arrival azimuth seen from the cell) of
    one link, in scalar math; ``cell`` and ``ue`` are (x, y) pairs.

    A LOS link (``reflector`` None) uses the direct geometry. A blocked
    link routes via the nominal reflector of ``channel.link_budget_dbm``,
    half the direct distance out from the UE along ``reflector``.
    """
    (cx, cy), (ux, uy) = cell, ue
    if reflector is None:
        return _bearing(ux, uy, cx, cy), _bearing(cx, cy, ux, uy)
    half = 0.5 * math.hypot(ux - cx, uy - cy)
    rx = ux + half * math.cos(reflector)
    ry = uy + half * math.sin(reflector)
    return _bearing(ux, uy, rx, ry), _bearing(cx, cy, rx, ry)


def received_power(
    p_ue_dbm: float,
    cell,
    ue,
    ue_beam: float,
    ue_pattern: antenna.AntennaPattern,
    sc_beam: float,
    sc_pattern: antenna.AntennaPattern,
    reflector: float | None = None,
    penalty_db: float = 0.0,
) -> float:
    """Oracle: preamble power in dBm at one cell for beams centred at the
    given azimuths; the scalar reference for ``channel.link_budget_dbm``."""
    depart, arrive = link_bearings(cell, ue, reflector)
    d = math.hypot(ue[0] - cell[0], ue[1] - cell[1])
    g_ue = ue_pattern.gain(geometry.circular_distance(ue_beam, depart))
    g_sc = sc_pattern.gain(geometry.circular_distance(sc_beam, arrive))
    return float(p_ue_dbm + g_ue + g_sc - channel.pathloss(d) - penalty_db)


def _check_link_budget():
    assert abs(channel.pathloss(200.0) - 109.72163) < 1e-4
    ch = ChannelConfig(noise_density_dbm_hz=-171.0, bandwidth_hz=1.08e6)
    assert abs(channel.noise_power(ch) + 110.6658) < 1e-3

    # the (tx, cell, rx) tensor against the scalar reference: a UE 200 m due
    # west of cell 0, with 8 beams of 45 deg at both ends (beam t centred at
    # t * 45 deg), then 20 six-cell layouts with 6 Rx beams, LOS and blocked
    ue_cb, rng = antenna.make_codebook(8), np.random.default_rng(19)
    west = (-D, 0.0)
    layouts = [(geometry.build_cluster(3, D)[:1], np.array(west), None, ue_cb)]
    for _ in range(20):
        cells = geometry.build_cluster(6, D, rng)
        ue = geometry.place_ue(cells, rng)
        blk = channel.sample_blocking(6, 0.5, rng, excess_mean_db=10.0)
        layouts.append((cells, ue, blk, antenna.make_codebook(6)))
    seen, tensors = set(), []
    for cells, ue, blk, sc_cb in layouts:
        base, rx_gain = channel.link_budget_dbm(cells, ue, blk, ue_cb, sc_cb, 23.0)
        tensor = base[:, :, None] + rx_gain.T  # (tx, cell, rx)
        tensors.append(tensor)
        for i, cell in enumerate(cells.tolist()):
            if math.dist(ue, cell) < 1.0:
                continue
            blocked = blk is not None and bool(blk.blocked[i])
            seen.add(blocked)
            reflector = float(blk.reflector[i]) if blocked else None
            penalty = 0.0 if blk is None else float(blk.penalty_db[i])
            for t, ue_beam in enumerate(ue_cb.beam_centers):
                for b, sc_beam in enumerate(sc_cb.beam_centers):
                    ref = received_power(
                        23.0, cell, ue.tolist(), float(ue_beam), ue_cb.pattern,
                        float(sc_beam), sc_cb.pattern, reflector, penalty)
                    err = abs(tensor[t, i, b] - ref)
                    assert err < 1e-9, f"tensor off by {err:.1e} dB at {(t, i, b)}"
    assert seen == {False, True}, "both LOS and blocked links must be checked"

    # under cell 0's Rx beam 4, which points back west, the aligned LOS link
    # is the strongest, P_UE + 2 g0 - PL(200 m), about -61.70 dBm, and turning
    # the UE beam around costs exactly g0 - g_sl, about 24.65 dB: in the
    # scalar reference and in the program's tensor alike
    pat = ue_cb.pattern
    expect = 23.0 + 2.0 * pat.g0 - channel.pathloss(D)
    oracle = [received_power(23.0, (0.0, 0.0), west, float(c), pat, math.pi, pat)
              for c in ue_cb.beam_centers]
    for powers in (np.array(oracle), tensors[0][:, 0, 4]):
        assert abs(powers[0] - expect) < 1e-9 and abs(powers[0] + 61.70) < 0.02, powers
        assert np.argmax(powers) == 0, powers
        assert abs((powers[0] - powers[4]) - (pat.g0 - pat.g_sl)) < 1e-9
    assert abs((pat.g0 - pat.g_sl) - 24.65) < 0.02


def _check_blocking_rate():
    blk = channel.sample_blocking(100_000, 0.5, seed=42, excess_mean_db=10.0)
    frac = float(blk.blocked.mean())
    assert abs(frac - 0.5) < 0.01, f"blocked fraction {frac:.3f}"
    _assert_raises(ValueError, channel.sample_blocking, 10, 1.5, seed=0,
                   excess_mean_db=10.0)


def synthesize_rx(seq: preamble.ZcSequence, rx_power_dbm: float,
                  noise_power_dbm: float, rng, n: int = 1,
                  delay_lag: int = 0) -> np.ndarray:
    """Oracle: n received preamble slots, shape (n, n_zc): the scaled
    sequence, shifted so its PDP peaks at lag ``delay_lag``, plus
    circularly-symmetric complex Gaussian noise of the given per-sample
    power, drawn from ``rng`` as the real then the imaginary (n, n_zc)
    normals. Noise of -inf dBm adds nothing and draws nothing (``rng``
    may then be None)."""
    if not 0 <= delay_lag < seq.n_zc:
        raise ValueError("delay_lag out of range")
    x = math.sqrt(preamble.dbm_to_mw(rx_power_dbm)) * np.roll(seq.samples, -delay_lag)
    noise_mw = preamble.dbm_to_mw(noise_power_dbm)
    if noise_mw == 0.0:
        return np.tile(x, (n, 1))
    y = np.empty((n, seq.n_zc), complex)
    y.real = rng.standard_normal((n, seq.n_zc))
    y.imag = rng.standard_normal((n, seq.n_zc))
    y *= math.sqrt(noise_mw / 2.0)
    y += x
    return y


def pdp_matrix(y: np.ndarray, seq: preamble.ZcSequence) -> np.ndarray:
    """Oracle: PDP values of received slots, shape (..., n_zc); a slot's
    peak lag is the argmax (the lowest lag on ties).

    For a ZC root u, x(n + l) = x(n) x(l) e^{-j2pi u n l / N}, so the
    correlation at lag l is |W(u l mod N)|^2 with W = N * IFFT(y conj(x)):
    one FFT and a gather, equal to the direct periodic correlation at
    every lag.
    """
    y = np.asarray(y)
    n = seq.n_zc
    if y.shape[-1] != n:
        raise ValueError("length mismatch between received slot and sequence")
    w = np.fft.ifft(y * np.conj(seq.samples), axis=-1)
    power = (w.real * w.real + w.imag * w.imag) * float(n * n)
    return power[..., seq.root * np.arange(n) % n]


def fft_peaks(rx_dbm: float | None, noise_dbm: float, seq, n: int,
              rng) -> np.ndarray:
    """Oracle: PDP maxima of n synthesized slots through the FFT correlator,
    in batches of 2000 slots (rx_dbm None: noise only)."""
    rx_dbm = -math.inf if rx_dbm is None else rx_dbm
    return np.concatenate([
        pdp_matrix(synthesize_rx(
            seq, rx_dbm, noise_dbm, rng, n=min(2_000, n - start)), seq).max(axis=-1)
        for start in range(0, n, 2_000)])


ZC_CASES = ((1, 11), (1, 839), (25, 839))  # (root u, length N)


def zc_autocorrelation(u: int, n: int) -> float:
    """A ZC sequence correlated with itself peaks at N^2 at lag 0 and leaks
    nothing elsewhere; returns the largest off-peak value over the peak."""
    seq = preamble.generate_zc(u, n)
    pdp = pdp_matrix(synthesize_rx(seq, 0.0, -math.inf, None)[0], seq)
    assert np.argmax(pdp) == 0
    assert abs(pdp[0] - n * n) <= 1e-9 * n * n
    leak = float(pdp[1:].max() / pdp[0])
    assert leak < 1e-9, f"off-peak leakage {leak:.1e} at (u={u}, n={n})"
    return leak


def _check_brute_force_pdp():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    # root 1 gathers the lags in order; root 3 permutes them
    for u in (1, 3):
        seq = preamble.generate_zc(u, 11)
        fast = pdp_matrix(y, seq)
        slow = np.array([
            abs(np.sum(y * np.conj(np.roll(seq.samples, -l)))) ** 2
            for l in range(11)
        ])
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12), \
            f"FFT and O(n^2) correlators differ at root {u}"
        shifted = synthesize_rx(seq, 0.0, -math.inf, None, delay_lag=5)
        assert np.argmax(pdp_matrix(shifted, seq)) == 5


def _check_processing_gain():
    seq = preamble.generate_zc(1, 839)
    rng = np.random.default_rng(11)
    peaks, floors = [], []
    for _ in range(5):
        vals = pdp_matrix(synthesize_rx(seq, 0.0, 0.0, rng, n=2_000), seq)
        peaks.append(vals[:, 0])
        floors.append(vals[:, 1:].mean(axis=1))
    peaks, floors = np.concatenate(peaks), np.concatenate(floors)
    gain_db = 10.0 * math.log10(peaks.mean() / floors.mean())
    expect = 10.0 * math.log10(839.0)
    assert abs(gain_db - expect) < 0.5, f"processing gain {gain_db:.2f} dB"


NOISE_DBM = -110.67  # noise power of the default link budget
# received powers of the sampler-equivalence grid; None is noise only
SAMPLER_GRID_DBM = (None, -140.0, -125.0, -115.0, -105.0)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical(n: int, m: int) -> float:
    """Asymptotic two-sample KS critical value at level alpha = 1e-3."""
    alpha = 1e-3
    return math.sqrt(-math.log(alpha / 2.0) / 2.0 * (n + m) / (n * m))


def _sampler_case(rx_dbm: float | None):
    """10k exact peak draws and 10k FFT-oracle peaks at one received power
    (None: noise only) pass a two-sample KS test at alpha = 1e-3. Noise
    only, 100k more draws also cross the closed-form thresholds of P_fa
    0.01 and 0.1 at those rates, within +/-30 %."""
    n = 10_000
    seq = preamble.generate_zc(1, 839)
    rng = np.random.default_rng(41)
    rx_mw = 0.0 if rx_dbm is None else preamble.dbm_to_mw(rx_dbm)
    exact = preamble.sample_peaks(np.full(n, rx_mw),
                                  preamble.dbm_to_mw(NOISE_DBM), seq.n_zc, rng)
    oracle = fft_peaks(rx_dbm, NOISE_DBM, seq, n, rng)
    d, crit = ks_distance(exact, oracle), ks_critical(n, n)
    assert d < crit, f"KS distance {d:.4f} >= {crit:.4f} at {rx_dbm} dBm"
    if rx_dbm is not None:
        return
    rng = np.random.default_rng(43)
    for p_fa in (0.01, 0.1):
        gamma = preamble.false_alarm_threshold(p_fa, NOISE_DBM, 839)
        peaks = preamble.sample_peaks(np.zeros(100_000),
                                      preamble.dbm_to_mw(NOISE_DBM), 839, rng)
        rate = float(np.mean(peaks > gamma))
        assert abs(rate - p_fa) < 0.30 * p_fa, \
            f"sampler false alarm {rate:.4f} at {p_fa}"


# P_fa target -> (noise-only FFT slots, relative tolerance, seed)
FALSE_ALARM_CASES = {
    0.1: (100_000, 0.30, 17),
    0.01: (100_000, 0.30, 18),
    0.05: (20_000, 0.25, 19),
}


# cached: acceptance criterion 6b reads two of these rates, so a test session
# runs their 100k slots once
@cache
def false_alarm_case(p_fa: float) -> float:
    """Noise-only FFT slots cross the closed-form threshold at the target
    rate, within the case's relative tolerance; returns the measured rate."""
    n, rel, seed = FALSE_ALARM_CASES[p_fa]
    seq = preamble.generate_zc(1, 839)
    gamma = preamble.false_alarm_threshold(p_fa, 0.0, 839)
    peaks = fft_peaks(None, 0.0, seq, n, np.random.default_rng(seed))
    rate = float(np.mean(peaks > gamma))
    assert abs(rate - p_fa) < rel * p_fa, f"false alarm {rate:.4f} at target {p_fa}"
    return rate


# (P_miss target, reference power: a -112 dBm link or the default budget)
# -> (calibration seed, oracle seed)
MISS_CASES = {
    (0.01, -112.0): (23, 29),
    (0.01, -108.7): (24, 30),
    (0.1, -112.0): (25, 31),
}


def _miss_case(p_miss: float, ref_dbm: float):
    """The FFT oracle misses the reference link at the calibrated rate,
    within 4 standard errors of the calibration and oracle samples."""
    cal_seed, oracle_seed = MISS_CASES[(p_miss, ref_dbm)]
    seq = preamble.generate_zc(1, 839)
    n = 20_000  # calibration draws and oracle slots alike
    gamma = preamble.miss_threshold(p_miss, ref_dbm, NOISE_DBM, seq,
                                    trials=n, seed=cal_seed)
    peaks = fft_peaks(ref_dbm, NOISE_DBM, seq, n, np.random.default_rng(oracle_seed))
    rate = float(np.mean(peaks <= gamma))
    tol = 4.0 * math.sqrt(p_miss * (1.0 - p_miss) * 2.0 / n)
    assert abs(rate - p_miss) <= tol, \
        f"oracle miss rate {rate:.4f} at target {p_miss}, {ref_dbm} dBm"


# cyclic subtended angles -> the point that sees them, at D = 200 m
LOCATE_CASES = {
    "symmetric": ((2 * math.pi / 3,) * 3, (D / 2.0, D / (2.0 * math.sqrt(3.0)))),
    "side midpoint": ((math.pi, math.pi / 2, math.pi / 2), (D / 2.0, 0.0)),
    "exterior": ((3 * math.pi / 2, math.pi / 4, math.pi / 4), (D / 2.0, -D / 2.0)),
}


def _locate_case(name: str):
    """The closed-form solve puts the case's angles at its point within 1e-9 m."""
    thetas, expect = LOCATE_CASES[name]
    (p,), (status,) = estimation.locate_points([thetas], [geometry.build_cluster(3, D)])
    assert status == estimation.CLOSED_FORM and math.dist(p, expect) < 1e-9, (name, p)


def _round_trip(where: str):
    """UEs come back from their true angles through the closed form, within
    1e-6 m: 1000 "uniform" ones, or 19 inside each edge ("on edges"), where
    that pair subtends pi."""
    tri, rng = geometry.build_cluster(3, D), np.random.default_rng(31)
    ues = ([tri[i] + f * (tri[(i + 1) % 3] - tri[i])
            for i in range(3) for f in np.linspace(0.05, 0.95, 19)] if where == "on edges"
           else [geometry.place_ue(tri, rng) for _ in range(1000)])
    thetas = [true_angles(tri, ue) for ue in ues]
    points, status = estimation.locate_points(thetas, np.broadcast_to(tri, (len(ues), 3, 2)))
    assert (status == estimation.CLOSED_FORM).all(), np.flatnonzero(status)
    for ue, p in zip(ues, points):
        err = math.dist(p, ue)
        assert err < 1e-6, f"round-trip error {err:.2e} m at {ue}"


def reproduces_angles(p, thetas) -> bool:
    """The base-triangle angles at p match thetas within 1e-9 rad."""
    true = true_angles(geometry.build_cluster(3, D), p)
    return all(abs((a - t + math.pi) % (2 * math.pi) - math.pi) <= 1e-9
               for a, t in zip(true, thetas))


def _check_schedule_arithmetic():
    cells = geometry.build_cluster(3, D)
    ues = np.array([[100.0, 40.0], [60.0, 50.0], [140.0, 90.0]])
    # no noise: the exact peak is N^2 times the received power
    cfg = SimConfig().replace(antenna={"n_tx": 4, "n_rx": 8}, channel={
        "p_ue_dbm": -20.0, "noise_density_dbm_hz": -math.inf})
    ue_cb, sc_cb = cfg.ue_codebook(), cfg.sc_codebook()

    # analytic per-(trial, tx, cell, rx) peak map; one threshold for the
    # batch, just below the weakest trial's best pair
    n_trials, n_tx, n_sc, n_rx = len(ues), 4, 3, 8
    rx_dbm = np.empty((n_trials, n_tx, n_sc, n_rx))
    for k, ue in enumerate(ues):
        for t in range(n_tx):
            for i in range(n_sc):
                for b in range(n_rx):
                    rx_dbm[k, t, i, b] = received_power(
                        cfg.channel.p_ue_dbm, cells[i], ue,
                        ue_beam=float(ue_cb.beam_centers[t]), ue_pattern=ue_cb.pattern,
                        sc_beam=float(sc_cb.beam_centers[b]), sc_pattern=sc_cb.pattern)
    peak = 839.0 ** 2 * 10.0 ** (rx_dbm / 10.0)
    gamma = 0.95 * peak.max(axis=(1, 2, 3)).min()

    # replay the seeded per-cell sweep orders, drawn for the whole batch in
    # one call, to predict each trial's detection slot: earliest round,
    # then slot, then the lowest cell
    rng = np.random.default_rng(9)
    orders = rng.permuted(np.broadcast_to(np.arange(n_rx), (n_trials, n_sc, n_rx)),
                          axis=-1)
    expect = []
    for k in range(n_trials):
        expect.append(next(
            (r * n_tx + t + 1, i, (t, int(orders[k, i, r])))
            for r in range(n_rx) for t in range(n_tx) for i in range(n_sc)
            if peak[k, t, i, orders[k, i, r]] > gamma))

    draw = (np.broadcast_to(cells, (n_trials, n_sc, 2)), ues, None)
    (out,) = protocol.run_batch(cfg, gamma, draw, seed=9, schemes=(protocol.EXHAUSTIVE,))
    for k, (slots, cell, pair) in enumerate(expect):
        assert out.success[k]
        assert out.slots_used[k] == slots, (k, out.slots_used[k], slots)
        assert out.detecting_cell[k] == cell
        assert tuple(out.detecting_pair[k].tolist()) == pair
    assert len({slots for slots, _, _ in expect}) > 1, "every trial detects alike"


def _check_reduction_formula():
    assert abs(protocol.ia_time_reduction(78.0, 100.0) + 22.0) < 1e-12
    assert abs(protocol.ia_time_reduction(82.0, 100.0) + 18.0) < 1e-12
    assert protocol.ia_time_reduction(100.0, 100.0) == 0.0
    _assert_raises(ValueError, protocol.ia_time_reduction, 1.0, 0.0)


# (name, check, cases): each case is an argument tuple of the check
CHECKS = [
    ("antenna pattern closed forms", _pattern_case,
     tuple((deg,) for deg in PATTERN_CASES)),
    ("link budget composition", _check_link_budget, ((),)),
    ("blocking Bernoulli rate", _check_blocking_rate, ((),)),
    ("ZC ideal autocorrelation", zc_autocorrelation, ZC_CASES),
    ("FFT correlator vs brute force", _check_brute_force_pdp, ((),)),
    ("correlation processing gain", _check_processing_gain, ((),)),
    ("false-alarm threshold closed form", false_alarm_case,
     tuple((p_fa,) for p_fa in FALSE_ALARM_CASES)),
    ("miss-mode calibration consistency", _miss_case, tuple(MISS_CASES)),
    ("exact peak sampler vs FFT oracle", _sampler_case,
     tuple((rx_dbm,) for rx_dbm in SAMPLER_GRID_DBM)),
    ("closed-form angle solve", _locate_case, tuple((name,) for name in LOCATE_CASES)),
    ("angle->position round trip", _round_trip, (("uniform",), ("on edges",))),
    ("sweep schedule arithmetic", _check_schedule_arithmetic, ((),)),
    ("IA time reduction formula", _check_reduction_formula, ((),)),
]


def run_selftest(report) -> bool:
    """Run every case of every oracle check, passing one line per check to
    ``report``; a check fails at its first failing case. Returns True when
    all pass."""
    all_ok = True
    for name, check, cases in CHECKS:
        try:
            for case in cases:
                check(*case)
            status = "PASS"
        except Exception:
            status = "FAIL"
            all_ok = False
            traceback.print_exc()
        report(f"[{status}] {name}")
    return all_ok
