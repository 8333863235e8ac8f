"""Acceptance gate: headline reproduction targets and the oracle property
suite, each criterion at its stated tolerance with one printed verdict line.

Criteria 6a and 6b run the cases of the selftest's ZC and false-alarm
oracles; criterion 6c (exact-angle triangulation round trip) is the selftest
check "angle->position round trip" and runs in tests/test_selftest.py.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines live.
"""

import math
import time

import numpy as np

from mmwia.antenna import make_codebook
from mmwia.config import SimConfig
from mmwia.estimation import index_angles, ordered_top3
from mmwia.experiments import (
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
)
from mmwia.geometry import build_cluster, place_ue
from mmwia.protocol import run_batch
from mmwia.selftest import ZC_CASES, false_alarm_case, true_angles, zc_autocorrelation

D = 200.0
SEED = 1


def _verdict(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def _exp(cfg, **kw):
    return cfg.replace(experiment=kw)


def test_criterion_1_p_los_small_blocking():
    """P_blk=0.1, N_sc=12, 1e4 trials: P_LOS >= 0.88 in under a minute."""
    t0 = time.perf_counter()
    cfg = _exp(SimConfig(), p_los_cluster_sizes=(12,), p_los_p_blk=(0.1,))
    table = run_p_los(cfg, 10_000, SEED)
    p_los = table.rows[0][2]
    elapsed = time.perf_counter() - t0
    _verdict(p_los >= 0.88 and elapsed < 60.0,
             "criterion 1: LOS selection at P_blk=0.1, N_sc=12",
             f"P_LOS={p_los:.4f} >= 0.88, {elapsed:.0f}s < 60s")


def test_criterion_2_p_los_heavy_blocking():
    """P_blk=0.5, N_sc=22, 1e4 trials: P_LOS >= 0.65 in under a minute."""
    t0 = time.perf_counter()
    cfg = _exp(SimConfig(), p_los_cluster_sizes=(22,), p_los_p_blk=(0.5,))
    table = run_p_los(cfg, 10_000, SEED)
    p_los = table.rows[0][2]
    elapsed = time.perf_counter() - t0
    _verdict(p_los >= 0.65 and elapsed < 60.0,
             "criterion 2: LOS selection at P_blk=0.5, N_sc=22",
             f"P_LOS={p_los:.4f} >= 0.65, {elapsed:.0f}s < 60s")


def test_criterion_3_reduction_at_one_percent_miss():
    """At target P_miss=0.01 over 2000 paired trials: reductions inside the
    published bands and ordered (4-beam reduction exceeds 8-beam)."""
    t0 = time.perf_counter()
    cfg = _exp(SimConfig(), pmiss_grid=(0.01,), n_tx_values=(4, 8))
    table = run_reduction_vs_pmiss(cfg, 2000, SEED)
    by_ntx = {row[1]: -row[2] for row in table.rows}  # reduction magnitudes
    elapsed = time.perf_counter() - t0
    ok = (12.0 <= by_ntx[4] <= 32.0 and 8.0 <= by_ntx[8] <= 28.0
          and by_ntx[4] > by_ntx[8] and elapsed < 300.0)
    _verdict(ok, "criterion 3: IA-time reduction at P_miss=0.01",
             f"N_tx=4: {by_ntx[4]:.1f}% in [12,32], N_tx=8: {by_ntx[8]:.1f}% "
             f"in [8,28], ordering {by_ntx[4]:.1f} > {by_ntx[8]:.1f}, "
             f"{elapsed:.0f}s < 300s")


def test_criterion_4_power_trend():
    """20 dB power grid: coordinated IA time non-increasing (2 SE slack per
    adjacent pair); reduction magnitude larger at the low end."""
    t0 = time.perf_counter()
    cfg = _exp(SimConfig(), n_tx_values=(8,))
    assert max(cfg.experiment.power_grid_dbm) - min(cfg.experiment.power_grid_dbm) >= 20.0
    table = run_reduction_vs_power(cfg, 1500, SEED)
    rows = sorted(table.rows, key=lambda r: r[0])
    times = [r[4] for r in rows]
    p_er = [r[2] for r in rows]
    ses = [r[3] for r in rows]
    n = rows[0][6]
    # per-point SE of the coordinated mean time approximated via the paired SE
    monotone = all(
        times[i + 1] <= times[i] + 2.0 * (abs(times[i]) * (ses[i] + ses[i + 1]) / 100.0 + 1e-12)
        for i in range(len(times) - 1))
    endpoint = abs(p_er[0]) > abs(p_er[-1])
    elapsed = time.perf_counter() - t0
    _verdict(monotone and endpoint and elapsed < 300.0,
             "criterion 4: IA time trend over a 20 dB power sweep",
             f"coordinated times {['%.2fms' % (t * 1e3) for t in times]} "
             f"non-increasing, |P_er| {abs(p_er[0]):.1f}% > {abs(p_er[-1]):.1f}%, "
             f"{elapsed:.0f}s < 300s")


def test_criterion_5_cluster_size_shape():
    """Normalized IA time: N_sc=3 < 0.8x baseline, non-increasing to N_sc=7."""
    t0 = time.perf_counter()
    cfg = _exp(SimConfig(), cluster_grid=(1, 3, 5, 7))
    table = run_time_vs_cluster(cfg, 1500, SEED)
    rows = {r[0]: r for r in table.rows}
    norm = {n: rows[n][1] for n in (1, 3, 5, 7)}
    se = {n: rows[n][2] for n in (1, 3, 5, 7)}
    shape_ok = norm[3] < 0.8
    monotone = all(
        norm[b] <= norm[a] + 2.0 * math.hypot(se[a], se[b])
        for a, b in ((1, 3), (3, 5), (5, 7)))
    elapsed = time.perf_counter() - t0
    _verdict(shape_ok and monotone and elapsed < 300.0,
             "criterion 5: normalized IA time vs cluster size",
             f"norm(3)={norm[3]:.3f} < 0.8, curve "
             f"{[round(norm[n], 3) for n in (1, 3, 5, 7)]} non-increasing, "
             f"{elapsed:.0f}s < 300s")


# 6a and 6b: each oracle asserts its own bound, so a failing case raises
# with its measured value before the verdict line is printed


def test_criterion_6a_zc_autocorrelation():
    leaks = [zc_autocorrelation(u, n) for u, n in ZC_CASES]
    _verdict(True, "criterion 6a: ZC ideal autocorrelation", "; ".join(
        f"(u={u},N={n}): off/peak={x:.1e}" for (u, n), x in zip(ZC_CASES, leaks)))


def test_criterion_6b_false_alarm_calibration():
    targets = (0.1, 0.01)  # 100k noise-only FFT slots each, +/-30 %
    rates = [false_alarm_case(p_fa) for p_fa in targets]
    _verdict(True, "criterion 6b: noise-only false-alarm rate within +/-30%",
             "; ".join(f"target {p}: measured {r:.4f}" for p, r in zip(targets, rates)))


def test_criterion_6d_quantized_containment():
    """Noiseless LOS measurement: the true UE lies in the area intersection.

    The estimation area of a cell pair is the band of points that see the
    pair at an angle within phi_ml of its estimate, on the far cell's side
    of their chord. A UE inside the base triangle is always on that side,
    so it lies in all three areas when every angle estimate is within
    phi_ml of the true angle.
    """
    from mmwia.protocol import reorder_rx_beams

    triangle = build_cluster(3, D)
    ue_cb = make_codebook(8)
    rng = np.random.default_rng(SEED)
    inside = 0
    trials = 1000
    ues = np.array([place_ue(triangle, rng) for _ in range(trials)])
    peaks = np.zeros((trials, ue_cb.n_beams, 3))
    for t, ue in enumerate(ues):
        # the UE beam nearest the bearing to each cell, lowest index on ties
        best = reorder_rx_beams(ue_cb, triangle, ue[None, None, :])[:, 0, 0]
        peaks[t, best, np.arange(3)] = 1.0
    cells = np.broadcast_to(triangle, (trials, 3, 2))
    top3 = ordered_top3(peaks, cells)
    thetas = index_angles(np.take_along_axis(peaks.argmax(axis=-2), top3, axis=-1),
                          ue_cb.n_beams)
    for ue, order, angles in zip(ues, top3, thetas):
        truth = true_angles(triangle[order], ue)
        if all(abs(t_hat - t) <= ue_cb.pattern.phi_ml
               for t_hat, t in zip(angles, truth)):
            inside += 1
    rate = inside / trials
    _verdict(rate >= 0.99,
             "criterion 6d: true UE inside the 3-area intersection",
             f"containment rate {rate:.3f} >= 0.99")


def test_criterion_6e_paired_dominance():
    """Coordinated never loses on average at alignment-limited power."""
    cfg = SimConfig()
    from mmwia.channel import noise_power
    gamma = cfg.threshold(noise_power(cfg.channel), cfg.sequence(), seed=SEED)
    trials = 2000
    triangle = build_cluster(3, D)
    draw = (np.broadcast_to(triangle, (trials, 3, 2)),
            place_ue(triangle, np.random.SeedSequence((SEED, 60)), trials), None)
    trial_seed = np.random.SeedSequence((SEED, 61))
    exh, coord = (out.slots_used for out in run_batch(cfg, gamma, draw, trial_seed))
    _verdict(coord.mean() <= exh.mean(),
             "criterion 6e: paired-trial dominance at low power",
             f"coordinated {coord.mean():.2f} <= exhaustive {exh.mean():.2f} "
             f"mean slots over 2000 paired seeds")


def test_criterion_6f_byte_identical_reruns():
    cfg = SimConfig()
    runs = [
        (run_p_los,
         _exp(cfg, p_los_cluster_sizes=(4,), p_los_p_blk=(0.2,)), 50),
        (run_reduction_vs_power,
         _exp(cfg, power_grid_dbm=(-14.0, -6.0), n_tx_values=(4,)), 40),
        (run_reduction_vs_pmiss,
         _exp(cfg, pmiss_grid=(0.05,), n_tx_values=(4,)), 40),
        (run_time_vs_cluster,
         _exp(cfg, cluster_grid=(1, 3)), 40),
    ]
    ok = True
    for fn, c, trials in runs:
        a = fn(c, trials, SEED).to_csv()
        b = fn(c, trials, SEED).to_csv()
        ok &= (a == b)
    _verdict(ok, "criterion 6f: byte-identical reruns of every experiment",
             "4/4 experiments reproduce exactly")
