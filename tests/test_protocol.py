import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia import protocol
from mmwia.antenna import make_codebook
from mmwia.channel import link_budget_dbm, sample_blocking
from mmwia.config import SimConfig
from mmwia.estimation import estimate_point
from mmwia.geometry import ClusterGeometry, build_cluster
from mmwia.preamble import generate_zc
from mmwia.protocol import (
    TrialSetup,
    backhaul_delay_rounds,
    reorder_rx_beams,
    run_coordinated,
    run_exhaustive,
)

D = 200.0
CFG = SimConfig()
SEQ = generate_zc(1, 839)


def _setup(p_ue=-14.0, gamma=1e-5, n_tx=4, n_rx=8, ue=(100.0, 60.0),
           noiseless=False, blocking=None, n_sc=3, latency=0.0):
    geom = build_cluster(n_sc if n_sc >= 3 else 3, D, layout_seed=1)
    if n_sc < 3:
        geom = ClusterGeometry(geom.cells[:n_sc])
    params = CFG.link_params(p_ue)
    if noiseless:
        # zero noise power: the peak sampler returns the exact N^2 * power
        params = replace(params, noise_density_dbm_hz=-math.inf)
    return TrialSetup(
        geom=geom,
        ue=np.asarray(ue, dtype=float),
        ue_codebook=make_codebook(n_tx),
        sc_codebook=make_codebook(n_rx),
        link_params=params,
        n_zc=839,
        gamma_ra=gamma,
        blocking=blocking,
        backhaul_latency_s=latency,
    )


def test_reorder_boresight_first_antipodal_last():
    cb = make_codebook(8)
    cells = np.array([[0.0, 0.0], [200.0, 0.0]])
    target = (100.0, 0.0)  # bearing 0 from cell 0, pi from cell 1
    order = reorder_rx_beams(cb, target, cells)
    assert order.shape == (8, 2)
    assert order[0].tolist() == [0, 4]  # boresight beams first
    assert order[-1].tolist() == [4, 0]  # the antipodal beams last


def test_reorder_rejects_estimate_on_a_cell():
    with pytest.raises(ValueError):
        reorder_rx_beams(make_codebook(8), (0.0, 0.0), build_cluster(3, D).cells)


@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0))
@settings(deadline=None)
def test_reorder_is_permutation(n, x, y):
    if abs(x) < 1e-6 and abs(y) < 1e-6:
        return
    cb = make_codebook(n)
    order = reorder_rx_beams(cb, (x, y), np.zeros((1, 2)))
    assert sorted(order[:, 0]) == list(range(n))


def test_exhaustive_worst_case_full_sweep():
    setup = _setup(gamma=1e12, noiseless=True)  # nothing can clear this
    out = run_exhaustive(setup, seed=0)
    assert not out.success
    assert out.slots_used == 4 * 8
    assert out.ia_time_s == pytest.approx(out.slots_used * setup.t_ra_s)
    assert out.detecting_cell is None


def test_exhaustive_huge_power_detects_first_slot():
    setup = _setup(p_ue=80.0, gamma=1e-5)  # side lobes alone clear the budget
    out = run_exhaustive(setup, seed=0)
    assert out.success and out.slots_used == 1 and out.rounds == 1


def test_single_cell_cluster_supported():
    setup = _setup(n_sc=1, p_ue=80.0)
    out = run_exhaustive(setup, seed=3)
    assert out.success and out.detecting_cell == 0
    with pytest.raises(ValueError):
        run_coordinated(_setup(n_sc=1), seed=3)


def test_outcome_deterministic_per_seed():
    setup = _setup()
    for runner in (run_exhaustive, run_coordinated):
        a = runner(setup, seed=123)
        b = runner(setup, seed=123)
        assert a == b


def test_round1_shared_between_schemes():
    """With one seed, a round-1 detection is identical for both schemes."""
    setup = _setup(p_ue=-8.0)
    hits = 0
    for seed in range(40):
        e = run_exhaustive(setup, seed=seed)
        c = run_coordinated(setup, seed=seed)
        if e.rounds == 1 or c.rounds == 1:
            hits += 1
            assert e.rounds == 1 and c.rounds == 1
            assert e.slots_used == c.slots_used
            assert e.detecting_cell == c.detecting_cell
            assert e.detecting_pair == c.detecting_pair
    assert hits > 0  # the power level must make round-1 hits possible


def test_coordinated_hard_slot_bound():
    for seed in range(30):
        setup = _setup(p_ue=-40.0)  # mostly undetectable -> worst case paths
        out = run_coordinated(setup, seed=seed)
        assert out.slots_used <= 4 * 8 + 4
        e = run_exhaustive(setup, seed=seed)
        assert e.slots_used <= 4 * 8


def test_coordinated_detects_by_round_two_when_estimate_good():
    """LOS centroid placement at moderate power: round 2 wraps it up."""
    geom = build_cluster(3, D, layout_seed=1)
    gamma = CFG.threshold(-110.67, SEQ, seed=1)
    setup = _setup(ue=geom.triangle().mean(axis=0), p_ue=-14.0, gamma=gamma)
    wins = 0
    for seed in range(25):
        out = run_coordinated(setup, seed=seed)
        if out.success and out.rounds <= 2:
            wins += 1
    assert wins >= 20


def test_estimation_failure_falls_back_and_completes():
    # a single UE Tx beam makes every index pair equal -> angles unresolvable
    setup = _setup(n_tx=1, p_ue=-14.0, gamma=1e-8)
    out = run_coordinated(setup, seed=5)
    assert out.slots_used <= 1 * (8 + 1)
    assert out.estimated_ue is None


@pytest.mark.parametrize("n_sc", [5, 9])
def test_larger_clusters_take_the_point_estimate(monkeypatch, n_sc):
    """Beyond three cells the trial's estimate is the point that
    estimate_point returns on the round-1 peaks, as at three cells."""
    calls = []

    def recording(peaks, geom):
        out = estimate_point(peaks, geom)
        calls.append((peaks.shape, out[0]))
        return out

    monkeypatch.setattr(protocol, "estimate_point", recording)
    setup = _setup(n_sc=n_sc, gamma=1e12)  # no detection: every trial estimates
    for seed in range(50):
        calls.clear()
        out = run_coordinated(setup, seed=seed)
        if out.estimated_ue is not None:
            break
    assert out.estimated_ue is not None
    [(shape, point)] = calls
    assert shape == (4, n_sc)
    assert out.estimated_ue == (float(point[0]), float(point[1]))


def test_blocked_links_degrade_but_stay_bounded():
    setup = _setup(blocking=sample_blocking(3, 1.0, seed=2, excess_mean_db=10.0))
    out = run_coordinated(setup, seed=7)
    assert out.slots_used <= 4 * 8 + 4


def test_blocking_needs_one_state_per_cell():
    with pytest.raises(ValueError, match="per cell"):
        _setup(blocking=sample_blocking(4, 0.5, seed=2, excess_mean_db=10.0))


def test_backhaul_latency_defers_reordering():
    slow = _setup(latency=1.0)  # far beyond one round: reordering never lands
    fast = _setup(latency=0.0)
    slow_out = run_coordinated(slow, seed=11)
    fast_out = run_coordinated(fast, seed=11)
    assert slow_out.slots_used <= 4 * 8 + 4
    assert fast_out.slots_used <= slow_out.slots_used + 4 * 8  # sanity only


def test_backhaul_bus_rounds():
    assert backhaul_delay_rounds(0.0, 0.004) == 0
    assert backhaul_delay_rounds(0.004, 0.004) == 1
    assert backhaul_delay_rounds(0.0041, 0.004) == 2


def _noiseless_peaks(setup):
    """(n_tx, n_sc) exact peaks of a one-Rx-beam setup, by the sweep's own
    arithmetic; every round sees this map."""
    base, rx_gain = link_budget_dbm(setup.geom, setup.ue, setup.blocking,
                                    setup.ue_codebook, setup.sc_codebook,
                                    setup.link_params.p_ue_dbm)
    return 10.0 ** ((base + rx_gain[0][None, :]) / 10.0) * 839.0 ** 2


def test_detect_strict_inequality():
    """A peak equal to the threshold is not a detection; just below it, the
    noiseless trial detects at the slot and cell of the largest peak."""
    setup = _setup(p_ue=-20.0, n_rx=1, noiseless=True)
    peaks = _noiseless_peaks(setup)
    slot, cell = np.unravel_index(np.argmax(peaks), peaks.shape)
    assert np.sum(peaks == peaks.max()) == 1

    at_peak = run_exhaustive(replace(setup, gamma_ra=float(peaks.max())), seed=0)
    assert not at_peak.success and at_peak.slots_used == 4
    below = run_exhaustive(
        replace(setup, gamma_ra=float(np.nextafter(peaks.max(), 0.0))), seed=0)
    assert below.success and below.slots_used == slot + 1
    assert below.detecting_cell == cell and below.detecting_pair == (slot, 0)


@pytest.mark.parametrize("ue,gamma,slot0", [
    # only cell 1 clears at slot 0
    ((100.0, 60.0), 2e-7, [False, True, False]),
    # cells 1 and 2 both clear at slot 0, cell 2 with the larger peak
    ((100.0, 100.0), 1e-7, [False, True, True]),
], ids=["earlier-higher-cell", "same-slot"])
def test_sweep_takes_earliest_slot_then_lowest_cell(ue, gamma, slot0):
    """The first hit is the earliest slot, then the lowest cell within it,
    although cell 0 clears the threshold at a later slot."""
    setup = _setup(p_ue=-20.0, n_rx=1, noiseless=True, ue=ue, gamma=gamma)
    hits = _noiseless_peaks(setup) > gamma
    assert hits[0].tolist() == slot0 and hits[1:, 0].any()
    for runner in (run_exhaustive, run_coordinated):
        out = runner(setup, seed=0)
        assert out.success and out.rounds == 1
        assert (out.slots_used, out.detecting_cell) == (1, 1)


def test_outcome_invariants():
    setup = _setup(p_ue=80.0)
    out = run_exhaustive(setup, seed=1)
    assert out.ia_time_s == pytest.approx(out.slots_used * setup.t_ra_s)
    assert out.success
    assert out.detecting_pair is not None and out.detecting_cell is not None
