import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia import protocol
from mmwia.antenna import make_codebook
from mmwia.channel import Blocking, link_budget_dbm, sample_blocking
from mmwia.config import SimConfig
from mmwia.estimation import CENTROID, estimate_points
from mmwia.geometry import build_cluster, place_ue
from mmwia.preamble import generate_zc
from mmwia.protocol import (
    COORDINATED,
    EXHAUSTIVE,
    IaOutcomes,
    backhaul_delay_rounds,
    reorder_rx_beams,
    run_batch,
)

D = 200.0
CFG = SimConfig()
SEQ = generate_zc(1, 839)


def _cfg(p_ue=-14.0, n_tx=4, n_rx=8, noiseless=False, **timing) -> SimConfig:
    """The grid point: ``CFG`` at UE power ``p_ue`` and codebook sizes
    ``n_tx``, ``n_rx``, with the ``[protocol]`` fields ``timing``. ``noiseless``
    zeroes the noise power: the peak sampler then returns the exact
    N^2 * power."""
    channel = {"p_ue_dbm": p_ue}
    if noiseless:
        channel["noise_density_dbm_hz"] = -math.inf
    return CFG.replace(antenna={"n_tx": n_tx, "n_rx": n_rx}, channel=channel,
                       protocol=timing)


def _draw(ue=(100.0, 60.0), count=1, blocking=None, n_sc=3):
    """(cells, UEs, blocking) of ``count`` trials on one layout (a stride-0
    view): ``ue`` is one (2,) point for every trial or a (count, 2) array,
    ``blocking`` one trial's states."""
    layout = build_cluster(max(n_sc, 3), D, layout_seed=1)
    cells = np.broadcast_to(layout[:n_sc], (count, n_sc, 2))
    if blocking is not None:
        blocking = Blocking(*(np.tile(field, (count, 1)) for field in blocking))
    return cells, np.broadcast_to(np.asarray(ue, dtype=float), (count, 2)), blocking


def _run(scheme: str, cfg: SimConfig, gamma: float, draw, seed) -> IaOutcomes:
    """``scheme``'s outcomes of ``draw`` at ``cfg`` and ``gamma``, run alone."""
    (out,) = run_batch(cfg, gamma, draw, seed, (scheme,))
    return out


def _assert_rows_equal(a: IaOutcomes, b: IaOutcomes, rows=slice(None)):
    """Outcomes ``a`` at ``rows`` equal all of ``b``, field by field; NaN,
    the estimate of a trial that made none, equals NaN."""
    assert a.scheme == b.scheme
    for name in IaOutcomes._fields[1:]:
        np.testing.assert_array_equal(getattr(a, name)[rows], getattr(b, name),
                                      err_msg=name, strict=True)


def _alone(draw, t: int):
    """Trial ``t`` of ``draw`` as a draw of one."""
    cells, ue, blocking = draw
    if blocking is not None:
        blocking = Blocking(*(field[t:t + 1] for field in blocking))
    return cells[t:t + 1], ue[t:t + 1], blocking


def test_reorder_boresight_first_antipodal_last():
    cb = make_codebook(8)
    cells = np.array([[[0.0, 0.0], [200.0, 0.0]]])
    target = [(100.0, 0.0)]  # bearing 0 from cell 0, pi from cell 1
    order = reorder_rx_beams(cb, target, cells)
    assert order.shape == (1, 8, 2)
    assert order[0, 0].tolist() == [0, 4]  # boresight beams first
    assert order[0, -1].tolist() == [4, 0]  # the antipodal beams last


def test_reorder_rejects_estimate_on_a_cell():
    cells = build_cluster(3, D, count=3)
    estimates = [(100.0, 50.0), (0.0, 0.0), (60.0, 30.0)]  # trial 1 on a cell
    with pytest.raises(ValueError):
        reorder_rx_beams(make_codebook(8), estimates, cells)
    with pytest.raises(ValueError):
        reorder_rx_beams(make_codebook(8), estimates[1:2], cells[1:2])


def test_reorder_batch_equals_per_trial_calls():
    """A batch of estimates and clusters gives, trial by trial, the sweeps
    of that trial's own call."""
    rng = np.random.default_rng(3)
    cells = build_cluster(6, D, rng, count=50)
    estimates = place_ue(cells, rng, count=50)
    estimates[:5] = np.round(estimates[:5], -1)  # bearings on beam boundaries
    cb = make_codebook(8)
    order = reorder_rx_beams(cb, estimates, cells)
    assert order.shape == (50, 8, 6)
    for t in range(50):
        one = reorder_rx_beams(cb, estimates[t:t + 1], cells[t:t + 1])
        assert np.array_equal(order[t], one[0])


def test_reorder_reads_only_each_rows_own_cells():
    """With ``n_cells`` a row's first n columns are the sweeps of its own
    n-cell cluster, and only those cells must lie off its estimate: an
    estimate on a cell past them is no error."""
    rng = np.random.default_rng(5)
    cells = build_cluster(6, D, rng, count=4)
    estimates = place_ue(cells, rng, count=4)
    estimates[1] = cells[1, 4]  # on a cell past its row's three
    n_cells = np.array([6, 3, 4, 5])
    cb = make_codebook(8)
    order = reorder_rx_beams(cb, estimates, cells, n_cells)
    for t, n in enumerate(n_cells):
        one = reorder_rx_beams(cb, estimates[t:t + 1], cells[t:t + 1, :n])
        np.testing.assert_array_equal(order[t, :, :n], one[0])
    n_cells[1] = 5
    with pytest.raises(ValueError, match="estimate on it"):
        reorder_rx_beams(cb, estimates, cells, n_cells)


@given(st.integers(min_value=1, max_value=24),
       st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0))
@settings(deadline=None)
def test_reorder_is_permutation(n, x, y):
    if abs(x) < 1e-6 and abs(y) < 1e-6:
        return
    cb = make_codebook(n)
    order = reorder_rx_beams(cb, [(x, y)], np.zeros((1, 1, 2)))
    assert sorted(order[0, :, 0]) == list(range(n))


def test_batch_needs_a_trial_axis():
    cells, ue, _ = _draw()
    for draw in ((cells[0], ue, None), (cells, ue[0], None)):
        with pytest.raises(ValueError, match="batch"):
            run_batch(_cfg(), 1e-5, draw, 0)


def test_a_broadcast_cluster_runs_as_its_copy():
    """Cells that are a stride-0 view of one layout give, under either
    scheme, the outcomes of the same batch on a C-contiguous copy."""
    ues = place_ue(build_cluster(5, D, layout_seed=1), np.random.default_rng(4), count=40)
    cfg = _cfg(p_ue=-25.0)
    view = _draw(n_sc=5, count=40, ue=ues,
                 blocking=sample_blocking(5, 0.5, 2, excess_mean_db=10.0))
    copy = (np.ascontiguousarray(view[0]), *view[1:])
    assert view[0].strides[0] == 0 and copy[0].flags.c_contiguous
    for scheme in (EXHAUSTIVE, COORDINATED):
        out = _run(scheme, cfg, 1e-5, view, 6)
        _assert_rows_equal(out, _run(scheme, cfg, 1e-5, copy, 6))
    estimated = ~np.isnan(out.estimated_ue[:, 0])
    assert estimated.any() and out.success.any() and not out.success.all()


def test_exhaustive_worst_case_full_sweep():
    cfg = _cfg(noiseless=True)
    out = _run(EXHAUSTIVE, cfg, 1e12, _draw(), 0)  # nothing can clear this
    assert not out.success[0]
    assert out.slots_used[0] == 4 * 8
    assert out.detecting_cell[0] == -1


def test_exhaustive_huge_power_detects_first_slot():
    # side lobes alone clear the budget
    out = _run(EXHAUSTIVE, _cfg(p_ue=80.0), 1e-5, _draw(), 0)
    assert out.success[0] and out.slots_used[0] == 1 and out.rounds[0] == 1


def test_single_cell_cluster_supported():
    out = _run(EXHAUSTIVE, _cfg(p_ue=80.0), 1e-5, _draw(n_sc=1), 3)
    assert out.success[0] and out.detecting_cell[0] == 0
    with pytest.raises(ValueError):
        _run(COORDINATED, _cfg(), 1e-5, _draw(n_sc=1), 3)


def test_outcome_deterministic_per_seed():
    cfg, draw = _cfg(), _draw(count=20)
    for scheme in (EXHAUSTIVE, COORDINATED):
        _assert_rows_equal(_run(scheme, cfg, 1e-5, draw, 123),
                           _run(scheme, cfg, 1e-5, draw, 123))


def test_round1_shared_between_schemes():
    """With one seed, a round-1 detection is identical for both schemes,
    trial by trial."""
    cfg, draw = _cfg(p_ue=-8.0), _draw(count=40)
    exh = _run(EXHAUSTIVE, cfg, 1e-5, draw, 0)
    coord = _run(COORDINATED, cfg, 1e-5, draw, 0)
    hits = (exh.rounds == 1) | (coord.rounds == 1)
    assert (exh.rounds[hits] == 1).all() and (coord.rounds[hits] == 1).all()
    for name in ("slots_used", "detecting_cell", "detecting_pair"):
        np.testing.assert_array_equal(getattr(exh, name)[hits], getattr(coord, name)[hits])
    # the power level must make round-1 hits possible
    assert 0 < np.count_nonzero(hits) < 40


def test_coordinated_hard_slot_bound():
    # mostly undetectable -> worst case paths
    cfg, draw = _cfg(p_ue=-40.0), _draw(count=30)
    assert _run(COORDINATED, cfg, 1e-5, draw, 0).slots_used.max() <= 4 * 8 + 4
    assert _run(EXHAUSTIVE, cfg, 1e-5, draw, 0).slots_used.max() <= 4 * 8


def test_coordinated_detects_by_round_two_when_estimate_good():
    """LOS centroid placement at moderate power: round 2 wraps it up."""
    gamma = CFG.threshold(-110.67, SEQ, 1)
    draw = _draw(ue=build_cluster(3, D, layout_seed=1).mean(axis=0), count=25)
    out = _run(COORDINATED, _cfg(p_ue=-14.0), gamma, draw, 0)
    assert np.count_nonzero(out.success & (out.rounds <= 2)) >= 20


def test_estimation_failure_falls_back_and_completes():
    # a single UE Tx beam makes every index pair equal -> angles unresolvable
    out = _run(COORDINATED, _cfg(n_tx=1, p_ue=-14.0), 1e-8, _draw(), 5)
    assert out.slots_used[0] <= 1 * (8 + 1)
    assert np.isnan(out.estimated_ue[0]).all()


@pytest.mark.parametrize("n_sc", [5, 9])
def test_larger_clusters_take_the_point_estimate(monkeypatch, n_sc):
    """Beyond three cells a trial's estimate is the point that
    estimate_points returns on its round-1 peaks, as at three cells, in
    one call for every trial without a round-1 hit."""
    calls = []

    def recording(peaks, cells):
        calls.append((peaks.shape, cells.shape, *estimate_points(peaks, cells)))
        return calls[-1][2:]

    monkeypatch.setattr(protocol, "estimate_points", recording)
    # no detection: every trial estimates
    out = _run(COORDINATED, _cfg(), 1e12, _draw(n_sc=n_sc, count=50), 0)
    ((peaks_shape, cells_shape, points, status),) = calls
    assert peaks_shape == (50, 4, n_sc) and cells_shape == (50, n_sc, 2)
    assert (status <= CENTROID).any()
    np.testing.assert_array_equal(out.estimated_ue, points)


def test_blocked_links_degrade_but_stay_bounded():
    draw = _draw(blocking=sample_blocking(3, 1.0, 2, excess_mean_db=10.0))
    assert _run(COORDINATED, _cfg(), 1e-5, draw, 7).slots_used[0] <= 4 * 8 + 4


def test_blocking_needs_one_state_per_cell():
    draw = _draw(blocking=sample_blocking(4, 0.5, 2, excess_mean_db=10.0))
    with pytest.raises(ValueError, match="per cell"):
        run_batch(_cfg(), 1e-5, draw, 0)


def test_backhaul_latency_defers_reordering(monkeypatch):
    """With a backhaul latency of k rounds every trial's coordinated schedule
    keeps its original Rx order (wrapping past the round-1 beam) through
    row k, and a located trial sweeps towards its estimate from row 1 + k;
    at 9 rounds the reordering never lands. No trial detects, so every
    trial sweeps every round."""
    schedules, original = {}, protocol._outcomes

    def spy(scheme, schedule, hit, estimates, *rest):
        schedules[scheme] = schedule, estimates
        return original(scheme, schedule, hit, estimates, *rest)

    monkeypatch.setattr(protocol, "_outcomes", spy)
    cells = build_cluster(3, D)
    draw = _draw(ue=place_ue(cells, 2, count=64), count=64)
    for rounds in (2, 9):
        cfg = _cfg(backhaul_latency_s=rounds * 4 * CFG.protocol.t_ra_s)
        run_batch(cfg, math.inf, draw, 5)
        orders, _ = schedules[EXHAUSTIVE]
        coordinated, estimates = schedules[COORDINATED]
        walked = orders[:, [*range(8), 0]]
        located = ~np.isnan(estimates[:, 0])
        assert located.sum() > 32
        np.testing.assert_array_equal(coordinated[:, :1 + rounds], walked[:, :1 + rounds])
        np.testing.assert_array_equal(coordinated[~located], walked[~located])
        reordered = reorder_rx_beams(cfg.sc_codebook(), estimates[located], draw[0][located])
        np.testing.assert_array_equal(coordinated[located, 1 + rounds:],
                                      reordered[:, :max(0, 8 - rounds)])


def test_backhaul_bus_rounds():
    assert backhaul_delay_rounds(0.0, 0.004) == 0
    assert backhaul_delay_rounds(0.004, 0.004) == 1
    assert backhaul_delay_rounds(0.0041, 0.004) == 2
    # a latency of exactly k rounds whose quotient lands above k is k rounds
    for latency, n_tx, rounds in ((0.035, 5, 7), (0.07, 10, 7), (0.099, 11, 9)):
        round_s = n_tx * CFG.protocol.t_ra_s
        assert latency / round_s > rounds
        assert backhaul_delay_rounds(latency, round_s) == rounds
        # one part per million more is one round more
        assert backhaul_delay_rounds(latency * (1 + 1e-6), round_s) == rounds + 1


def _noiseless_peaks(cfg, draw):
    """(n_tx, n_sc) exact peaks of the first trial of ``draw`` at a
    one-Rx-beam ``cfg``, by the sweep's own arithmetic; every round sees
    this map."""
    cells, ue, _ = draw
    base, rx_gain = link_budget_dbm(cells[0], ue[0], None, cfg.ue_codebook(),
                                    cfg.sc_codebook(), cfg.channel.p_ue_dbm)
    return 10.0 ** ((base + rx_gain[0][None, :]) / 10.0) * 839.0 ** 2


def test_detect_strict_inequality():
    """A peak equal to the threshold is not a detection; just below it, the
    noiseless trial detects at the slot and cell of the largest peak."""
    cfg, draw = _cfg(p_ue=-20.0, n_rx=1, noiseless=True), _draw()
    peaks = _noiseless_peaks(cfg, draw)
    slot, cell = np.unravel_index(np.argmax(peaks), peaks.shape)
    assert np.sum(peaks == peaks.max()) == 1

    at_peak = _run(EXHAUSTIVE, cfg, float(peaks.max()), draw, 0)
    assert not at_peak.success[0] and at_peak.slots_used[0] == 4
    below = _run(EXHAUSTIVE, cfg, float(np.nextafter(peaks.max(), 0.0)), draw, 0)
    assert below.success[0] and below.slots_used[0] == slot + 1
    assert below.detecting_cell[0] == cell and below.detecting_pair[0].tolist() == [slot, 0]


@pytest.mark.parametrize("ue,gamma,slot0", [
    # only cell 1 clears at slot 0
    ((100.0, 60.0), 2e-7, [False, True, False]),
    # cells 1 and 2 both clear at slot 0, cell 2 with the larger peak
    ((100.0, 100.0), 1e-7, [False, True, True]),
], ids=["earlier-higher-cell", "same-slot"])
def test_sweep_takes_earliest_slot_then_lowest_cell(ue, gamma, slot0):
    """The first hit is the earliest slot, then the lowest cell within it,
    although cell 0 clears the threshold at a later slot."""
    cfg, draw = _cfg(p_ue=-20.0, n_rx=1, noiseless=True), _draw(ue=ue)
    hits = _noiseless_peaks(cfg, draw) > gamma
    assert hits[0].tolist() == slot0 and hits[1:, 0].any()
    for scheme in (EXHAUSTIVE, COORDINATED):
        out = _run(scheme, cfg, gamma, draw, 0)
        assert out.success[0] and out.rounds[0] == 1
        assert (out.slots_used[0], out.detecting_cell[0]) == (1, 1)


def test_batch_equals_each_trial_run_alone(monkeypatch):
    """In a noiseless chunk every trial gets the slots, cell, pair and
    estimate it gets run alone on the Rx orders the chunk drew for it. The
    chunk holds round-1 hits, later-round hits and censored trials."""
    rng = np.random.default_rng(8)
    ues = place_ue(build_cluster(3, D, layout_seed=1), rng, count=24)
    blocking = sample_blocking(3, 0.0, rng, excess_mean_db=10.0, count=24)
    penalty = blocking.penalty_db.copy()
    penalty[::5] = 60.0  # every fifth trial too weak to detect
    blocking = blocking._replace(penalty_db=penalty)
    cfg = _cfg(p_ue=-20.0, noiseless=True)
    cells, ue, _ = _draw(count=24, ue=ues)
    chunk = cells, ue, blocking

    drawn = []
    rx_orders = protocol._rx_orders

    def recording(*args):
        drawn.append(rx_orders(*args))
        return drawn[-1]

    for scheme in (EXHAUSTIVE, COORDINATED):
        monkeypatch.setattr(protocol, "_rx_orders", recording)
        drawn.clear()
        whole = _run(scheme, cfg, 2e-7, chunk, 4)
        (orders,) = drawn
        assert set(whole.rounds[whole.success]) > {1} and not whole.success.all()
        for t in range(24):
            monkeypatch.setattr(protocol, "_rx_orders", lambda *args: orders[t:t + 1])
            _assert_rows_equal(whole, _run(scheme, cfg, 2e-7, _alone(chunk, t), 4),
                               slice(t, t + 1))


def test_each_scheme_runs_alike_alone_paired_or_reversed():
    """Each scheme's outcomes are equal, field for field, whether it runs
    alone, paired, or paired in reverse order under the same seed. The
    noisy chunk holds round-1 hits, later-round hits and censored trials
    under both schemes, blocked links, and reorderings that land two
    rounds late."""
    count, n_sc = 64, 5
    rng = np.random.default_rng(12)
    ues = place_ue(build_cluster(n_sc, D, layout_seed=1), rng, count=count)
    blocking = sample_blocking(n_sc, 0.3, rng, excess_mean_db=10.0, count=count)
    penalty = blocking.penalty_db.copy()
    penalty[::8] = 60.0  # every eighth trial too weak to detect
    blocking = blocking._replace(penalty_db=penalty)
    round_s = 4 * CFG.protocol.t_ra_s
    cfg = _cfg(p_ue=-25.0, backhaul_latency_s=1.5 * round_s)
    cells, ue, _ = _draw(n_sc=n_sc, count=count, ue=ues)
    chunk = cells, ue, blocking
    assert backhaul_delay_rounds(cfg.protocol.backhaul_latency_s, round_s) == 2
    assert blocking.blocked.any()

    alone = {scheme: _run(scheme, cfg, 1e-5, chunk, 9)
             for scheme in (EXHAUSTIVE, COORDINATED)}
    for schemes in ((EXHAUSTIVE, COORDINATED), (COORDINATED, EXHAUSTIVE)):
        outs = run_batch(cfg, 1e-5, chunk, 9, schemes)
        assert tuple(out.scheme for out in outs) == schemes
        for out in outs:
            _assert_rows_equal(out, alone[out.scheme])
    for out in alone.values():
        assert {1} < set(out.rounds[out.success]) and not out.success.all()
    coord = alone[COORDINATED]
    assert (coord.rounds[coord.success & ~np.isnan(coord.estimated_ue[:, 0])] > 3).any()


@pytest.mark.parametrize("rounds", [0, 2])
def test_one_call_over_sizes_equals_one_call_per_size(rounds):
    """One coordinated ``later_rounds`` call over sizes 3, 4 and 9 of one
    9-cell round one gives each size, field by field, the outcomes of its
    own call on its first n cells (``first_cells``) under the same
    generator seed. The chunk has blocked links, located trials whose
    strongest cell lies past a smaller size, and reorderings that land at
    once or ``rounds`` rounds late."""
    count, sizes, gamma = 200, (3, 4, 9), 1e-5
    rng = np.random.default_rng(21)
    cells = build_cluster(9, D, rng, count=count)
    draw = (cells, place_ue(cells, rng, count=count),
            sample_blocking(9, 0.3, rng, excess_mean_db=10.0, count=count))
    round_s = 4 * CFG.protocol.t_ra_s
    cfg = _cfg(p_ue=-25.0, backhaul_latency_s=rounds * round_s)
    assert backhaul_delay_rounds(cfg.protocol.backhaul_latency_s, round_s) == rounds
    points = [cfg.replace(geometry={"n_sc": n}) for n in sizes]
    first = protocol.round_one(points[-1], draw, np.random.default_rng(4))
    together = protocol.later_rounds(
        [(c, np.random.default_rng(n)) for c, n in zip(points, sizes)], gamma, first,
        COORDINATED)
    assert len(together) == len(sizes)
    for c, n, out in zip(points, sizes, together):
        (alone,) = protocol.later_rounds([(c, np.random.default_rng(n))], gamma,
                                         first.first_cells(n), COORDINATED)
        _assert_rows_equal(out, alone)
        located = ~np.isnan(out.estimated_ue[:, 0])
        assert (out.success & located & (out.rounds > 2 + rounds)).any()
        if n < 9:
            missed = out.rounds > 1
            strongest = first.peaks[missed].max(axis=-2).argmax(axis=-1)
            assert (strongest >= n).any()


def test_an_unknown_scheme_is_refused():
    with pytest.raises(ValueError, match="scheme"):
        run_batch(_cfg(), 1e-5, _draw(), 0, (EXHAUSTIVE, "random"))


def test_a_shorter_slot_sets_ia_time_and_backhaul_delay(monkeypatch):
    """At ``[protocol] t_ra_s`` 0.5 ms an IA time is its slot count times
    0.5 ms, and the coordinated reordering lands
    ``backhaul_delay_rounds(latency, n_tx * 0.5 ms)`` rounds after round
    one: both read from the config that ``run_batch`` gets. The latency of
    3 ms is two 2 ms rounds, where at the default 1 ms slot it is one."""
    t_ra, latency, count, n_sc = 5e-4, 3e-3, 64, 5
    delay = backhaul_delay_rounds(latency, 4 * t_ra)
    assert delay == 2 and backhaul_delay_rounds(latency, 4 * CFG.protocol.t_ra_s) == 1
    cfg = _cfg(p_ue=-25.0, t_ra_s=t_ra, backhaul_latency_s=latency)
    ues = place_ue(build_cluster(n_sc, D, layout_seed=1), np.random.default_rng(12),
                   count=count)
    draw = _draw(n_sc=n_sc, count=count, ue=ues)

    drawn, rx_orders, reorder = {}, protocol._rx_orders, protocol.reorder_rx_beams

    def recording(name, fn):
        def record(*args):
            drawn[name] = fn(*args)
            return drawn[name]
        return record

    monkeypatch.setattr(protocol, "_rx_orders", recording("orders", rx_orders))
    monkeypatch.setattr(protocol, "reorder_rx_beams", recording("reordered", reorder))
    exh, coord = run_batch(cfg, 1e-5, draw, 9)
    for out in (exh, coord):
        np.testing.assert_array_equal(out.ia_time_s, out.slots_used * t_ra)
        assert out.success.any() and not out.success.all()

    # the Rx beam of each hit of a located trial (round one missed it): its
    # original order up to round 1 + delay, its reordered sweep from then on
    located = np.flatnonzero(~np.isnan(coord.estimated_ue[:, 0]))
    original = reordered = 0
    for j, t in enumerate(located):
        r, cell = coord.rounds[t] - 1, coord.detecting_cell[t]
        if not coord.success[t]:
            continue
        if r <= delay:
            beam, original = drawn["orders"][t, cell, r], original + 1
        else:
            beam, reordered = drawn["reordered"][j, r - 1 - delay, cell], reordered + 1
        assert coord.detecting_pair[t, 1] == beam, (t, r)
    assert original and reordered, (original, reordered)
