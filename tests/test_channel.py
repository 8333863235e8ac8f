import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwia.antenna import make_codebook, make_pattern
from mmwia.channel import (
    Blocking,
    NLOS_FLOOR_DB,
    _nearest_beam_gain,
    _paths,
    best_pair_dbm,
    link_budget_dbm,
    noise_power,
    pathloss,
    sample_blocking,
)
from mmwia.config import ChannelConfig
from mmwia.geometry import TWO_PI, build_cluster, circular_distance, place_ue
from mmwia.selftest import link_bearings, received_power

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


def _channel(bandwidth_hz):
    return ChannelConfig(noise_density_dbm_hz=-171.0, bandwidth_hz=bandwidth_hz)


def test_noise_power_values():
    assert noise_power(_channel(1.08e6)) == pytest.approx(-110.666, abs=1e-3)
    assert noise_power(_channel(1.0)) == pytest.approx(-171.0)
    one = noise_power(_channel(5e5))
    two = noise_power(_channel(1e6))
    assert two - one == pytest.approx(10.0 * math.log10(2.0))


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan])
def test_noise_power_needs_a_positive_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        noise_power(_channel(bandwidth))


CELL0 = (0.0, 0.0)
WEST_UE = (-D, 0.0)  # 200 m due west of cell 0


def _west_link_tensor():
    """The program's link budget from a UE 200 m due west of cell 0, with
    45 deg beams at both ends: the (n_tx,) powers at cell 0 under its Rx beam
    that points back west, and the codebook."""
    cb = make_codebook(8)  # beam t centred at t * 45 deg
    base, rx_gain = link_budget_dbm(np.array([CELL0]), np.array(WEST_UE),
                                    None, cb, cb, 23.0)
    return base[:, 0] + rx_gain[4, 0], cb


def test_received_power_aligned_composition():
    """The aligned LOS link is P_UE + 2 g0 - PL(200 m), about -61.70 dBm."""
    powers, cb = _west_link_tensor()
    expect = 23.0 + 2.0 * cb.pattern.g0 - pathloss(D)
    assert powers[0] == pytest.approx(expect, abs=1e-9)
    assert powers[0] == pytest.approx(-61.70, abs=0.02)
    assert int(np.argmax(powers)) == 0


def test_received_power_back_lobe_drop():
    """Turning the UE beam around costs exactly g0 - g_sl, about 24.65 dB."""
    powers, cb = _west_link_tensor()
    drop = cb.pattern.g0 - cb.pattern.g_sl
    assert powers[0] - powers[4] == pytest.approx(drop, abs=1e-9)
    assert drop == pytest.approx(24.65, abs=0.02)


def test_blocked_link_below_aligned_los():
    """Best-case blocked reception sits >= 1.55 dB under best-case LOS."""
    pat = make_pattern(math.radians(45.0))
    rng = np.random.default_rng(0)
    for _ in range(25):
        reflector = rng.uniform(0, 2 * math.pi)
        penalty = NLOS_FLOOR_DB + rng.exponential(5.0)
        depart, arrive = link_bearings(CELL0, WEST_UE, reflector)
        blocked_best = received_power(23.0, CELL0, WEST_UE, depart, pat,
                                      arrive, pat, reflector, penalty)
        los_best = received_power(23.0, CELL0, WEST_UE, 0.0, pat,
                                  math.pi, pat)
        assert blocked_best <= los_best - NLOS_FLOOR_DB + 1e-9


def test_blocked_argmax_beam_points_at_reflector():
    """The best Tx beam for a blocked link is the one nearest the reflector."""
    cb = make_codebook(8)
    reflector = math.radians(222.0)
    depart, _ = link_bearings(CELL0, WEST_UE, reflector)
    powers = [received_power(0.0, CELL0, WEST_UE, float(c), cb.pattern,
                             math.pi, cb.pattern, reflector, 3.0)
              for c in cb.beam_centers]
    best = int(np.argmax(powers))
    offsets = circular_distance(cb.beam_centers, depart)
    assert best == int(np.argmin(offsets))


def test_sample_blocking_degenerate_probabilities():
    """Every link LOS carries no penalty; every link blocked carries at least
    the NLOS floor and a reflector bearing in [0, 2*pi)."""
    clear = sample_blocking(50, 0.0, seed=1, excess_mean_db=10.0)
    assert not clear.blocked.any()
    assert np.array_equal(clear.penalty_db, np.zeros(50))
    blocked = sample_blocking(50, 1.0, seed=1, excess_mean_db=10.0)
    assert blocked.blocked.all()
    assert (blocked.penalty_db >= NLOS_FLOOR_DB).all()
    assert ((blocked.reflector >= 0.0) & (blocked.reflector < 2 * math.pi)).all()
    for blk in (clear, blocked):
        assert all(a.shape == (50,) for a in blk)


def _link_budget_at(ue, blocking=None):
    return link_budget_dbm(build_cluster(3, D), np.asarray(ue), blocking, make_codebook(8),
                           make_codebook(8), 23.0)


def test_link_budget_clamps_distance_below_one_metre():
    """A UE 0.5 m from a LOS cell is charged the 1 m pathloss: its Tx-side
    budget is P_UE + Tx gain - PL(1 m)."""
    ue_cb = make_codebook(8)
    ue = (0.5, 0.0)  # 0.5 m east of cell 0, which the UE sees due west
    base, _ = _link_budget_at(ue)
    tx_gain = ue_cb.pattern.gain(circular_distance(ue_cb.beam_centers, math.pi))
    assert np.array_equal(base[:, 0], 23.0 + tx_gain - pathloss(1.0))


@pytest.mark.parametrize("p_blk", [0.0, 1.0], ids=["los", "blocked"])
def test_link_budget_rejects_ue_on_a_cell(p_blk):
    with pytest.raises(ValueError):
        _link_budget_at((200.0, 0.0),
                        sample_blocking(3, p_blk, seed=0, excess_mean_db=10.0))


@pytest.mark.parametrize("n_sc", [3, 12, 22])
def test_link_budget_batch_equals_per_trial_calls(n_sc):
    """A batch of trials with mixed blocking gives, trial by trial, the
    bytes of that trial's own call."""
    rng = np.random.default_rng(n_sc)
    cells = build_cluster(n_sc, D, rng, count=40)
    ue = place_ue(cells, rng, count=40)
    blocking = sample_blocking(n_sc, 0.5, rng, excess_mean_db=10.0, count=40)
    blocked = blocking.blocked.copy()
    blocked[:5] = False  # a few trials with every link LOS
    blocking = Blocking(blocked, blocking.reflector,
                        np.where(blocked, blocking.penalty_db, 0.0))
    assert blocked.any() and not blocked.all()
    ue_cb, sc_cb = make_codebook(8), make_codebook(12)
    base, rx_gain = link_budget_dbm(cells, ue, blocking, ue_cb, sc_cb, -14.0)
    assert base.shape == (40, 8, n_sc) and rx_gain.shape == (40, 12, n_sc)
    for t in range(40):
        one = link_budget_dbm(cells[t], ue[t],
                              Blocking(*(field[t] for field in blocking)),
                              ue_cb, sc_cb, -14.0)
        assert np.array_equal(base[t], one[0])
        assert np.array_equal(rx_gain[t], one[1])


def test_link_budget_batch_rejects_ue_on_a_cell():
    """One trial of a batch with its UE on a cell fails the whole batch."""
    cells = build_cluster(3, D, count=4)
    ue = np.array([[100.0, 50.0], [50.0, 20.0], [200.0, 0.0], [90.0, 40.0]])
    with pytest.raises(ValueError, match="coincides"):
        link_budget_dbm(cells, ue, None, make_codebook(8), make_codebook(8), 23.0)


def test_sample_blocking_count_of_one_is_the_single_draw():
    one = sample_blocking(7, 0.4, seed=5, excess_mean_db=10.0)
    batch = sample_blocking(7, 0.4, seed=5, excess_mean_db=10.0, count=1)
    for single, batched in zip(one, batch):
        assert batched.shape == (1, 7)
        assert np.array_equal(batched[0], single)


# unit vectors on the eight compass points; their bearings are exactly the
# centres of an 8-beam codebook, and every other one a 4-beam midpoint
COMPASS = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)],
                   dtype=float)
# None: the codebook's default beamwidth; the pattern's closed forms
# overflow below about 1e-152 degrees
BEAMWIDTHS = st.none() | st.floats(min_value=1e-150, max_value=180.0, exclude_max=True)


def test_main_lobe_stays_above_the_floor_out_to_90_degrees():
    """``best_pair_dbm``'s premise: in a codebook of two or more beams the
    nearest centre lies at most 90 degrees off, and at any beamwidth the
    main lobe there, where it still reaches, is no lower than the floor,
    so no farther beam gains more."""
    for deg in np.linspace(1e-3, 180.0, 20_001)[:-1]:
        pat = make_pattern(math.radians(deg))
        off = min(math.pi / 2.0, pat.phi_ml / 2.0)
        assert pat.gain(off) >= pat.g_sl, deg


def _best_pair_of_trial_0(cells, ue, blocking, ue_cb, sc_cb, p_ue_dbm):
    """Trial 0's power per cell under its best beam pair, from scalar
    bearings and every beam's gain."""
    out = []
    for i, cell in enumerate(cells[0].tolist()):
        blocked = bool(blocking.blocked[0, i])
        depart, arrive = link_bearings(
            cell, ue[0].tolist(), float(blocking.reflector[0, i]) if blocked else None)
        g_tx = ue_cb.pattern.gain(circular_distance(ue_cb.beam_centers, depart)).max()
        g_rx = sc_cb.pattern.gain(circular_distance(sc_cb.beam_centers, arrive)).max()
        out.append(p_ue_dbm + g_tx - pathloss(max(math.dist(cell, ue[0]), 1.0))
                   - blocking.penalty_db[0, i] + g_rx)
    return np.array(out)


@settings(max_examples=150, deadline=None)
@given(n_sc=st.integers(3, 22), n_tx=st.integers(1, 32), n_rx=st.integers(1, 32),
       ue_deg=BEAMWIDTHS, sc_deg=BEAMWIDTHS, p_blk=st.floats(0.0, 1.0),
       compass=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the default 4-beam codebook: its main lobe's edge lies below the floor
@example(n_sc=22, n_tx=4, n_rx=4, ue_deg=None, sc_deg=None, p_blk=0.5,
         compass=False, seed=1)
@example(n_sc=16, n_tx=4, n_rx=8, ue_deg=None, sc_deg=None, p_blk=0.2,
         compass=True, seed=2)
@example(n_sc=12, n_tx=2, n_rx=1, ue_deg=179.0, sc_deg=90.0, p_blk=0.5,
         compass=True, seed=3)
def test_best_pair_equals_the_maps_maximum_bit_for_bit(n_sc, n_tx, n_rx, ue_deg, sc_deg,
                                                       p_blk, compass, seed):
    """``best_pair_dbm`` is the largest entry of every cell's column of the
    full maps, bit for bit, over cluster sizes, blocking, codebook sizes and
    beamwidths; a compass layout puts LOS bearings exactly on beam centres
    and midpoints. Trial 0 also matches the scalar-bearing reference."""
    rng = np.random.default_rng(seed)
    count = 8
    if compass:
        # the UE at the origin, cells on the compass points at 50, 100, 150 m
        compass_cells = np.concatenate([COMPASS * r for r in (50.0, 100.0, 150.0)])
        cells = np.broadcast_to(compass_cells[:n_sc], (count, n_sc, 2))
        ue = np.zeros((count, 2))
    else:
        cells = build_cluster(n_sc, D, rng, count=count)
        ue = place_ue(cells, rng, count=count)
    blocking = sample_blocking(n_sc, p_blk, rng, excess_mean_db=10.0, count=count)
    ue_cb = make_codebook(n_tx, None if ue_deg is None else math.radians(ue_deg))
    sc_cb = make_codebook(n_rx, None if sc_deg is None else math.radians(sc_deg))
    base, rx_gain = link_budget_dbm(cells, ue, blocking, ue_cb, sc_cb, -14.0)
    best = best_pair_dbm(cells, ue, blocking, ue_cb, sc_cb, -14.0)
    expect = (base + rx_gain.max(axis=-2)[..., None, :]).max(axis=-2)
    assert best.shape == (count, n_sc)
    assert np.array_equal(best, expect)
    np.testing.assert_allclose(
        best[0], _best_pair_of_trial_0(cells, ue, blocking, ue_cb, sc_cb, -14.0),
        rtol=0.0, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(n_sc=st.integers(3, 22), count=st.none() | st.integers(1, 12),
       p_blk=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       broadcast=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n_sc=3, count=None, p_blk=0.5, broadcast=False, seed=0)
@example(n_sc=22, count=12, p_blk=0.5, broadcast=True, seed=1)
def test_paths_route_each_blocked_link_on_its_own_geometry(n_sc, count, p_blk,
                                                          broadcast, seed):
    """Routing only the blocked links lines each up with its own UE, cell,
    distance and reflector: a mixed draw's blocked links are, bit for bit,
    the links of the same draw routed with every link blocked, and its LOS
    links those of ``blocking=None``; every routed link also matches the
    scalar reference. Unbatched draws, and read-only broadcast clusters
    and UEs, take the same route."""
    rng = np.random.default_rng(seed)
    cells = build_cluster(n_sc, D, rng, count=count)
    ue = place_ue(cells, rng, count=count)
    blocking = sample_blocking(n_sc, p_blk, rng, excess_mean_db=10.0, count=count)
    if broadcast and count is not None:
        cells = np.broadcast_to(cells[0], cells.shape)
        ue = np.broadcast_to(ue[0], ue.shape)
    via = blocking.blocked
    mixed, los = _paths(cells, ue, blocking), _paths(cells, ue, None)
    every = _paths(cells, ue, blocking._replace(blocked=np.ones_like(via)))
    for got, routed, direct in zip(mixed, every, los):
        assert got.tobytes() == np.where(via, routed, direct).tobytes()
    cells_2d = np.broadcast_to(cells, via.shape + (2,)).reshape(-1, 2)
    ue_2d = np.broadcast_to(ue[..., None, :], via.shape + (2,)).reshape(-1, 2)
    for i, (cell, u, reflector) in enumerate(zip(
            cells_2d.tolist(), ue_2d.tolist(), blocking.reflector.reshape(-1).tolist())):
        expect = link_bearings(cell, u, reflector)
        got = every[1].reshape(-1)[i], every[2].reshape(-1)[i]
        assert circular_distance(np.array(got), np.array(expect)).max() < 1e-9, i


def _every_beam_gain(cb, azimuth):
    """The largest gain of any beam of ``cb`` at each azimuth."""
    return cb.pattern.gain(circular_distance(cb.beam_centers[:, None], azimuth)).max(0)


@pytest.mark.parametrize("n_beams", range(1, 9))
@pytest.mark.parametrize("deg", [None, 10.0, 90.0, 179.0])
def test_nearest_beam_gain_at_the_codebook_edges(n_beams, deg):
    """The nearest beam's gain is the largest of any beam, bit for bit, at
    azimuth 0, on every centre and midpoint and one ulp either side of a
    centre, and at the last double below 2*pi, where ``azimuth * n / 2*pi``
    rounds up to n for five and seven beams and both candidate centres
    wrap."""
    cb = make_codebook(n_beams, None if deg is None else math.radians(deg))
    centers = cb.beam_centers
    last = np.nextafter(TWO_PI, 0.0)
    azimuth = np.concatenate([
        [0.0, last], centers, centers + math.pi / n_beams,
        np.nextafter(centers, TWO_PI), np.nextafter(centers[1:], 0.0)])
    assert azimuth.min() >= 0.0 and azimuth.max() < TWO_PI
    if n_beams in (5, 7):
        assert int(last * (n_beams / TWO_PI)) == n_beams
    got = _nearest_beam_gain(cb, azimuth)
    assert got.shape == (1, azimuth.size)
    assert got[0].tobytes() == _every_beam_gain(cb, azimuth).tobytes()
