import itertools
import math

import numpy as np
import pytest

from mmwia import experiments, protocol
from mmwia.channel import link_budget_dbm, sample_blocking
from mmwia.config import SimConfig, load_config
from mmwia.estimation import select_top3
from mmwia.experiments import (
    ResultTable,
    CHUNK,
    _paired_point,
    _top3_los_count,
    draw_trial,
    point_threshold,
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
    trial_batches,
)
from mmwia.protocol import run_batch


def _cfg(**exp_kwargs):
    return SimConfig().replace(experiment=exp_kwargs)


def test_result_table_csv_shape():
    t = ResultTable("demo", ("a", "b"), config_hash="beef", master_seed=7)
    t.add(1, 0.5)
    t.add(2, 1.0 / 3.0)
    text = t.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# config=beef seed=7"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3].startswith("2,0.3333333333")
    with pytest.raises(ValueError):
        t.add(1)


def test_p_los_no_blocking_is_certain():
    cfg = _cfg(p_los_cluster_sizes=(4,), p_los_p_blk=(0.0,))
    table = run_p_los(cfg, 60, 3)
    assert table.columns == ("n_sc", "p_blk", "p_los", "stderr", "trials")
    assert table.rows[0][2] == 1.0


def test_a_draw_without_blocking_skips_only_the_blocking_fields():
    """At p_blk 0 a draw returns no blocking and the same cells and UEs as
    at p_blk 0.3, whose blocking fields come last; the link budget without
    blocking equals, bit for bit, the one with the all-LOS state that
    ``sample_blocking`` draws at p_blk 0; and P_LOS at p_blk 0 reads 1."""
    cfg = SimConfig().replace(geometry={"n_sc": 5})
    cells, ue, blocking = draw_trial(cfg, np.random.SeedSequence((3, 1, 0, 0)), 40)
    cells_b, ue_b, blocked = draw_trial(cfg.replace(channel={"p_blk": 0.3}),
                                        np.random.SeedSequence((3, 1, 0, 0)), 40)
    assert blocking is None and blocked.blocked.any()
    assert cells.tobytes() == cells_b.tobytes() and ue.tobytes() == ue_b.tobytes()
    los = sample_blocking(5, 0.0, 8, excess_mean_db=26.0, count=40)
    ue_cb, sc_cb = cfg.ue_codebook(), cfg.sc_codebook()
    for ours, theirs in zip(link_budget_dbm(cells, ue, None, ue_cb, sc_cb, -14.0),
                            link_budget_dbm(cells, ue, los, ue_cb, sc_cb, -14.0)):
        assert ours.tobytes() == theirs.tobytes()
    table = run_p_los(_cfg(p_los_cluster_sizes=(5,), p_los_p_blk=(0.0, 0.3)), 40, 3)
    assert table.column("p_los")[0] == 1.0 and table.column("p_los")[1] < 1.0


def test_p_los_decreases_with_blocking():
    cfg = _cfg(p_los_cluster_sizes=(8,), p_los_p_blk=(0.1, 0.7))
    table = run_p_los(cfg, 250, 3)
    p = table.column("p_los")
    assert p[0] > p[1]


def test_p_los_bit_reproducible():
    cfg = _cfg(p_los_cluster_sizes=(5,), p_los_p_blk=(0.3,))
    a = run_p_los(cfg, 80, 11).to_csv()
    b = run_p_los(cfg, 80, 11).to_csv()
    assert a == b


def test_reduction_power_columns_and_pairing():
    cfg = _cfg(power_grid_dbm=(-14.0, -6.0), n_tx_values=(4,))
    table = run_reduction_vs_power(cfg, 60, 5)
    assert table.columns[:4] == ("p_ue_dbm", "n_tx", "p_er_pct", "stderr_pct")
    assert len(table.rows) == 2
    # identical arguments rerun byte-identically
    assert table.to_csv() == run_reduction_vs_power(cfg, 60, 5).to_csv()


def test_reduction_pmiss_runs_and_orders():
    cfg = _cfg(pmiss_grid=(0.05,), n_tx_values=(4,))
    table = run_reduction_vs_pmiss(cfg, 60, 5)
    p_er = table.column("p_er_pct")[0]
    assert math.isfinite(p_er)


def test_time_cluster_normalization_identity():
    cfg = _cfg(cluster_grid=(1, 3))
    table = run_time_vs_cluster(cfg, 60, 5)
    rows = {r[0]: r for r in table.rows}
    assert rows[1][1] == pytest.approx(1.0)
    assert rows[1][2] == 0.0
    assert rows[3][1] < 1.0  # coordination beats the single-cell baseline


def test_time_cluster_requires_baseline():
    """A grid without the single-cell baseline, or with a size twice, is
    refused by the campaign itself, not only by the config loader."""
    for grid in ((3, 5), (1, 3, 3)):
        with pytest.raises(ValueError, match="baseline"):
            run_time_vs_cluster(_cfg(cluster_grid=grid), 10, 5)


def test_reference_ue_power_fixes_the_miss_threshold(tmp_path, monkeypatch):
    """``[detection] reference_p_ue_dbm`` moves the calibration link by its
    offset from ``p_ue_dbm``; set to ``p_ue_dbm`` it changes no threshold
    bit; and the power sweep holds its one threshold at every power."""
    def load(reference):
        text = "[detection]\ncalibration_trials = 2000\n"
        if reference is not None:
            text += f"reference_p_ue_dbm = {reference}\n"
        path = tmp_path / "c.ini"
        path.write_text(text)
        return load_config(path)

    unset, same, louder = load(None), load(-14.0), load(-4.0)
    assert unset.channel.p_ue_dbm == -14.0 and louder.detection.reference_p_ue_dbm == -4.0
    assert louder.reference_rx_dbm() == unset.replace(
        channel={"p_ue_dbm": -4.0}).reference_rx_dbm()
    shift = louder.reference_rx_dbm() - unset.reference_rx_dbm()
    assert shift == pytest.approx(10.0, abs=1e-12)
    assert point_threshold(same, 3, 0) == point_threshold(unset, 3, 0)
    gamma = point_threshold(louder, 3, 0)
    assert gamma != point_threshold(unset, 3, 0)

    seen = []

    def recording(point_cfg, gamma, *args):
        seen.append((point_cfg.channel.p_ue_dbm, gamma))
        return run_batch(point_cfg, gamma, *args)

    monkeypatch.setattr(experiments, "run_batch", recording)
    cfg = louder.replace(experiment={"power_grid_dbm": (-14.0, -4.0, 6.0),
                                     "n_tx_values": (4,)})
    run_reduction_vs_power(cfg, 8, 3)
    assert [p for p, _ in seen] == [-14.0, -4.0, 6.0]
    assert {g for _, g in seen} == {gamma}


def test_stderr_shrinks_with_trials():
    cfg = _cfg(p_los_cluster_sizes=(6,), p_los_p_blk=(0.4,))
    small = run_p_los(cfg, 300, 9).column("stderr")[0]
    large = run_p_los(cfg, 1200, 9).column("stderr")[0]
    assert large == pytest.approx(small / 2.0, rel=0.4)


def test_paired_point_computes_each_link_budget_once(monkeypatch):
    original, calls = protocol.link_budget_dbm, []

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "link_budget_dbm", counting)
    # one per chunk, both schemes
    _paired_point(SimConfig().replace(antenna={"n_tx": 4}), 1e-5, CHUNK + 12, 3, 0)
    assert calls == [(CHUNK, 2), (12, 2)]


def test_one_trial_draw_is_what_the_protocol_gets():
    """Each chunk of protocol trials is the draw from its stream 0, with
    the seed of its stream 2."""
    cfg = SimConfig().replace(geometry={"n_sc": 5}, channel={"p_blk": 0.4},
                              antenna={"n_tx": 4})
    chunks = list(trial_batches(cfg, CHUNK + 6, 7, 2))
    assert [len(draw[0]) for draw, _ in chunks] == [CHUNK, 6]
    for chunk, ((cells, ue, blocking), seed) in enumerate(chunks):
        assert seed.entropy == (7, 2, chunk, 2)
        ours = draw_trial(cfg, np.random.SeedSequence((7, 2, chunk, 0)), len(cells))
        np.testing.assert_array_equal(ours[0], cells)
        np.testing.assert_array_equal(ours[1], ue)
        assert blocking.blocked.any()
        for mine, theirs in zip(ours[2], blocking):
            np.testing.assert_array_equal(mine, theirs)


def test_paired_campaign_chunks_cover_every_trial(monkeypatch):
    """One trial past a whole chunk draws a last chunk of one; every
    trial is averaged once, and the campaign reruns byte-identically."""
    cfg = _cfg(power_grid_dbm=(-14.0,), n_tx_values=(4,))
    original, counts = experiments.draw_trial, []
    sizes = {"exh": 0, "coord": 0}

    def counting(*args):
        counts.append(args[-1])
        return original(*args)

    def sized(runner):
        def run(*args):
            outs = runner(*args)
            for name, out in zip(("exh", "coord"), outs):
                sizes[name] += len(out.slots_used)
            return outs
        return run

    monkeypatch.setattr(experiments, "draw_trial", counting)
    monkeypatch.setattr(experiments, "run_batch", sized(experiments.run_batch))
    trials = CHUNK + 1
    table = run_reduction_vs_power(cfg, trials, 11)
    assert counts == [CHUNK, 1]
    assert sizes == {"exh": trials, "coord": trials}
    (row,) = table.rows
    t_ra = cfg.protocol.t_ra_s
    for mean in (row[4], row[5]):  # whole slot counts summed over every trial
        assert mean * trials / t_ra == pytest.approx(round(mean * trials / t_ra), abs=1e-6)
    assert row[6] == trials
    assert table.to_csv() == run_reduction_vs_power(cfg, trials, 11).to_csv()


def _spy(monkeypatch, name, record):
    """Replace ``experiments.<name>`` by a wrapper that appends
    ``record(*args)`` of each call before calling through."""
    original, seen = getattr(experiments, name), []

    def spy(*args):
        seen.append(record(*args))
        return original(*args)

    monkeypatch.setattr(experiments, name, spy)
    return seen


def _sorted_top3_los_count(power, blocked):
    """Rows whose ``select_top3`` cells are all unblocked."""
    top3 = select_top3(power[:, None, :])
    return int(np.count_nonzero(~np.take_along_axis(blocked, top3, -1).any(-1)))


# (powers, blocked) rows of five cells; -60 ties a LOS cell with the
# strongest blocked cell
TIE_CASES = {
    "blocked cell first in a tie": ([-50, -55, -60, -60, -70], [0, 0, 1, 0, 1]),
    "blocked cell last in a tie": ([-50, -55, -60, -60, -70], [0, 0, 0, 1, 1]),
    "tie for third behind two LOS": ([-60, -50, -55, -60, -60], [1, 0, 0, 0, 0]),
    "tie ranked fourth": ([-60, -50, -55, -52, -60], [0, 0, 0, 0, 1]),
    "all LOS": ([-60, -60, -60, -60, -60], [0, 0, 0, 0, 0]),
    "all blocked": ([-60, -50, -60, -70, -40], [1, 1, 1, 1, 1]),
    "exactly three LOS, strongest": ([-50, -90, -51, -52, -91], [0, 1, 0, 0, 1]),
    "exactly three LOS, one below a blocked": ([-50, -51, -52, -53, -54],
                                               [0, 0, 1, 0, 1]),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_p_los_score_breaks_ties_as_select_top3(case):
    """Counting the cells ranked above the strongest blocked cell scores
    a row as ``select_top3``'s stable order does, ties to the lower index."""
    power, blocked = TIE_CASES[case]
    power, blocked = np.array([power], dtype=float), np.array([blocked], dtype=bool)
    assert _top3_los_count(power, blocked) == _sorted_top3_los_count(power, blocked)


def test_p_los_score_matches_select_top3_on_every_small_tie():
    """Every row of 3-5 cells over three power levels and every blocking
    pattern scores as ``select_top3`` ranks it."""
    for n_sc in (3, 4, 5):
        rows = list(itertools.product(
            itertools.product((-60.0, -61.0, -62.0), repeat=n_sc),
            itertools.product((False, True), repeat=n_sc)))
        power = np.array([p for p, _ in rows])
        blocked = np.array([b for _, b in rows])
        for row in range(len(rows)):
            one = power[row:row + 1], blocked[row:row + 1]
            assert _top3_los_count(*one) == _sorted_top3_los_count(*one), one
        assert _top3_los_count(power, blocked) == _sorted_top3_los_count(power, blocked)


def test_p_los_point_config_carries_its_axis_values(monkeypatch):
    """Each P_LOS chunk is drawn from the config with the point's cluster
    size and blocking probability."""
    cfg = _cfg(p_los_cluster_sizes=(4, 7), p_los_p_blk=(0.0, 0.3))
    seen = _spy(monkeypatch, "draw_trial",
                lambda c, seed, count: (c.geometry.n_sc, c.channel.p_blk, count))
    run_p_los(cfg, CHUNK + 1, 5)
    assert seen == [(n, p, count) for n in (4, 7) for p in (0.0, 0.3)
                    for count in (CHUNK, 1)]


def test_reduction_power_point_config_carries_its_axis_values(monkeypatch):
    """A power point is the config at its UE power and codebook size, every
    point under the one threshold the base config calibrates."""
    cfg = _cfg(power_grid_dbm=(-14.0, -2.0), n_tx_values=(4, 8))
    seen = _spy(monkeypatch, "run_batch", lambda c, gamma, *rest: (
        c.channel.p_ue_dbm, c.antenna.n_tx, gamma, c.replace(
            channel={"p_ue_dbm": cfg.channel.p_ue_dbm},
            antenna={"n_tx": cfg.antenna.n_tx}) == cfg))
    run_reduction_vs_power(cfg, 4, 5)
    gamma = point_threshold(cfg, 5, 0)
    assert seen == [(p, n, gamma, True) for n in (4, 8) for p in (-14.0, -2.0)]


def test_reduction_pmiss_point_config_carries_its_axis_values(monkeypatch):
    """A miss point is the config in miss mode at its target and codebook
    size, calibrated on its own seed, whatever the configured mode."""
    cfg = _cfg(pmiss_grid=(0.01, 0.1), n_tx_values=(4, 6)).replace(
        detection={"mode": "fa", "calibration_trials": 500})
    seen = _spy(monkeypatch, "_ia_times", lambda c, gamma, trials, seed, point, _: (
        c.detection.target, c.antenna.n_tx, c.detection.mode, gamma, point))
    run_reduction_vs_pmiss(cfg, 4, 5)
    expected = []
    for point, (n, p) in enumerate((n, p) for n in (4, 6) for p in (0.01, 0.1)):
        point_cfg = cfg.replace(detection={"mode": "miss", "target": p})
        expected.append((p, n, "miss", point_threshold(point_cfg, 5, point), point))
    assert seen == expected
    assert len({gamma for *_, gamma, _ in seen}) == 4


def test_time_cluster_point_config_carries_its_axis_value(monkeypatch):
    """A cluster-size point is the config at that size."""
    cfg = _cfg(cluster_grid=(1, 3, 5))
    seen = _spy(monkeypatch, "trial_batches", lambda c, *rest: c.geometry.n_sc)
    run_time_vs_cluster(cfg, 4, 5)
    assert seen == [1, 3, 5]


def test_p_los_chunks_cover_every_trial(monkeypatch):
    """One trial past a whole chunk draws a last chunk of one, and the
    campaign reruns byte-identically."""
    cfg = _cfg(p_los_cluster_sizes=(5,), p_los_p_blk=(0.3,))
    original, counts = experiments.draw_trial, []

    def counting(*args):
        counts.append(args[-1])
        return original(*args)

    monkeypatch.setattr(experiments, "draw_trial", counting)
    trials = CHUNK + 1
    table = run_p_los(cfg, trials, 11)
    assert counts == [CHUNK, 1]
    (row,) = table.rows
    assert row[4] == trials and (row[2] * trials).is_integer()
    assert table.to_csv() == run_p_los(cfg, trials, 11).to_csv()


def test_p_los_batch_with_a_ue_on_a_cell_raises(monkeypatch):
    """A UE on a cell in any trial of a chunk fails the campaign."""
    cfg = _cfg(p_los_cluster_sizes=(4,), p_los_p_blk=(0.5,))
    original = experiments.place_ue

    def onto_a_cell(cells, rng, count):
        ue = original(cells, rng, count)
        ue[count // 2] = cells[count // 2, 1]
        return ue

    monkeypatch.setattr(experiments, "place_ue", onto_a_cell)
    with pytest.raises(ValueError, match="coincides"):
        run_p_los(cfg, 10, 3)


def test_single_cell_trial_keeps_the_triangle_ue():
    """A one-cell draw is a read-only (count, 1, 2) slice of the base
    triangle's draw, with the UE in the triangle."""
    cfg = SimConfig().replace(channel={"p_blk": 0.5})
    seed = np.random.SeedSequence((3, 0, 0, 0))
    cells, ue, blocking = draw_trial(cfg.replace(geometry={"n_sc": 1}), seed, 20)
    triangle, ue3, _ = draw_trial(cfg, seed, 20)
    assert cells.shape == (20, 1, 2) and not cells.flags.writeable
    np.testing.assert_array_equal(cells, triangle[:, :1])
    np.testing.assert_array_equal(ue, ue3)
    assert blocking.blocked.shape == (20, 1)
    # barycentric coordinates of each UE in the base triangle
    (ax, ay), (bx, by), (cx, cy) = triangle[0]
    m = np.array([[bx - ax, cx - ax], [by - ay, cy - ay]])
    u, v = np.linalg.solve(m, (ue - (ax, ay)).T)
    assert (u >= 0).all() and (v >= 0).all() and (u + v <= 1).all()
