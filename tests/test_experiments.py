import itertools

import numpy as np
import pytest

from mmwia import experiments, protocol
from mmwia.channel import Blocking, link_budget_dbm, sample_blocking
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
from mmwia.protocol import COORDINATED, EXHAUSTIVE, run_batch


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


def test_reduction_power_columns_and_pairing():
    cfg = _cfg(power_grid_dbm=(-14.0, -6.0), n_tx_values=(4,))
    table = run_reduction_vs_power(cfg, 60, 5)
    assert table.columns[:4] == ("p_ue_dbm", "n_tx", "p_er_pct", "stderr_pct")
    assert len(table.rows) == 2


def test_time_cluster_normalization_identity():
    cfg = _cfg(cluster_grid=(1, 3))
    table = run_time_vs_cluster(cfg, 60, 5)
    rows = {r[0]: r for r in table.rows}
    assert rows[1][1] == pytest.approx(1.0)
    assert rows[1][2] == 0.0


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
    size, whatever the configured mode. Each target calibrates once, on
    the seed (master, target index, 0xCA1), and every codebook size's row
    at that target runs under its threshold. Calibrating per grid point
    again, seeded by the point index, makes four calls and fails here."""
    cfg = _cfg(pmiss_grid=(0.01, 0.1), n_tx_values=(4, 6)).replace(
        detection={"mode": "fa", "calibration_trials": 500})
    original, calls = SimConfig.threshold, []

    def threshold(c, noise_dbm, seq, seed=None, target=None):
        gamma = original(c, noise_dbm, seq, seed=seed, target=target)
        calls.append((c.detection.target, c.detection.mode, seed.entropy, gamma))
        return gamma

    monkeypatch.setattr(SimConfig, "threshold", threshold)
    seen = _spy(monkeypatch, "_ia_times", lambda c, gamma, trials, seed, point, _: (
        c.detection.target, c.antenna.n_tx, c.detection.mode, gamma, point))
    run_reduction_vs_pmiss(cfg, 4, 5)
    assert [call[:3] for call in calls] == [(0.01, "miss", (5, 0, 0xCA1)),
                                            (0.1, "miss", (5, 1, 0xCA1))]
    gammas = [call[3] for call in calls]
    grid = [(p, n, gamma) for n in (4, 6) for p, gamma in zip((0.01, 0.1), gammas)]
    assert seen == [(p, n, "miss", gamma, point) for point, (p, n, gamma) in enumerate(grid)]
    assert len(set(gammas)) == len(cfg.experiment.pmiss_grid)


def test_time_cluster_point_config_carries_its_axis_value(monkeypatch):
    """A cluster-size point is the config at that size, and sweeps its
    scheme on that many cells of every chunk: one ``later_rounds`` call
    per scheme, size 1 exhaustive and the other sizes coordinated."""
    cfg = _cfg(cluster_grid=(1, 3, 5))
    seen = _spy(monkeypatch, "later_rounds", lambda points, gamma, first, scheme: [
        (c.geometry.n_sc, scheme) for c, _ in points])
    original, swept = protocol._sweep, []

    def sweep(budget, noise_mw, n_zc, gamma, schedule, *rest):
        swept.append((budget[0].shape[-1], budget[1].shape[-1], schedule.shape[-1]))
        return original(budget, noise_mw, n_zc, gamma, schedule, *rest)

    monkeypatch.setattr(protocol, "_sweep", sweep)
    run_time_vs_cluster(cfg, 4, 5)
    assert seen == [[(1, EXHAUSTIVE)], [(3, COORDINATED), (5, COORDINATED)]]
    assert swept == [(1, 1, 1), (3, 3, 3), (5, 5, 5)]


def test_time_cluster_plans_each_chunk_in_one_estimator_and_one_reorder_call(monkeypatch):
    """The coordinated sizes of a chunk share one ``estimate_points`` call
    and one ``reorder_rx_beams`` call over the stacked trials that round
    one missed at each size."""
    cfg = _cfg(cluster_grid=(1, 3, 5, 9)).replace(channel={"p_blk": 0.3})
    calls = {"estimate_points": [], "reorder_rx_beams": []}
    for name, seen in calls.items():
        def spy(*args, original=getattr(protocol, name), seen=seen):
            seen.append(len(args[1]))
            return original(*args)
        monkeypatch.setattr(protocol, name, spy)
    hits = _results(monkeypatch, "later_rounds")
    run_time_vs_cluster(cfg, CHUNK + 40, 3)
    assert [len(calls["estimate_points"]), len(calls["reorder_rx_beams"])] == [2, 2]
    coordinated = [outs for (_, _, _, scheme), outs in hits if scheme == COORDINATED]
    for chunk, outs in enumerate(coordinated):
        assert len(outs) == 3
        # every trial that round one missed, at every size, was estimated
        assert calls["estimate_points"][chunk] == sum(
            int(np.count_nonzero(out.rounds > 1)) for out in outs)
        assert calls["reorder_rx_beams"][chunk] == sum(
            int(np.count_nonzero(~np.isnan(out.estimated_ue[:, 0]))) for out in outs)


def _results(monkeypatch, name):
    """Replace ``experiments.<name>`` by a wrapper that appends the
    (arguments, result) of each call."""
    original, seen = getattr(experiments, name), []

    def spy(*args):
        seen.append((args, original(*args)))
        return seen[-1][1]

    monkeypatch.setattr(experiments, name, spy)
    return seen


def test_time_cluster_sizes_share_one_draw_and_round_one(monkeypatch):
    """Each chunk is drawn once at the grid's largest size from its stream
    0 and runs round one once; every size sweeps the first n cells'
    columns of that cluster, link budget (and so the UE), Rx orders and
    round-one peaks. No seed's entropy seeds two generators, and a row's
    stderr is the paired delta-method SE of mean(size)/mean(size 1)."""
    cfg = _cfg(cluster_grid=(3, 1, 5)).replace(channel={"p_blk": 0.3})
    original_rng, entropies = np.random.default_rng, []

    def seeding(seed=None):
        if isinstance(seed, np.random.SeedSequence):
            entropies.append(seed.entropy)
        return original_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", seeding)
    shared = _results(monkeypatch, "round_one")
    swept = _results(monkeypatch, "later_rounds")
    cut, first_cells = [], protocol.RoundOne.first_cells

    def cutting(self, n):
        cut.append((self, n, first_cells(self, n)))
        return cut[-1][2]

    monkeypatch.setattr(protocol.RoundOne, "first_cells", cutting)
    trials = CHUNK + 3
    table = run_time_vs_cluster(cfg, trials, 9)

    sizes = (3, 1, 5)
    assert len(entropies) == len(set(entropies)) == 1 + 2 * (2 + len(sizes))
    assert [args[0].geometry.n_sc for args, _ in shared] == [5, 5]
    times = {n: [] for n in sizes}
    for chunk, ((top, draw, _), first) in enumerate(shared):
        count = (CHUNK, 3)[chunk]
        ours = draw_trial(top, np.random.SeedSequence((9, 0, chunk, 0)), count)
        for mine, theirs in zip((*ours[:2], *ours[2]), (*draw[:2], *draw[2])):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(first.cells, draw[0])
        calls = swept[2 * chunk:2 * chunk + 2]
        assert [len(points) for (points, *_), _ in calls] == [1, 2]
        for (points, _, of, _), outs in calls:
            assert of is first
            for (c, _), out in zip(points, outs):
                times[c.geometry.n_sc].append(out.ia_time_s)
        for whole, n, part in cut[len(sizes) * chunk:len(sizes) * (chunk + 1)]:
            assert whole is first
            np.testing.assert_array_equal(part.cells, first.cells[:, :n])
            np.testing.assert_array_equal(part.orders, first.orders[:, :n])
            np.testing.assert_array_equal(part.peaks, first.peaks[..., :n])
            for mine, theirs in zip(part.budget, first.budget):
                np.testing.assert_array_equal(mine, theirs[..., :n])
    assert sorted(n for _, n, _ in cut) == sorted(sizes * 2)

    y = np.concatenate(times[1])
    for n, norm, se in zip(sizes, table.column("norm_ia_time"), table.column("stderr")):
        x = np.concatenate(times[n])
        ratio = x.mean() / y.mean()
        assert norm == pytest.approx(ratio, rel=1e-12)
        paired = np.std((x - ratio * y) / y.mean(), ddof=1) / np.sqrt(trials)
        assert se == pytest.approx(paired, rel=1e-9, abs=1e-15)
    assert table.column("stderr")[1] == 0.0


def _first_cells(draw, n: int):
    """The trials of ``draw`` on their first ``n`` cells."""
    cells, ue, blocking = draw
    if blocking is not None:
        blocking = Blocking(*(field[:, :n] for field in blocking))
    return cells[:, :n], ue, blocking


def test_time_cluster_sizes_keep_their_own_distribution():
    """Each size's mean IA time in the campaign agrees, within four
    standard errors, with that of independent trials run through
    ``run_batch`` on draws of that size alone (a one-cell cluster is the
    triangle's first cell) under the same threshold. Both means average
    8000 i.i.d. trials of one distribution if the sizes' marginals are
    kept, so their difference has sqrt(2) times the independent SE."""
    cfg, trials = _cfg(cluster_grid=(1, 3, 5, 7, 9)), 8000
    table = run_time_vs_cluster(cfg, trials, 41)
    gamma = point_threshold(cfg, 41, 0)
    for point, (n, mean) in enumerate(zip(table.column("n_sc"),
                                          table.column("mean_ia_time_s"))):
        own = cfg.replace(geometry={"n_sc": max(n, 3)})
        scheme = EXHAUSTIVE if n == 1 else COORDINATED
        times = np.concatenate([
            run_batch(own, gamma, _first_cells(draw, n), seed, (scheme,))[0].ia_time_s
            for draw, seed in trial_batches(own, trials, 42, point)])
        z = (mean - times.mean()) / (np.sqrt(2.0) * np.std(times, ddof=1) / np.sqrt(trials))
        assert abs(z) < 4.0, (n, z)


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
