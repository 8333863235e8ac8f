import math
from dataclasses import replace

import numpy as np
import pytest

from mmwia import experiments, protocol
from mmwia.config import SimConfig
from mmwia.experiments import (
    ResultTable,
    CHUNK,
    _paired_point,
    draw_trial,
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
    trial_batches,
)


def _cfg(**exp_kwargs):
    cfg = SimConfig()
    return replace(cfg, experiment=replace(cfg.experiment, **exp_kwargs))


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
    cfg = _cfg(cluster_grid=(3, 5))
    with pytest.raises(ValueError):
        run_time_vs_cluster(cfg, 10, 5)


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
    _paired_point(SimConfig(), 4, -14.0, 1e-5, CHUNK + 12, 3, 0)
    assert calls == [(CHUNK, 2), (12, 2)]


def test_one_trial_draw_is_what_the_protocol_gets():
    """Each chunk of protocol trials is one batch: the draw from its
    stream 0, with the seed of its stream 2."""
    cfg = SimConfig()
    cfg = replace(cfg, geometry=replace(cfg.geometry, n_sc=5),
                  channel=replace(cfg.channel, p_blk=0.4))
    batches = list(trial_batches(cfg, 4, -14.0, 1e-5, CHUNK + 6, 7, 2))
    assert [batch.size for batch, _ in batches] == [CHUNK, 6]
    for chunk, (batch, seed) in enumerate(batches):
        assert seed.entropy == (7, 2, chunk, 2)
        geom, ue, blocking = draw_trial(
            cfg, 5, 0.4, np.random.SeedSequence((7, 2, chunk, 0)), batch.size)
        np.testing.assert_array_equal(geom.cells, batch.geom.cells)
        np.testing.assert_array_equal(ue, batch.ue)
        assert blocking.blocked.any()
        for ours, theirs in zip(blocking, batch.blocking):
            np.testing.assert_array_equal(ours, theirs)


def test_paired_campaign_chunks_cover_every_trial(monkeypatch):
    """One trial past a whole chunk draws a last chunk of one; every
    trial is averaged once, and the campaign reruns byte-identically."""
    cfg = _cfg(power_grid_dbm=(-14.0,), n_tx_values=(4,))
    original, counts = experiments.draw_trial, []
    sizes = {"exh": 0, "coord": 0}

    def counting(*args):
        counts.append(args[-1])
        return original(*args)

    def sized(name, runner):
        def run(batch, seed):
            out = runner(batch, seed)
            sizes[name] += len(out.slots_used)
            return out
        return run

    monkeypatch.setattr(experiments, "draw_trial", counting)
    monkeypatch.setattr(experiments, "run_exhaustive_batch",
                        sized("exh", experiments.run_exhaustive_batch))
    monkeypatch.setattr(experiments, "run_coordinated_batch",
                        sized("coord", experiments.run_coordinated_batch))
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

    def onto_a_cell(geom, rng, count):
        ue = original(geom, rng, count)
        ue[count // 2] = geom.cells[count // 2, 1]
        return ue

    monkeypatch.setattr(experiments, "place_ue", onto_a_cell)
    with pytest.raises(ValueError, match="coincides"):
        run_p_los(cfg, 10, 3)


def test_single_cell_trial_keeps_the_triangle_ue():
    cfg = SimConfig()
    seed = np.random.SeedSequence((3, 0, 0, 0))
    geom, ue, blocking = draw_trial(cfg, 1, 0.5, seed, 20)
    triangle, ue3, _ = draw_trial(cfg, 3, 0.5, seed, 20)
    np.testing.assert_array_equal(geom.cells, triangle.cells[:, :1])
    np.testing.assert_array_equal(ue, ue3)
    assert blocking.blocked.shape == (20, 1)
    # barycentric coordinates of each UE in the base triangle
    (ax, ay), (bx, by), (cx, cy) = triangle.cells[0]
    m = np.array([[bx - ax, cx - ax], [by - ay, cy - ay]])
    u, v = np.linalg.solve(m, (ue - (ax, ay)).T)
    assert (u >= 0).all() and (v >= 0).all() and (u + v <= 1).all()
