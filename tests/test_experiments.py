import math
from dataclasses import replace

import numpy as np
import pytest

from mmwia import experiments, protocol
from mmwia.config import SimConfig
from mmwia.experiments import (
    ResultTable,
    _paired_point,
    draw_trial,
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
    trial_setups,
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
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "link_budget_dbm", counting)
    _paired_point(SimConfig(), 4, -14.0, 1e-5, 12, 3, 0)
    assert len(calls) == 12


def test_p_los_and_protocol_trials_share_one_draw(monkeypatch):
    """A P_LOS trial and a protocol trial at the same (master, point, trial,
    cluster size, p_blk) see the same cells, UE and blocking."""
    cfg = _cfg(p_los_cluster_sizes=(5,), p_los_p_blk=(0.4,))
    cfg = replace(cfg, geometry=replace(cfg.geometry, n_sc=5),
                  channel=replace(cfg.channel, p_blk=0.4))
    original, drawn = experiments.link_budget_dbm, []

    def recording(geom, ue, blocking, *args):
        drawn.append((geom, ue, blocking))
        return original(geom, ue, blocking, *args)

    monkeypatch.setattr(experiments, "link_budget_dbm", recording)
    run_p_los(cfg, 4, 7)
    setups = [setup for setup, _ in trial_setups(cfg, 4, -14.0, 1e-5, 4, 7, 0)]
    assert len(drawn) == len(setups) == 4
    assert any(blocking.blocked.any() for _, _, blocking in drawn)
    for (geom, ue, blocking), setup in zip(drawn, setups):
        np.testing.assert_array_equal(geom.cells, setup.geom.cells)
        np.testing.assert_array_equal(ue, setup.ue)
        for ours, theirs in zip(blocking, setup.blocking):
            np.testing.assert_array_equal(ours, theirs)


def test_single_cell_trial_keeps_the_triangle_ue():
    cfg = SimConfig()
    for t in range(20):
        seed = np.random.SeedSequence((3, 0, t, 0))
        geom, ue, blocking = draw_trial(cfg, 1, 0.5, seed)
        triangle, ue3, _ = draw_trial(cfg, 3, 0.5, seed)
        np.testing.assert_array_equal(geom.cells, triangle.cells[:1])
        np.testing.assert_array_equal(ue, ue3)
        assert len(blocking.blocked) == 1
        # barycentric coordinates of the UE in the base triangle
        (ax, ay), (bx, by), (cx, cy) = triangle.cells
        m = np.array([[bx - ax, cx - ax], [by - ay, cy - ay]])
        u, v = np.linalg.solve(m, ue - (ax, ay))
        assert u >= 0 and v >= 0 and u + v <= 1
