"""Seeded Monte Carlo campaigns over the IA protocol and channel models.

Every random draw descends from (master seed, grid point index, trial
index), so any point of any experiment reruns bit-identically on its
own. ``draw_trial`` is every campaign's trial: cluster, UE and blocking,
in that order, from the trial's stream 0. Protocol trials seed both
schemes from the trial's stream 2, which makes their first rounds
coincide realization-by-realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, field

import numpy as np

from .channel import link_budget_dbm, noise_power, sample_blocking
from .config import SimConfig
from .estimation import select_top3
from .geometry import ClusterGeometry, build_cluster, place_ue
from .protocol import TrialSetup, ia_time_reduction, run_coordinated, run_exhaustive


@dataclass
class ResultTable:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    config_hash: str = ""
    master_seed: int = 0

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match the column set")
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        lines = [f"# config={self.config_hash} seed={self.master_seed}"]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _trial_seed(master: int, point: int, trial: int, stream: int):
    return np.random.SeedSequence((master, point, trial, stream))


def draw_trial(cfg: SimConfig, n_sc: int, p_blk: float, seed):
    """(cluster, UE, blocking) of one trial, drawn in that order from one
    generator seeded by ``seed``. A cluster of fewer than three cells is
    the first cells of the base triangle; the UE lies in the triangle."""
    rng = np.random.default_rng(seed)
    geom = build_cluster(max(n_sc, 3), cfg.geometry.side_m, rng)
    ue = place_ue(geom, rng)
    if n_sc < 3:
        geom = ClusterGeometry(geom.cells[:n_sc])
    blocking = sample_blocking(n_sc, p_blk, rng,
                               excess_mean_db=cfg.channel.nlos_excess_mean_db)
    return geom, ue, blocking


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = len(x)
    se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(x)), se


def _ratio_delta_se(x: np.ndarray, y: np.ndarray) -> float:
    """Std-error of 100*(mean(x)-mean(y))/mean(y) for paired samples."""
    n = len(x)
    if n < 2:
        return 0.0
    ybar = float(np.mean(y))
    h = 100.0 * (x - (np.mean(x) / ybar) * y) / ybar
    return float(np.std(h, ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Fig. 7: probability that the three selected cells are all line-of-sight
# ---------------------------------------------------------------------------

def run_p_los(cfg: SimConfig, trials: int, master_seed: int) -> ResultTable:
    """LOS-selection probability over (cluster size, blocking probability).

    Per trial: draw the cluster, UE and blocking, take the received power
    with the best Rx beam at every cell, pick the three strongest cells as
    the coordinated scheme does, and score whether all three are
    unblocked. The noiseless PDP peak of a cell is N^2 times its received
    power, so ranking received powers ranks the peaks.
    """
    table = ResultTable(
        "p_los", ("n_sc", "p_blk", "p_los", "stderr", "trials"),
        config_hash=cfg.config_hash(), master_seed=master_seed)
    ue_cb = cfg.ue_codebook()
    sc_cb = cfg.sc_codebook()

    grid = [(n, p) for n in cfg.experiment.p_los_cluster_sizes
            for p in cfg.experiment.p_los_p_blk]
    for point, (n_sc, p_blk) in enumerate(grid):
        wins = 0
        for t in range(trials):
            geom, ue, blocking = draw_trial(
                cfg, n_sc, p_blk, _trial_seed(master_seed, point, t, 0))
            base, rx_gain = link_budget_dbm(geom, ue, blocking, ue_cb, sc_cb,
                                            cfg.channel.p_ue_dbm)
            top3 = select_top3(base + rx_gain.max(axis=0))
            if not blocking.blocked[top3].any():
                wins += 1
        p_hat = wins / trials
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
        table.add(n_sc, p_blk, p_hat, se, trials)
    return table


# ---------------------------------------------------------------------------
# Paired protocol trials (Figs. 9-11)
# ---------------------------------------------------------------------------

def trial_setups(cfg: SimConfig, n_tx: int, p_ue_dbm: float, gamma: float,
                 trials: int, master_seed: int, point: int,
                 n_sc: int | None = None):
    """(setup, protocol seed) of every trial at one grid point, each
    setup from ``draw_trial`` at ``[channel] p_blk``.

    Each scheme seeds its own generator from the protocol seed, so a
    scheme's IA times do not depend on which other schemes run.
    """
    ue_cb, sc_cb = cfg.ue_codebook(n_tx), cfg.sc_codebook()
    params = cfg.link_params(p_ue_dbm)
    n_cells = cfg.geometry.n_sc if n_sc is None else n_sc
    for t in range(trials):
        geom, ue, blocking = draw_trial(
            cfg, n_cells, cfg.channel.p_blk, _trial_seed(master_seed, point, t, 0))
        setup = TrialSetup(geom, ue, ue_cb, sc_cb, params, cfg.preamble.n_zc, gamma,
                           blocking=blocking, t_ra_s=cfg.protocol.t_ra_s,
                           backhaul_latency_s=cfg.protocol.backhaul_latency_s)
        yield setup, _trial_seed(master_seed, point, t, 2)


def _ia_times(runner, setups) -> np.ndarray:
    return np.array([runner(setup, seed).ia_time_s for setup, seed in setups])


def _paired_point(cfg: SimConfig, n_tx: int, p_ue_dbm: float, gamma: float,
                  trials: int, master_seed: int, point: int):
    """(p_er_pct, stderr_pct, coordinated mean, exhaustive mean) IA times
    over paired trial seeds."""
    setups = list(trial_setups(cfg, n_tx, p_ue_dbm, gamma, trials,
                               master_seed, point))
    exh = _ia_times(run_exhaustive, setups)
    coord = _ia_times(run_coordinated, setups)
    mc, me = float(np.mean(coord)), float(np.mean(exh))
    return ia_time_reduction(mc, me), _ratio_delta_se(coord, exh), mc, me


def point_threshold(cfg: SimConfig, master_seed: int, point: int,
                    target: float | None = None) -> float:
    """gamma_ra calibrated on grid point ``point``'s own seed."""
    seq = cfg.sequence()
    noise_dbm = noise_power(cfg.link_params())
    return cfg.threshold(noise_dbm, seq,
                         seed=np.random.SeedSequence((master_seed, point, 0xCA1)),
                         target=target)


def _reduction(name: str, x_col: str, xs, point_setting, cfg: SimConfig,
               trials: int, master_seed: int) -> ResultTable:
    """Paired reduction over ``xs`` × ``n_tx_values``; ``point_setting(point,
    x)`` gives the grid point's (UE power, threshold)."""
    table = ResultTable(
        name,
        (x_col, "n_tx", "p_er_pct", "stderr_pct",
         "coord_ia_time_s", "exh_ia_time_s", "trials"),
        config_hash=cfg.config_hash(), master_seed=master_seed)
    grid = [(x, n) for n in cfg.experiment.n_tx_values for x in xs]
    for point, (x, n_tx) in enumerate(grid):
        p_ue, gamma = point_setting(point, x)
        table.add(x, n_tx, *_paired_point(cfg, n_tx, p_ue, gamma, trials,
                                          master_seed, point), trials)
    return table


def run_reduction_vs_power(cfg: SimConfig, trials: int,
                           master_seed: int) -> ResultTable:
    """Mean IA-time reduction (signed percent) across a UE power sweep.

    The detection threshold is calibrated once from the base config (a
    receiver property) and held fixed while the transmit power sweeps.
    """
    gamma = point_threshold(cfg, master_seed, 0)
    return _reduction("reduction_power", "p_ue_dbm", cfg.experiment.power_grid_dbm,
                      lambda point, p_ue: (p_ue, gamma), cfg, trials, master_seed)


def run_reduction_vs_pmiss(cfg: SimConfig, trials: int,
                           master_seed: int) -> ResultTable:
    """Mean IA-time reduction across miss-detection targets (miss-mode γ),
    calibrated per grid point."""
    if cfg.detection.mode != "miss":
        cfg = replace(cfg, detection=replace(cfg.detection, mode="miss"))
    return _reduction(
        "reduction_pmiss", "p_miss", cfg.experiment.pmiss_grid,
        lambda point, p_miss: (cfg.channel.p_ue_dbm, point_threshold(
            cfg, master_seed, point, target=p_miss)),
        cfg, trials, master_seed)


def run_time_vs_cluster(cfg: SimConfig, trials: int,
                        master_seed: int) -> ResultTable:
    """Mean IA time per cluster size, normalized by the single-cell baseline.

    Size 1 runs the exhaustive search against the first triangle vertex;
    sizes >= 3 run the coordinated scheme. Each size runs only the scheme
    its row reports. The UE placement distribution is identical throughout.
    """
    table = ResultTable(
        "time_cluster",
        ("n_sc", "norm_ia_time", "stderr", "mean_ia_time_s", "trials"),
        config_hash=cfg.config_hash(), master_seed=master_seed)
    gamma = point_threshold(cfg, master_seed, 0)
    sizes = cfg.experiment.cluster_grid
    if 1 not in sizes or len(set(sizes)) != len(sizes):
        raise ValueError("cluster grid must include the single-cell baseline "
                         "and no size twice")

    results = {}
    for point, n_sc in enumerate(sizes):
        runner = run_exhaustive if n_sc == 1 else run_coordinated
        results[n_sc] = _ia_times(runner, trial_setups(
            cfg, cfg.antenna.n_tx, cfg.channel.p_ue_dbm, gamma, trials,
            master_seed, point, n_sc=n_sc))

    base = results[1]
    base_mean, base_se = _mean_se(base)
    for n_sc in sizes:
        mean, se = _mean_se(results[n_sc])
        norm = mean / base_mean
        if n_sc == 1:
            nse = 0.0  # normalization identity
        else:
            nse = norm * math.sqrt((se / mean) ** 2 + (base_se / base_mean) ** 2)
        table.add(n_sc, norm, nse, mean, trials)
    return table
