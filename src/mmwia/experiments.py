"""Seeded Monte Carlo campaigns over the IA protocol and channel models.

A grid point is the campaign's ``SimConfig`` with the point's axis
fields replaced (``SimConfig.replace``); every function below it reads
every setting from that one config. The chunk is the unit of trials.
Every campaign runs its trials in chunks of ``CHUNK`` trials (the last
chunk holds what is left). Every random draw descends from (master seed,
grid point index, chunk index, stream); the chunk size is part of the
stream. ``draw_trial`` is every campaign's draw of clusters, UEs and
blocking, one call per chunk. A chunk of paired protocol trials is its
grid point's config plus the draw from its stream 0, which
``protocol.run_batch`` runs with one link budget, one round one and one
estimator call, seeded from the chunk's stream 2; each scheme's later
rounds start from the generator state round one left, so a scheme's IA
times are the same whether it runs alone or paired. A P_LOS chunk is
drawn from its stream 3 and scored with one best-beam-pair power and one
ranking call. Any point of these campaigns reruns bit-identically on its
own. A miss-mode threshold is calibrated from (master seed, index,
0xCA1) (``point_threshold``): at index 0 in a campaign that calibrates
once, and at a miss target's index in ``pmiss_grid`` in
``reduction-pmiss``, whose codebook sizes share their target's threshold.

The time-cluster campaign instead runs every cluster size on the same
trials: a chunk is drawn once at the grid's largest size (at least 3)
from stream 0 of (master seed, 0, chunk), and ``protocol.round_one``
runs once on it from stream 1; each size sweeps its scheme from round
two on its first n cells (``RoundOne.first_cells``), seeded from stream
2 of its own grid point. Each size keeps its own cluster's distribution,
since the extra cells, Rx orders and peaks are i.i.d. per cell, but a
row depends on the grid's largest size, and its ``stderr`` is the paired
delta-method SE of the normalized time.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import best_pair_dbm, noise_power, sample_blocking
from .config import SimConfig
from .geometry import build_cluster, place_ue
from .protocol import (
    COORDINATED,
    EXHAUSTIVE,
    ia_time_reduction,
    later_rounds,
    round_one,
    run_batch,
)


class ResultTable:
    def __init__(self, name: str, columns: tuple[str, ...], config_hash: str,
                 master_seed: int):
        self.name, self.columns = name, columns
        self.rows: list[tuple] = []
        self.config_hash, self.master_seed = config_hash, master_seed

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


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


# trials per chunk. Chunks of 256 run the 2000-trial time-cluster
# campaign in half the time of chunks of 32 (0.23 against 0.50 s on a
# 2-vCPU Xeon) at 2 MB more peak memory (39.6 against 37.8 MB); one chunk
# per grid point is barely faster (0.21 s) and peaks at 52.7 MB. P_LOS,
# which builds no per-beam maps, peaks 0.5 MB higher than with chunks of
# 32 (37.6 against 37.1 MB on the benchmark's p-los workload)
CHUNK = 256


def _seed(master: int, point: int, chunk: int, stream: int):
    """Seed of a protocol chunk's draw (stream 0) or protocol (stream 2), of
    a time-cluster chunk's shared round one (stream 1), or of a P_LOS
    chunk (stream 3)."""
    return np.random.SeedSequence((master, point, chunk, stream))


def _chunks(trials: int, size: int):
    """(chunk index, trial count) of every chunk of ``size`` of ``trials``."""
    return [(c, min(size, trials - start))
            for c, start in enumerate(range(0, trials, size))]


def draw_trial(cfg: SimConfig, seed, count: int):
    """(clusters, UEs, blocking) of ``count`` trials of ``cfg`` from one
    generator seeded by ``seed``: read-only cells (count, n_sc, 2), UEs
    (count, 2) and a ``Blocking`` of (count, n_sc) arrays, or None at
    ``[channel] p_blk`` 0.

    The draw goes field by field across the trials: the extra cells'
    radii, then their angles, the UEs, then the blocked flags, reflector
    bearings and excess losses, so a draw of one consumes the stream as
    one trial always has. At ``p_blk`` 0 no link is blocked whatever the
    flags' draws, and the reflector and excess draws are read on blocked
    links only; as they come last, the draw skips all three and moves no
    other.
    """
    n_sc, p_blk = cfg.geometry.n_sc, cfg.channel.p_blk
    rng = np.random.default_rng(seed)
    cells = build_cluster(n_sc, cfg.geometry.side_m, rng, count)
    ue = place_ue(cells, rng, count)
    blocking = None if p_blk == 0 else sample_blocking(
        n_sc, p_blk, rng, count=count, excess_mean_db=cfg.channel.nlos_excess_mean_db)
    return cells, ue, blocking


def _ratio_se(x: np.ndarray, y: np.ndarray, scale: float = 1.0) -> float:
    """Delta-method std-error of scale*mean(x)/mean(y) for paired samples;
    scale 100 gives that of the percent change 100*(mean(x)-mean(y))/mean(y)."""
    n = len(x)
    if n < 2:
        return 0.0
    ybar = float(np.mean(y))
    h = scale * (x - (np.mean(x) / ybar) * y) / ybar
    return float(np.std(h, ddof=1) / math.sqrt(n))


# ---------------------------------------------------------------------------
# Fig. 7: probability that the three selected cells are all line-of-sight
# ---------------------------------------------------------------------------

def _top3_los_count(power: np.ndarray, blocked: np.ndarray) -> int:
    """How many rows of the (trials, n_sc) powers have three unblocked
    cells first in ``select_top3``'s order (descending power, ties to the
    lower index), without sorting.

    The rival is each row's first blocked cell in that order, the
    strongest with the lowest index on ties; every cell ranked above it is
    unblocked, so a row wins when at least three are. A row with no
    blocked cell has rival power -inf, below every cell.
    """
    masked = np.where(blocked, power, -np.inf)
    rival = masked.argmax(-1)[:, None]
    rival_power = np.take_along_axis(masked, rival, -1)
    above = power > rival_power
    above |= (power == rival_power) & (np.arange(power.shape[-1]) < rival)
    return int(np.count_nonzero(above.sum(-1) >= 3))


def run_p_los(cfg: SimConfig, trials: int, master_seed: int) -> ResultTable:
    """LOS-selection probability over (cluster size, blocking probability).

    Per chunk of trials: draw the clusters, UEs and blocking, take every
    cell's received power under its best beam pair (``best_pair_dbm``),
    and count the trials whose three strongest cells, in the order the
    coordinated scheme ranks them, are all unblocked. The noiseless PDP
    peak of a cell is N^2 times its received power, so ranking received
    powers ranks the peaks.
    """
    table = ResultTable(
        "p_los", ("n_sc", "p_blk", "p_los", "stderr", "trials"),
        config_hash=cfg.config_hash(), master_seed=master_seed)
    ue_cb = cfg.ue_codebook()
    sc_cb = cfg.sc_codebook()

    grid = [(n, p) for n in cfg.experiment.p_los_cluster_sizes
            for p in cfg.experiment.p_los_p_blk]
    for point, (n_sc, p_blk) in enumerate(grid):
        point_cfg = cfg.replace(geometry={"n_sc": n_sc}, channel={"p_blk": p_blk})
        wins = 0
        for chunk, count in _chunks(trials, CHUNK):
            cells, ue, blocking = draw_trial(
                point_cfg, _seed(master_seed, point, chunk, 3), count)
            if blocking is None:  # every link LOS
                wins += count
                continue
            power = best_pair_dbm(cells, ue, blocking, ue_cb, sc_cb,
                                  cfg.channel.p_ue_dbm)
            wins += _top3_los_count(power, blocking.blocked)
        p_hat = wins / trials
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
        table.add(n_sc, p_blk, p_hat, se, trials)
    return table


# ---------------------------------------------------------------------------
# Paired protocol trials (Figs. 9-11)
# ---------------------------------------------------------------------------

def trial_batches(cfg: SimConfig, trials: int, master_seed: int, point: int):
    """(draw, protocol seed) of every chunk of trials at grid point
    ``point``, whose config is ``cfg``: the chunk's ``draw_trial`` from its
    stream 0, and the seed of its stream 2.

    ``run_batch`` runs a draw at ``cfg`` under a threshold, seeding one
    generator from the protocol seed for every scheme it runs; a scheme's
    IA times do not depend on which other schemes run beside it.
    """
    for chunk, count in _chunks(trials, CHUNK):
        yield (draw_trial(cfg, _seed(master_seed, point, chunk, 0), count),
               _seed(master_seed, point, chunk, 2))


def _ia_times(cfg: SimConfig, gamma: float, trials: int, master_seed: int,
              point: int, schemes) -> list[np.ndarray]:
    """Every trial's IA time at grid point ``point`` under each of
    ``schemes``, over all the chunks, one array per scheme."""
    runs = [run_batch(cfg, gamma, draw, seed, schemes)
            for draw, seed in trial_batches(cfg, trials, master_seed, point)]
    return [np.concatenate([out.ia_time_s for out in scheme]) for scheme in zip(*runs)]


def _paired_point(cfg: SimConfig, gamma: float, trials: int, master_seed: int,
                  point: int):
    """(p_er_pct, stderr_pct, coordinated mean, exhaustive mean) IA times
    over paired trials, both schemes of a chunk from one ``run_batch``."""
    exh, coord = _ia_times(cfg, gamma, trials, master_seed, point,
                           (EXHAUSTIVE, COORDINATED))
    mc, me = float(np.mean(coord)), float(np.mean(exh))
    return ia_time_reduction(mc, me), _ratio_se(coord, exh, 100.0), mc, me


def point_threshold(cfg: SimConfig, master_seed: int, index: int) -> float:
    """gamma_ra of ``cfg`` calibrated on the seed (master seed, ``index``,
    0xCA1): ``index`` is 0 where a campaign calibrates once, and a miss
    target's index in ``pmiss_grid`` in ``reduction-pmiss``, whose
    codebook sizes all run under their target's threshold."""
    return cfg.threshold(noise_power(cfg.channel), cfg.sequence(),
                         seed=np.random.SeedSequence((master_seed, index, 0xCA1)))


def _reduction(name: str, x_col: str, axis: tuple[str, str], xs, cfg: SimConfig,
               trials: int, master_seed: int, gammas) -> ResultTable:
    """Paired reduction over ``xs`` × ``n_tx_values``: a grid point is
    ``cfg`` with ``axis``, its (section, key), at x and ``[antenna] n_tx``
    replaced, and runs under the threshold ``gammas`` holds for its x."""
    section, key = axis
    table = ResultTable(
        name,
        (x_col, "n_tx", "p_er_pct", "stderr_pct",
         "coord_ia_time_s", "exh_ia_time_s", "trials"),
        config_hash=cfg.config_hash(), master_seed=master_seed)
    grid = [(x, g, n) for n in cfg.experiment.n_tx_values for x, g in zip(xs, gammas)]
    for point, (x, gamma, n_tx) in enumerate(grid):
        point_cfg = cfg.replace(antenna={"n_tx": n_tx}, **{section: {key: x}})
        table.add(x, n_tx, *_paired_point(point_cfg, gamma, trials, master_seed, point),
                  trials)
    return table


def run_reduction_vs_power(cfg: SimConfig, trials: int,
                           master_seed: int) -> ResultTable:
    """Mean IA-time reduction (signed percent) across a UE power sweep.

    The detection threshold is calibrated once from the base config (a
    receiver property) and held fixed while the transmit power sweeps.
    """
    powers = cfg.experiment.power_grid_dbm
    gamma = point_threshold(cfg, master_seed, 0)
    return _reduction("reduction_power", "p_ue_dbm", ("channel", "p_ue_dbm"),
                      powers, cfg, trials, master_seed, [gamma] * len(powers))


def run_reduction_vs_pmiss(cfg: SimConfig, trials: int,
                           master_seed: int) -> ResultTable:
    """Mean IA-time reduction across miss-detection targets (miss-mode γ).

    Each target's threshold is calibrated once, on the seed of its index
    in ``pmiss_grid``, and every ``n_tx_values`` row of that target runs
    under it: the reference link the calibration runs on reads the cell
    codebook, not the UE's.
    """
    cfg = cfg.replace(detection={"mode": "miss"})
    targets = cfg.experiment.pmiss_grid
    gammas = [point_threshold(cfg.replace(detection={"target": p}), master_seed, i)
              for i, p in enumerate(targets)]
    return _reduction("reduction_pmiss", "p_miss", ("detection", "target"),
                      targets, cfg, trials, master_seed, gammas)


def run_time_vs_cluster(cfg: SimConfig, trials: int,
                        master_seed: int) -> ResultTable:
    """Mean IA time per cluster size, normalized by the single-cell baseline.

    Size 1 runs the exhaustive search against the first triangle vertex;
    sizes >= 3 run the coordinated scheme. Each size runs only the scheme
    its row reports. Every size sees the same trials: a chunk is drawn
    once at the grid's largest size (at least 3) from stream 0 of
    (master seed, 0, chunk), and its Rx orders and round one are drawn
    once from stream 1. Each size takes its first n cells' columns of
    the draw, link budget, orders and round-one peaks (``first_cells``)
    and sweeps its scheme from round two seeded by stream 2 of its own
    grid point. A size's marginal distribution is that of its own
    cluster, since the extra cells, orders and peaks are i.i.d. per
    cell; a row depends on the grid's largest size, so unlike the other
    campaigns it reruns bit-identically only within the same grid. The
    ``stderr`` of the normalized time is the paired delta-method one.
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

    top = cfg.replace(geometry={"n_sc": max(3, *sizes)})
    points = [(n_sc, cfg.replace(geometry={"n_sc": n_sc}),
               EXHAUSTIVE if n_sc == 1 else COORDINATED) for n_sc in sizes]
    times = [[] for _ in sizes]
    for chunk, count in _chunks(trials, CHUNK):
        draw = draw_trial(top, _seed(master_seed, 0, chunk, 0), count)
        first = round_one(top, draw, np.random.default_rng(_seed(master_seed, 0, chunk, 1)))
        for point, (n_sc, point_cfg, scheme) in enumerate(points):
            out = later_rounds(point_cfg, gamma, first.first_cells(n_sc),
                               np.random.default_rng(_seed(master_seed, point, chunk, 2)),
                               scheme)
            times[point].append(out.ia_time_s)

    times = [np.concatenate(t) for t in times]
    base = times[sizes.index(1)]
    base_mean = float(np.mean(base))
    for n_sc, t in zip(sizes, times):
        mean = float(np.mean(t))
        table.add(n_sc, mean / base_mean, _ratio_se(t, base), mean, trials)
    return table
