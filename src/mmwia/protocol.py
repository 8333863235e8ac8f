"""Initial-access procedures: exhaustive baseline and the coordinated scheme.

Both schemes run the same slot process. Every cell holds one Rx beam for
a whole round while the UE sweeps all its Tx beams, one preamble slot per
beam; a trial ends at the first slot in which any cell's PDP peak clears
the detection threshold. A scheme is therefore a schedule, the
(trials, rounds, n_sc) array of the Rx beam each cell holds in each
round, and one sweep walks it for a whole batch of trials, one
``sample_peaks`` call per round over the trials still running. Both
schemes open with the same round one: every cell holds the first beam of
an independent random Rx order. The exhaustive baseline's schedule then
walks each cell on along its order. The coordinated scheme spends round
one measuring every cell's peak per UE Tx beam, exchanges these reports
(together the round-1 peak matrix) over the backhaul, estimates the UE
position, and reorders every cell's remaining Rx sweep towards the
estimate.

``run_batch`` is the one runner. It takes a grid point's ``SimConfig``,
the calibrated threshold and a draw of trials (cells, UEs, blocking), and
reads every setting (codebooks, link budget, preamble length, slot
duration, backhaul latency) from the config. It is its two steps on one
generator: ``round_one`` draws the Rx orders and round one's peaks once,
and ``later_rounds`` sweeps one scheme from round two, with the
generator restarted from the state round one left for each scheme, so a
scheme's outcomes do not depend on which other schemes run beside it.
A cell's link, Rx order and peaks are its own, so ``RoundOne.first_cells``
turns round one of a cluster into round one of its first n cells.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .antenna import BeamCodebook
from .channel import link_budget_dbm, noise_power
from .config import SimConfig
from .estimation import CENTROID, estimate_points
from .geometry import bearings, circular_distance
from .preamble import dbm_to_mw, sample_peaks

EXHAUSTIVE = "exhaustive"
COORDINATED = "coordinated"


class IaOutcomes(NamedTuple):
    """One scheme's outcome of every trial of a batch, as (T, ...) arrays.

    A censored trial (``success`` False) used every slot of its schedule
    and has detecting cell and pair -1; ``estimated_ue`` is NaN where the
    trial made no estimate.
    """

    scheme: str
    success: np.ndarray         # (T,) bool
    slots_used: np.ndarray      # (T,) int
    ia_time_s: np.ndarray       # (T,) float
    rounds: np.ndarray          # (T,) int
    detecting_cell: np.ndarray  # (T,) int
    detecting_pair: np.ndarray  # (T, 2) int: (tx beam, rx beam)
    estimated_ue: np.ndarray    # (T, 2) float


def reorder_rx_beams(codebook: BeamCodebook, estimates,
                     cells: np.ndarray) -> np.ndarray:
    """(T, n_rx, n_sc) Rx sweeps for T estimates (T, 2) and their clusters
    (T, n_sc, 2): column i of trial t holds the beam indices of the cell at
    ``cells[t, i]`` sorted by angular distance to its bearing towards
    ``estimates[t]``, the lower index first on ties."""
    estimates = np.asarray(estimates)
    x = estimates[..., 0, None] - cells[..., 0]
    y = estimates[..., 1, None] - cells[..., 1]
    if not np.hypot(x, y).all():
        raise ValueError("no bearing from a cell to an estimate on it")
    dist = circular_distance(codebook.beam_centers[:, None],
                             bearings(x, y)[..., None, :])
    return np.argsort(dist, axis=-2, kind="stable")


def backhaul_delay_rounds(latency_s: float, round_duration_s: float) -> int:
    """Whole rounds that elapse before reports sent over the backhaul are
    readable. A latency of k rounds whose quotient lands a rounding error
    above k is k rounds."""
    return max(0, math.ceil(latency_s / round_duration_s - 1e-9))


def ia_time_reduction(t_new: float, t_con: float) -> float:
    """Signed IA-time change in percent; negative means the new scheme is faster."""
    if t_con <= 0.0:
        raise ValueError("baseline IA time must be positive")
    return (t_new - t_con) / t_con * 100.0


def _rx_orders(cells: np.ndarray, n_rx: int, rng) -> np.ndarray:
    """(T, n_sc, n_rx) random Rx orders, one per cell of every trial of
    ``cells`` (T, n_sc, 2), the generator's first draw."""
    beams = np.broadcast_to(np.arange(n_rx), (*cells.shape[:2], n_rx))
    return rng.permuted(beams, axis=-1)


def _peaks(budget, rows: np.ndarray, beams: np.ndarray, noise_mw: float, n_zc: int,
           rng) -> np.ndarray:
    """The length-``n_zc`` peaks (len(rows), n_tx, n_sc), drawn from ``rng``,
    of one round of the trials ``rows`` of the ``link_budget_dbm``
    ``budget``, each cell on its beam of ``beams`` (len(rows), n_sc) and
    slot t carrying Tx beam t."""
    base_dbm, rx_gain = budget
    # the received power in mW, 10 ** (dBm / 10), in one buffer
    rx = base_dbm[rows]
    rx += rx_gain[rows[:, None], beams, np.arange(beams.shape[-1])][:, None, :]
    rx /= 10.0
    np.power(10.0, rx, out=rx)
    return sample_peaks(rx, noise_mw, n_zc, rng)


def _first_hits(peaks: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's index of its first peak of ``peaks`` (T, n_tx, n_sc) to
    clear ``gamma``, row-major (the earliest slot, then the lowest cell
    within it), and whether it has one, as two (T,) arrays."""
    hits = (peaks > gamma).reshape(len(peaks), -1)
    first = hits.argmax(axis=1)
    return first, hits[np.arange(len(peaks)), first]


def _sweep(budget, noise_mw: float, n_zc: int, gamma: float, schedule: np.ndarray,
           hit: np.ndarray, rng) -> None:
    """Walk rounds two on of ``schedule`` (T, rounds, n_sc) for every trial
    whose ``hit`` is still -1, with the peaks drawn from ``rng``.

    Sets each such trial's ``hit`` (T,) to the index of its first peak to
    clear ``gamma`` in its (rounds, n_tx, n_sc) hit map, row-major: the
    earliest round, then slot, then the lowest cell within it."""
    per_round = budget[0].shape[-2] * budget[0].shape[-1]
    todo = np.flatnonzero(hit < 0)
    for r in range(1, schedule.shape[1]):
        if not todo.size:
            break
        first, found = _first_hits(
            _peaks(budget, todo, schedule[todo, r], noise_mw, n_zc, rng), gamma)
        hit[todo[found]] = r * per_round + first[found]
        todo = todo[~found]


def _outcomes(scheme: str, schedule: np.ndarray, hit: np.ndarray,
              estimates: np.ndarray, n_tx: int, t_ra_s: float) -> IaOutcomes:
    """Every trial's outcome of a sweep of ``n_tx`` slots of ``t_ra_s`` a
    round over ``schedule``; a miss uses every round."""
    n_trials, n_rounds, n_sc = schedule.shape
    miss = hit < 0
    k, cell = np.divmod(hit, n_sc)  # k: the hit's slot, counted over all rounds
    r, slot = np.divmod(k, n_tx)
    pair = np.empty((n_trials, 2), dtype=hit.dtype)
    pair[:, 0], pair[:, 1] = slot, schedule[np.arange(n_trials), r, cell]
    # a miss uses every slot of every round and detects nothing
    k[miss], r[miss] = n_rounds * n_tx - 1, n_rounds - 1
    cell[miss] = pair[miss] = -1
    slots_used = k + 1
    return IaOutcomes(scheme, ~miss, slots_used, slots_used * t_ra_s, r + 1,
                      cell, pair, estimates)


def _coordinated_schedule(cells: np.ndarray, sc_codebook: BeamCodebook,
                          orders: np.ndarray, hit: np.ndarray, peaks: np.ndarray,
                          delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Backhaul exchange of the round-1 ``peaks``, estimate, and sweeps
    reordered ``delay`` rounds after round one: the (T, n_rx + 1, n_sc)
    schedule and the (T, 2) estimates."""
    if cells.shape[-2] < 3:
        raise ValueError("coordinated IA needs a cluster of at least three cells")
    n_rx = sc_codebook.n_beams
    estimates = np.full((len(cells), 2), np.nan)
    estimated = np.flatnonzero(hit < 0)  # the trials round one missed ...
    if estimated.size:
        points, status = estimate_points(peaks[estimated], cells[estimated])
        located = status <= CENTROID
        estimated = estimated[located]  # ... and of those, the ones located
        estimates[estimated] = points[located]

    # n_rx more rounds. Until the reports have crossed the backhaul (and for
    # good without an estimate) each cell keeps walking its original order,
    # wrapping past the round-1 beam, so a full sweep still completes.
    schedule = orders[..., [*range(n_rx), 0]].transpose(0, 2, 1)
    if estimated.size:
        reordered = reorder_rx_beams(sc_codebook, estimates[estimated], cells[estimated])
        schedule[estimated, 1 + delay:] = reordered[:, :max(0, n_rx - delay)]
    return schedule, estimates


class RoundOne(NamedTuple):
    """A batch of trials at the end of round one: the cells (T, n_sc, 2),
    the ``link_budget_dbm`` maps of every link, each cell's random Rx
    order (T, n_sc, n_rx) and the round's peaks (T, n_tx, n_sc), each cell
    on the first beam of its order under the UE's full Tx sweep."""

    cells: np.ndarray
    budget: tuple[np.ndarray, np.ndarray]
    orders: np.ndarray
    peaks: np.ndarray

    def first_cells(self, n: int) -> RoundOne:
        """Round one of the same trials on the clusters of their first
        ``n`` cells: every per-cell array's first n columns. A cell's link
        budget, Rx order and peaks depend on no other cell, so these
        columns are a round one of the n-cell clusters."""
        base, rx_gain = self.budget
        return RoundOne(self.cells[:, :n], (base[..., :n], rx_gain[..., :n]),
                        self.orders[:, :n], self.peaks[..., :n])


def round_one(cfg: SimConfig, draw, rng) -> RoundOne:
    """Round one of the trials ``draw`` at the grid point ``cfg``: the Rx
    orders, then the round's peaks, drawn from ``rng``.

    ``draw`` is the (cells (T, n_sc, 2), UEs (T, 2), blocking) triple of
    ``experiments.draw_trial``; blocking None leaves every link LOS."""
    cells, ue, blocking = draw
    if cells.ndim != 3 or np.shape(ue) != (len(cells), 2):
        raise ValueError("a batch needs cells (T, n_sc, 2) and UEs (T, 2)")
    if blocking is not None and blocking.blocked.shape != cells.shape[:2]:
        raise ValueError("one blocking state per cell required")
    sc_cb = cfg.sc_codebook()
    orders = _rx_orders(cells, sc_cb.n_beams, rng)
    budget = link_budget_dbm(cells, ue, blocking, cfg.ue_codebook(), sc_cb,
                             cfg.channel.p_ue_dbm)
    peaks = _peaks(budget, np.arange(len(cells)), orders[..., 0],
                   dbm_to_mw(noise_power(cfg.channel)), cfg.preamble.n_zc, rng)
    return RoundOne(cells, budget, orders, peaks)


def later_rounds(cfg: SimConfig, gamma: float, first: RoundOne, rng,
                 scheme: str) -> IaOutcomes:
    """``scheme``'s outcomes of the trials of ``first`` at the grid point
    ``cfg`` with detection threshold ``gamma``: round one's hits, read
    from its peaks, then the scheme's schedule swept from round two with
    the peaks drawn from ``rng``."""
    n_tx, t_ra_s = first.peaks.shape[-2], cfg.protocol.t_ra_s
    slot, found = _first_hits(first.peaks, gamma)
    hit = np.where(found, slot, -1)
    if scheme == EXHAUSTIVE:
        schedule = first.orders.transpose(0, 2, 1)
        estimates = np.full((len(hit), 2), np.nan)
    elif scheme == COORDINATED:
        delay = backhaul_delay_rounds(cfg.protocol.backhaul_latency_s, n_tx * t_ra_s)
        schedule, estimates = _coordinated_schedule(first.cells, cfg.sc_codebook(),
                                                    first.orders, hit, first.peaks, delay)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    _sweep(first.budget, dbm_to_mw(noise_power(cfg.channel)), cfg.preamble.n_zc, gamma,
           schedule, hit, rng)
    return _outcomes(scheme, schedule, hit, estimates, n_tx, t_ra_s)


def run_batch(cfg: SimConfig, gamma: float, draw, seed,
              schemes=(EXHAUSTIVE, COORDINATED)) -> tuple[IaOutcomes, ...]:
    """The outcomes under each of ``schemes``, in that order, of the trials
    ``draw`` at the grid point ``cfg`` with detection threshold ``gamma``.

    Seeds one generator, runs ``round_one`` on it once for every scheme,
    then each scheme's ``later_rounds`` with the generator restarted from
    the state round one left: its outcomes are those it has run alone."""
    rng = np.random.default_rng(seed)
    first = round_one(cfg, draw, rng)
    state = rng.bit_generator.state
    outcomes = []
    for scheme in schemes:
        rng.bit_generator.state = state
        outcomes.append(later_rounds(cfg, gamma, first, rng, scheme))
    return tuple(outcomes)
