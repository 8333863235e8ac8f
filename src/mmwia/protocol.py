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
duration, backhaul latency) from the config. It walks round one once,
then restarts the generator from the state round one left for each
scheme's later rounds, so a scheme's outcomes do not depend on which
other schemes run beside it.
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


def _sweep(budget, noise_mw: float, n_zc: int, gamma: float, schedule: np.ndarray,
           start: int, hit: np.ndarray, rng):
    """Walk rounds ``start`` on of ``schedule`` (T, rounds, n_sc) for every
    trial whose ``hit`` is still -1, slot t carrying Tx beam t, with the
    length-``n_zc`` peaks drawn from ``rng`` on the ``link_budget_dbm``
    ``budget`` of the trials.

    Sets each such trial's ``hit`` (T,) to the index of its first peak to
    clear ``gamma`` in its (rounds, n_tx, n_sc) hit map, row-major: the
    earliest round, then slot, then the lowest cell within it. Returns the
    peaks of the last round drawn, one (n_tx, n_sc) matrix per trial that
    drew it."""
    base_dbm, rx_gain = budget
    n_sc = base_dbm.shape[-1]
    cells = np.arange(n_sc)
    per_round = base_dbm.shape[-2] * n_sc
    todo = np.flatnonzero(hit < 0)
    peaks = None
    for r in range(start, schedule.shape[1]):
        if not todo.size:
            break
        # the received power in mW, 10 ** (dBm / 10), in one buffer
        rx = base_dbm[todo]
        rx += rx_gain[todo[:, None], schedule[todo, r], cells][:, None, :]
        rx /= 10.0
        np.power(10.0, rx, out=rx)
        peaks = sample_peaks(rx, noise_mw, n_zc, rng)
        hits = (peaks > gamma).reshape(todo.size, -1)
        first = hits.argmax(axis=1)
        found = hits[np.arange(todo.size), first]
        hit[todo[found]] = r * per_round + first[found]
        todo = todo[~found]
    return peaks


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


def run_batch(cfg: SimConfig, gamma: float, draw, seed,
              schemes=(EXHAUSTIVE, COORDINATED)) -> tuple[IaOutcomes, ...]:
    """The outcomes under each of ``schemes``, in that order, of the trials
    ``draw`` at the grid point ``cfg`` with detection threshold ``gamma``.

    ``draw`` is the (cells (T, n_sc, 2), UEs (T, 2), blocking) triple of
    ``experiments.draw_trial``; blocking None leaves every link LOS. Seeds
    the generator, draws the Rx orders and walks round one, each cell on
    the first beam of its order under the UE's full Tx sweep, once for
    every scheme. Each scheme then sweeps its own schedule from round two
    on a copy of round one's hits, with the generator restarted from the
    state round one left: its outcomes are those it has run alone."""
    cells, ue, blocking = draw
    if cells.ndim != 3 or np.shape(ue) != (len(cells), 2):
        raise ValueError("a batch needs cells (T, n_sc, 2) and UEs (T, 2)")
    if blocking is not None and blocking.blocked.shape != cells.shape[:2]:
        raise ValueError("one blocking state per cell required")
    n_trials, ue_cb, sc_cb = len(cells), cfg.ue_codebook(), cfg.sc_codebook()
    n_tx, n_zc, t_ra_s = ue_cb.n_beams, cfg.preamble.n_zc, cfg.protocol.t_ra_s
    rng = np.random.default_rng(seed)
    orders = _rx_orders(cells, sc_cb.n_beams, rng)
    budget = link_budget_dbm(cells, ue, blocking, ue_cb, sc_cb, cfg.channel.p_ue_dbm)
    noise_mw = dbm_to_mw(noise_power(cfg.channel))
    hit = np.full(n_trials, -1)
    peaks = _sweep(budget, noise_mw, n_zc, gamma, orders[:, :, :1].transpose(0, 2, 1),
                   0, hit, rng)
    state = rng.bit_generator.state
    outcomes = []
    for scheme in schemes:
        if scheme == EXHAUSTIVE:
            schedule, estimates = orders.transpose(0, 2, 1), np.full((n_trials, 2), np.nan)
        elif scheme == COORDINATED:
            delay = backhaul_delay_rounds(cfg.protocol.backhaul_latency_s, n_tx * t_ra_s)
            schedule, estimates = _coordinated_schedule(cells, sc_cb, orders, hit, peaks,
                                                        delay)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        rng.bit_generator.state = state
        scheme_hit = hit.copy()
        _sweep(budget, noise_mw, n_zc, gamma, schedule, 1, scheme_hit, rng)
        outcomes.append(_outcomes(scheme, schedule, scheme_hit, estimates, n_tx, t_ra_s))
    return tuple(outcomes)
