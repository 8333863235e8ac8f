"""Initial-access procedures: exhaustive baseline and the coordinated scheme.

Both schemes run the same slot process. Every cell holds one Rx beam for
a whole round while the UE sweeps all its Tx beams, one preamble slot per
beam; a trial ends at the first slot in which any cell's PDP peak clears
the detection threshold. A scheme is therefore a schedule, the
(trials, rounds, n_sc) array of the Rx beam each cell holds in each
round, and one sweep walks it for a whole batch of trials, one
``sample_peaks`` call per round over the trials still running, all drawn
from the scheme's one generator. The exhaustive baseline's schedule
walks each cell through an independent random Rx order. The coordinated
scheme spends round one measuring every cell's peak per UE Tx beam,
exchanges these reports (together the round-1 peak matrix) over the
backhaul, estimates the UE position, and reorders every cell's remaining
Rx sweep towards the estimate.

Under one seed both schemes draw the Rx orders and then walk the same
round one, so ``run_paired_batch`` walks it once and forks the generator
for the baseline's later rounds: the same bytes as each scheme's own
runner, with one round-one sweep fewer.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .antenna import BeamCodebook
from .channel import Blocking, LinkBudgetParams, link_budget_dbm, noise_power
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


class TrialBatch:
    """T trials that share codebooks, link parameters and threshold, each
    with its own cluster (cells (T, n_sc, 2)), UE ((T, 2)) and blocking
    ((T, n_sc) arrays). A single trial is a batch of one.

    The link budget is computed on first use and kept, so the schemes of
    a paired batch share one computation; it draws no random numbers.
    """

    def __init__(self, cells: np.ndarray, ue: np.ndarray,
                 ue_codebook: BeamCodebook, sc_codebook: BeamCodebook,
                 link_params: LinkBudgetParams, n_zc: int, gamma_ra: float,
                 blocking: Blocking | None = None,  # None: every link LOS
                 *, t_ra_s: float, backhaul_latency_s: float):
        if cells.ndim != 3 or np.shape(ue) != (len(cells), 2):
            raise ValueError("a batch needs cells (T, n_sc, 2) and UEs (T, 2)")
        if blocking is not None and blocking.blocked.shape != cells.shape[:2]:
            raise ValueError("one blocking state per cell required")
        self.cells, self.ue, self.blocking = cells, ue, blocking
        self.ue_codebook, self.sc_codebook = ue_codebook, sc_codebook
        self.link_params, self.n_zc, self.gamma_ra = link_params, n_zc, gamma_ra
        self.t_ra_s, self.backhaul_latency_s = t_ra_s, backhaul_latency_s

    @property
    def size(self) -> int:
        return len(self.ue)

    @cached_property
    def link_budget(self) -> tuple[np.ndarray, np.ndarray]:
        """``link_budget_dbm`` of every trial: the (T, n_tx, n_sc) dBm map
        before the Rx gain and the (T, n_rx, n_sc) Rx gains, read-only."""
        budget = link_budget_dbm(self.cells, self.ue, self.blocking, self.ue_codebook,
                                 self.sc_codebook, self.link_params.p_ue_dbm)
        for part in budget:
            part.flags.writeable = False
        return budget


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
    """Whole rounds that elapse before reports sent over the backhaul are readable."""
    return max(0, math.ceil(latency_s / round_duration_s))


def ia_time_reduction(t_new: float, t_con: float) -> float:
    """Signed IA-time change in percent; negative means the new scheme is faster."""
    if t_con <= 0.0:
        raise ValueError("baseline IA time must be positive")
    return (t_new - t_con) / t_con * 100.0


def _rx_orders(batch: TrialBatch, rng) -> np.ndarray:
    """(T, n_sc, n_rx) random Rx orders, one per cell of every trial; both
    schemes draw them first, so their first rounds coincide under a
    shared seed."""
    n_rx = batch.sc_codebook.n_beams
    beams = np.broadcast_to(np.arange(n_rx), (*batch.cells.shape[:2], n_rx))
    return rng.permuted(beams, axis=-1)


def _sweep(batch: TrialBatch, schedule: np.ndarray, start: int, hit: np.ndarray, rng):
    """Walk rounds ``start`` on of ``schedule`` (T, rounds, n_sc) for every
    trial whose ``hit`` is still -1, slot t carrying Tx beam t, with the
    peaks drawn from ``rng``.

    Sets each such trial's ``hit`` (T,) to the index of its first peak to
    clear the threshold in its (rounds, n_tx, n_sc) hit map, row-major:
    the earliest round, then slot, then the lowest cell within it. Returns
    the peaks of the last round drawn, one (n_tx, n_sc) matrix per trial
    that drew it."""
    base_dbm, rx_gain = batch.link_budget
    noise_mw = dbm_to_mw(noise_power(batch.link_params))
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
        peaks = sample_peaks(rx, noise_mw, batch.n_zc, rng)
        hits = (peaks > batch.gamma_ra).reshape(todo.size, -1)
        first = hits.argmax(axis=1)
        found = hits[np.arange(todo.size), first]
        hit[todo[found]] = r * per_round + first[found]
        todo = todo[~found]
    return peaks


def _outcomes(scheme: str, batch: TrialBatch, schedule: np.ndarray, hit: np.ndarray,
              estimates: np.ndarray) -> IaOutcomes:
    """Every trial's outcome of a sweep over ``schedule``; a miss uses
    every round."""
    n_tx, n_rounds, n_sc = batch.ue_codebook.n_beams, *schedule.shape[1:]
    miss = hit < 0
    k, cell = np.divmod(hit, n_sc)  # k: the hit's slot, counted over all rounds
    r, slot = np.divmod(k, n_tx)
    pair = np.empty((batch.size, 2), dtype=hit.dtype)
    pair[:, 0], pair[:, 1] = slot, schedule[np.arange(batch.size), r, cell]
    # a miss uses every slot of every round and detects nothing
    k[miss], r[miss] = n_rounds * n_tx - 1, n_rounds - 1
    cell[miss] = pair[miss] = -1
    slots_used = k + 1
    return IaOutcomes(scheme, ~miss, slots_used, slots_used * batch.t_ra_s, r + 1,
                      cell, pair, estimates)


def _round_one(batch: TrialBatch, seed):
    """The round both schemes open with: seed the generator, draw the Rx
    orders, then sweep round 0 on each cell's first beam with the UE's
    full Tx sweep.

    Returns the generator, the read-only (T, n_sc, n_rx) orders, ``hit``
    (T,) and the round's peaks, one (n_tx, n_sc) matrix per trial."""
    rng = np.random.default_rng(seed)
    orders = _rx_orders(batch, rng)
    orders.flags.writeable = False
    hit = np.full(batch.size, -1)
    peaks = _sweep(batch, orders[:, :, :1].transpose(0, 2, 1), 0, hit, rng)
    return rng, orders, hit, peaks


def _exhaustive_rest(batch: TrialBatch, rng, orders: np.ndarray,
                     hit: np.ndarray) -> IaOutcomes:
    """Rounds 2 on of the baseline: every cell walks on along its order."""
    schedule = orders.transpose(0, 2, 1)
    _sweep(batch, schedule, 1, hit, rng)
    return _outcomes(EXHAUSTIVE, batch, schedule, hit,
                     np.full((batch.size, 2), np.nan))


def _coordinated_rest(batch: TrialBatch, rng, orders: np.ndarray, hit: np.ndarray,
                      peaks: np.ndarray) -> IaOutcomes:
    """Backhaul exchange of the round-1 ``peaks``, estimate, reordered sweeps."""
    n_rx = batch.sc_codebook.n_beams
    estimates = np.full((batch.size, 2), np.nan)
    estimated = np.flatnonzero(hit < 0)  # the trials round one missed ...
    if estimated.size:
        points, status = estimate_points(peaks[estimated], batch.cells[estimated])
        located = status <= CENTROID
        estimated = estimated[located]  # ... and of those, the ones located
        estimates[estimated] = points[located]

    # n_rx more rounds. Until the reports have crossed the backhaul (and for
    # good without an estimate) each cell keeps walking its original order,
    # wrapping past the round-1 beam, so a full sweep still completes.
    schedule = orders[..., [*range(n_rx), 0]].transpose(0, 2, 1)
    if estimated.size:
        delay = backhaul_delay_rounds(batch.backhaul_latency_s,
                                      batch.ue_codebook.n_beams * batch.t_ra_s)
        reordered = reorder_rx_beams(batch.sc_codebook, estimates[estimated],
                                     batch.cells[estimated])
        schedule[estimated, 1 + delay:] = reordered[:, :max(0, n_rx - delay)]
    _sweep(batch, schedule, 1, hit, rng)
    return _outcomes(COORDINATED, batch, schedule, hit, estimates)


def _check_coordinated(batch: TrialBatch) -> None:
    if batch.cells.shape[-2] < 3:
        raise ValueError("coordinated IA needs a cluster of at least three cells")


def run_exhaustive_batch(batch: TrialBatch, seed=None) -> IaOutcomes:
    """Uncoordinated baseline: every cell walks its own random Rx order."""
    rng, orders, hit, _ = _round_one(batch, seed)
    return _exhaustive_rest(batch, rng, orders, hit)


def run_coordinated_batch(batch: TrialBatch, seed=None) -> IaOutcomes:
    """Measurement round, backhaul exchange, estimate, reordered sweeps.

    Round 1 uses random Rx beams and the full UE sweep; each trial's
    (n_tx, n_sc) peaks are its cells' reports."""
    _check_coordinated(batch)
    return _coordinated_rest(batch, *_round_one(batch, seed))


def run_paired_batch(batch: TrialBatch, seed=None) -> tuple[IaOutcomes, IaOutcomes]:
    """(exhaustive, coordinated) outcomes of one batch under one seed, equal
    field for field to ``run_exhaustive_batch`` and ``run_coordinated_batch``
    run alone.

    Round one is the same under both schemes, so it is walked once; the
    generator and ``hit`` then fork, and each scheme continues on its own
    copy."""
    _check_coordinated(batch)
    rng, orders, hit, peaks = _round_one(batch, seed)
    fork = np.random.Generator(type(rng.bit_generator)())
    fork.bit_generator.state = rng.bit_generator.state
    return (_exhaustive_rest(batch, fork, orders, hit.copy()),
            _coordinated_rest(batch, rng, orders, hit, peaks))
