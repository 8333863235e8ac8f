"""Initial-access procedures: exhaustive baseline and the coordinated scheme.

Both schemes run the same slot process. Every cell holds one Rx beam for
a whole round while the UE sweeps all its Tx beams, one preamble slot per
beam; the trial ends at the first slot in which any cell's PDP peak
clears the detection threshold. A scheme is therefore a schedule, the
(rounds, n_sc) array of the Rx beam each cell holds in each round, and
one sweep walks it. The exhaustive baseline's schedule walks each cell
through an independent random Rx order. The coordinated scheme spends
round one measuring every cell's peak per UE Tx beam, exchanges these
reports (together the round-1 peak matrix) over the backhaul, estimates
the UE position, and reorders every cell's remaining Rx sweep towards
the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .antenna import BeamCodebook
from .channel import Blocking, LinkBudgetParams, link_budget_dbm, noise_power
from .estimation import EstimationError, estimate_point
from .geometry import ClusterGeometry, bearings, circular_distance
from .preamble import dbm_to_mw, sample_peaks

EXHAUSTIVE = "exhaustive"
COORDINATED = "coordinated"


@dataclass(frozen=True)
class IaTrialOutcome:
    scheme: str
    success: bool
    slots_used: int
    ia_time_s: float
    rounds: int
    detecting_cell: int | None = None
    detecting_pair: tuple[int, int] | None = None  # (tx beam, rx beam)
    estimated_ue: tuple[float, float] | None = None

    def __post_init__(self):
        if self.success and (self.detecting_cell is None or self.detecting_pair is None):
            raise ValueError("successful outcome must name its detecting cell and pair")


@dataclass(frozen=True, eq=False)
class TrialSetup:
    """Everything a single IA trial needs besides its RNG stream.

    Its link budget is computed on first use and kept, so the schemes of
    a paired trial share one computation; it draws no random numbers.
    """

    geom: ClusterGeometry
    ue: np.ndarray
    ue_codebook: BeamCodebook
    sc_codebook: BeamCodebook
    link_params: LinkBudgetParams
    n_zc: int
    gamma_ra: float
    blocking: Blocking | None = None  # None: every link LOS
    t_ra_s: float = 1e-3
    backhaul_latency_s: float = 0.0

    def __post_init__(self):
        if self.blocking is not None and len(self.blocking.blocked) != self.geom.n_sc:
            raise ValueError("one blocking state per cell required")

    @cached_property
    def link_budget(self) -> tuple[np.ndarray, np.ndarray]:
        """``link_budget_dbm`` of this trial: the (n_tx, n_sc) dBm map before
        the Rx gain and the (n_rx, n_sc) Rx gains, both read-only."""
        budget = link_budget_dbm(self.geom, self.ue, self.blocking, self.ue_codebook,
                                 self.sc_codebook, self.link_params.p_ue_dbm)
        for part in budget:
            part.flags.writeable = False
        return budget


def reorder_rx_beams(codebook: BeamCodebook, estimate,
                     cells: np.ndarray) -> np.ndarray:
    """(n_rx, n_sc) Rx sweeps: column i holds the beam indices of the cell
    at ``cells[i]`` sorted by angular distance to its bearing towards the
    estimate, the lower index first on ties."""
    to_estimate = np.asarray(estimate) - cells
    if not np.hypot(to_estimate[:, 0], to_estimate[:, 1]).all():
        raise ValueError("no bearing from a cell to an estimate on it")
    dist = circular_distance(codebook.beam_centers[:, None],
                             bearings(to_estimate)[None, :])
    return np.argsort(dist, axis=0, kind="stable")


def backhaul_delay_rounds(latency_s: float, round_duration_s: float) -> int:
    """Whole rounds that elapse before reports sent over the backhaul are readable."""
    return max(0, math.ceil(latency_s / round_duration_s))


def ia_time_reduction(t_new: float, t_con: float) -> float:
    """Signed IA-time change in percent; negative means the new scheme is faster."""
    if t_con <= 0.0:
        raise ValueError("baseline IA time must be positive")
    return (t_new - t_con) / t_con * 100.0


def _start_trial(setup: TrialSetup, seed):
    """(n_sc, n_rx) random Rx orders, drawn alike by both schemes so their
    first rounds coincide under a shared seed, and the trial's sweep.

    ``sweep(schedule, start)`` draws one round of peaks (slot t carries Tx
    beam t) per schedule row from ``start`` on and returns (hit, peaks of
    the last round drawn); hit is the first (round, slot, cell) to clear
    the threshold, or None. The link budget comes from ``setup.link_budget``,
    computed once per setup whichever schemes run on it."""
    rng = np.random.default_rng(seed)
    base_dbm, rx_gain = setup.link_budget
    noise_mw = dbm_to_mw(noise_power(setup.link_params))
    cells = np.arange(setup.geom.n_sc)
    orders = np.array([rng.permutation(setup.sc_codebook.n_beams) for _ in cells])

    def sweep(schedule: np.ndarray, start: int):
        for r in range(start, len(schedule)):
            rx_dbm = base_dbm + rx_gain[schedule[r], cells][None, :]
            peaks = sample_peaks(10.0 ** (rx_dbm / 10.0), noise_mw, setup.n_zc, rng)
            # row-major: the earliest slot first, the lowest cell within it
            slots, hit_cells = np.nonzero(peaks > setup.gamma_ra)
            if slots.size:
                return (r, int(slots[0]), int(hit_cells[0])), peaks
        return None, peaks

    return orders, sweep


def _outcome(scheme: str, setup: TrialSetup, schedule: np.ndarray, hit,
             estimate: np.ndarray | None) -> IaTrialOutcome:
    """The outcome of a sweep over ``schedule``; a miss uses every round."""
    n_tx = setup.ue_codebook.n_beams
    if estimate is not None:
        estimate = (float(estimate[0]), float(estimate[1]))
    if hit is None:
        slots_used = len(schedule) * n_tx
        return IaTrialOutcome(scheme, False, slots_used, slots_used * setup.t_ra_s,
                              len(schedule), estimated_ue=estimate)
    r, slot, cell = hit
    slots_used = r * n_tx + slot + 1
    return IaTrialOutcome(scheme, True, slots_used, slots_used * setup.t_ra_s,
                          r + 1, cell, (slot, int(schedule[r, cell])), estimate)


def run_exhaustive(setup: TrialSetup, seed=None) -> IaTrialOutcome:
    """Uncoordinated baseline: every cell walks its own random Rx order."""
    orders, sweep = _start_trial(setup, seed)
    schedule = orders.T
    hit, _ = sweep(schedule, start=0)
    return _outcome(EXHAUSTIVE, setup, schedule, hit, None)


def run_coordinated(setup: TrialSetup, seed=None) -> IaTrialOutcome:
    """Measurement round, backhaul exchange, estimate, reordered sweeps."""
    n_sc, n_rx = setup.geom.n_sc, setup.sc_codebook.n_beams
    if n_sc < 3:
        raise ValueError("coordinated IA needs a cluster of at least three cells")
    orders, sweep = _start_trial(setup, seed)

    # Round 1: random Rx beams, full UE sweep; its (n_tx, n_sc) peaks are
    # the cells' reports.
    first = orders[:, :1].T
    hit, peaks = sweep(first, start=0)
    if hit is not None:
        return _outcome(COORDINATED, setup, first, hit, None)

    try:
        estimate, _, _ = estimate_point(peaks, setup.geom)
    except EstimationError:
        estimate = None

    # n_rx more rounds. Until the reports have crossed the backhaul (and for
    # good without an estimate) each cell keeps walking its original order,
    # wrapping past the round-1 beam, so a full sweep still completes.
    rest = np.roll(orders, -1, axis=1).T
    if estimate is not None:
        delay = backhaul_delay_rounds(setup.backhaul_latency_s,
                                      setup.ue_codebook.n_beams * setup.t_ra_s)
        reordered = reorder_rx_beams(setup.sc_codebook, estimate, setup.geom.cells)
        rest[delay:] = reordered[:max(0, n_rx - delay)]
    schedule = np.vstack([first, rest])
    hit, _ = sweep(schedule, start=1)
    return _outcome(COORDINATED, setup, schedule, hit, estimate)
