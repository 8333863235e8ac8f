"""Initial-access procedures: exhaustive baseline and the coordinated scheme.

Both schemes advance in rounds. Every cell holds one Rx beam for a whole
round while the UE sweeps all its Tx beams, one preamble slot per beam;
the trial ends at the first slot in which any cell's PDP peak clears the
detection threshold. The exhaustive baseline walks each cell through an
independent random Rx order. The coordinated scheme spends round one
gathering per-cell measurement reports, exchanges them over the
backhaul, estimates the UE position, and reorders every cell's remaining
Rx sweep towards the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import BeamCodebook
from .channel import LinkBudgetParams, LinkState, link_budget_dbm, noise_power
from .estimation import (
    EstimationError,
    MeasurementReport,
    estimate_point,
    refine_location,
)
from .geometry import ClusterGeometry, Point2D, circular_distance
from .preamble import ZcSequence, dbm_to_mw, sample_peaks

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
    estimated_ue: Point2D | None = None

    def __post_init__(self):
        if self.success and (self.detecting_cell is None or self.detecting_pair is None):
            raise ValueError("successful outcome must name its detecting cell and pair")


@dataclass(frozen=True)
class TrialSetup:
    """Everything a single IA trial needs besides its RNG stream."""

    geom: ClusterGeometry
    ue_codebook: BeamCodebook
    sc_codebook: BeamCodebook
    link_params: LinkBudgetParams
    seq: ZcSequence
    gamma_ra: float
    link_states: tuple[LinkState, ...] | None = None
    t_ra_s: float = 1e-3
    noiseless: bool = False
    backhaul_latency_s: float = 0.0
    grid_resolution_m: float = 1.0

    def states(self) -> list[LinkState]:
        if self.link_states is not None:
            if len(self.link_states) != self.geom.n_sc:
                raise ValueError("one link state per cell required")
            return list(self.link_states)
        return [LinkState(False) for _ in range(self.geom.n_sc)]


def reorder_rx_beams(codebook: BeamCodebook, estimate: Point2D,
                     cell_position: Point2D) -> tuple[int, ...]:
    """Beam indices sorted by angular distance to the bearing towards the estimate."""
    bearing = cell_position.bearing_to(estimate)
    dist = circular_distance(codebook.beam_centers, bearing)
    return tuple(int(i) for i in np.argsort(dist, kind="stable"))


def backhaul_delay_rounds(latency_s: float, round_duration_s: float) -> int:
    """Whole rounds that elapse before reports sent over the backhaul are readable."""
    return max(0, math.ceil(latency_s / round_duration_s))


def ia_time_reduction(t_new: float, t_con: float) -> float:
    """Signed IA-time change in percent; negative means the new scheme is faster."""
    if t_con <= 0.0:
        raise ValueError("baseline IA time must be positive")
    return (t_new - t_con) / t_con * 100.0


class _TrialEngine:
    """Shared slot machinery: per-round link budget, peak draws, detection."""

    def __init__(self, setup: TrialSetup, rng: np.random.Generator):
        self.setup = setup
        self.rng = rng
        geom = setup.geom
        self.n_sc = geom.n_sc
        self.n_tx = setup.ue_codebook.n_beams
        self.n_rx = setup.sc_codebook.n_beams
        self._base_dbm, self._rx_gain = link_budget_dbm(
            geom, setup.states(), setup.ue_codebook, setup.sc_codebook,
            setup.link_params.p_ue_dbm)
        self._noise_mw = (0.0 if setup.noiseless
                          else dbm_to_mw(noise_power(setup.link_params)))

    def rx_power_dbm(self, rx_beams) -> np.ndarray:
        """(n_tx, n_sc) received power for this round's per-cell Rx beams."""
        gains = self._rx_gain[np.asarray(rx_beams), np.arange(self.n_sc)]
        return self._base_dbm + gains[None, :]

    def round_peaks(self, rx_beams) -> np.ndarray:
        """(n_tx slots, n_sc) PDP peak values for one full UE sweep; slot t
        carries Tx beam t."""
        rx_mw = 10.0 ** (self.rx_power_dbm(rx_beams) / 10.0)
        return sample_peaks(rx_mw, self._noise_mw, self.setup.seq.n_zc, self.rng)

    def first_detection(self, peaks: np.ndarray):
        """Earliest (slot, cell) whose peak clears the threshold, or None."""
        hits = peaks > self.setup.gamma_ra
        for slot in range(self.n_tx):
            cells = np.nonzero(hits[slot])[0]
            if cells.size:
                return slot, int(cells[0])
        return None


def _finish(scheme, engine, setup, round_index, rx_beams, slot, cell, estimate):
    slots_used = round_index * engine.n_tx + slot + 1
    return IaTrialOutcome(
        scheme=scheme,
        success=True,
        slots_used=slots_used,
        ia_time_s=slots_used * setup.t_ra_s,
        rounds=round_index + 1,
        detecting_cell=cell,
        detecting_pair=(slot, rx_beams[cell]),
        estimated_ue=estimate,
    )


def _fail(scheme, setup, engine, rounds, estimate=None):
    slots_used = rounds * engine.n_tx
    return IaTrialOutcome(
        scheme=scheme,
        success=False,
        slots_used=slots_used,
        ia_time_s=slots_used * setup.t_ra_s,
        rounds=rounds,
        estimated_ue=estimate,
    )


def _sweep_orders(engine: _TrialEngine) -> list[np.ndarray]:
    """One independent random Rx order per cell (drawn identically by both
    schemes so their first rounds coincide under a shared seed)."""
    return [engine.rng.permutation(engine.n_rx) for _ in range(engine.n_sc)]


def run_exhaustive(setup: TrialSetup, seed=None,
                   max_rounds: int | None = None) -> IaTrialOutcome:
    """Uncoordinated baseline: every cell walks its own random Rx order."""
    engine = _TrialEngine(setup, np.random.default_rng(seed))
    orders = _sweep_orders(engine)
    rounds = engine.n_rx if max_rounds is None else min(max_rounds, engine.n_rx)
    for r in range(rounds):
        rx_beams = tuple(int(order[r]) for order in orders)
        hit = engine.first_detection(engine.round_peaks(rx_beams))
        if hit is not None:
            return _finish(EXHAUSTIVE, engine, setup, r, rx_beams, *hit, None)
    return _fail(EXHAUSTIVE, setup, engine, rounds)


def run_coordinated(setup: TrialSetup, seed=None,
                    max_rounds: int | None = None) -> IaTrialOutcome:
    """Measurement round, backhaul exchange, estimate, reordered sweeps."""
    if setup.geom.n_sc < 3:
        raise ValueError("coordinated IA needs a cluster of at least three cells")
    engine = _TrialEngine(setup, np.random.default_rng(seed))
    orders = _sweep_orders(engine)
    if max_rounds is None:
        max_rounds = engine.n_rx + 1

    # Round 1: random Rx beams, full UE sweep, reports recorded as measured.
    rx_beams = tuple(int(order[0]) for order in orders)
    peaks = engine.round_peaks(rx_beams)
    hit = engine.first_detection(peaks)
    if hit is not None:
        return _finish(COORDINATED, engine, setup, 0, rx_beams, *hit, None)

    reports = [MeasurementReport(cell_index=i, peak_per_tx_beam=peaks[:, i].copy(),
                                 rx_beam_used=rx_beams[i])
               for i in range(engine.n_sc)]
    delay = backhaul_delay_rounds(setup.backhaul_latency_s,
                                  engine.n_tx * setup.t_ra_s)

    estimate = None
    try:
        if engine.n_sc > 3:
            band = setup.ue_codebook.pattern.phi_ml
            estimate, _ = refine_location(reports, setup.geom, band,
                                          setup.grid_resolution_m)
        else:
            estimate, _, _ = estimate_point(reports, setup.geom)
    except EstimationError:
        estimate = None

    # Fallback keeps walking the original order (wrapping past the round-1
    # beam) so a full sweep still completes within max_rounds.
    fallback = [np.roll(orders[i], -1) for i in range(engine.n_sc)]
    reordered = None
    if estimate is not None:
        reordered = [reorder_rx_beams(setup.sc_codebook, estimate,
                                      setup.geom.sc_positions[i])
                     for i in range(engine.n_sc)]

    for r in range(1, max_rounds):
        use_reordered = reordered is not None and (r - 1) >= delay
        rx_beams = tuple(
            int(reordered[i][(r - 1 - delay) % engine.n_rx]) if use_reordered
            else int(fallback[i][(r - 1) % engine.n_rx])
            for i in range(engine.n_sc)
        )
        hit = engine.first_detection(engine.round_peaks(rx_beams))
        if hit is not None:
            return _finish(COORDINATED, engine, setup, r, rx_beams, *hit, estimate)
    return _fail(COORDINATED, setup, engine, max_rounds, estimate)
