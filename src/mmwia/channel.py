"""Link budget, pathloss, thermal noise, and per-link blocking states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .antenna import BeamCodebook
from .geometry import TWO_PI, ClusterGeometry, bearings, circular_distance

PATHLOSS_INTERCEPT_DB = 61.4  # 1 m reference
PATHLOSS_SLOPE = 21.0
NLOS_FLOOR_DB = 1.55  # -10*log10(0.7): one bounce off a 0.7 reflection coefficient


@dataclass(frozen=True)
class LinkBudgetParams:
    p_ue_dbm: float
    noise_density_dbm_hz: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")


def pathloss(d):
    """Pathloss in dB at distance d >= 1 m (array-safe)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("pathloss model is valid only for d >= 1 m")
    out = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE * np.log10(d)
    return float(out) if out.ndim == 0 else out


def noise_power(params: LinkBudgetParams) -> float:
    """Total thermal noise power in dBm over the configured bandwidth."""
    return params.noise_density_dbm_hz + 10.0 * math.log10(params.bandwidth_hz)


class Blocking(NamedTuple):
    """Per-link propagation state of one trial, one entry per cell, or
    (count, n_sc) arrays for a batch of trials.

    A blocked link runs via a reflector whose bearing from the UE is
    ``reflector`` (read on blocked links only) and costs ``penalty_db``
    over the direct path; ``penalty_db`` is 0 on LOS links.
    """

    blocked: np.ndarray
    reflector: np.ndarray
    penalty_db: np.ndarray


def sample_blocking(n_sc: int, p_blk: float, seed=None, *,
                    excess_mean_db: float, count: int | None = None) -> Blocking:
    """Draw independent Bernoulli(p_blk) blocking states for every link, of
    one trial or of ``count`` trials.

    Blocked links get a uniformly random reflector bearing (as seen from
    the UE) and a penalty of NLOS_FLOOR_DB plus an exponential excess
    with the given mean, modelling variable reflector geometry. Each of
    the three fields is drawn for every trial before the next.
    """
    if not 0.0 <= p_blk <= 1.0:
        raise ValueError("p_blk must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    size = n_sc if count is None else (count, n_sc)
    blocked = rng.uniform(size=size) < p_blk
    reflector = rng.uniform(0.0, TWO_PI, size=size)
    excess = rng.exponential(scale=excess_mean_db, size=size)
    return Blocking(blocked, reflector,
                    np.where(blocked, NLOS_FLOOR_DB + excess, 0.0))


def link_budget_dbm(geom: ClusterGeometry, ue: np.ndarray,
                    blocking: Blocking | None, ue_cb: BeamCodebook,
                    sc_cb: BeamCodebook,
                    p_ue_dbm: float) -> tuple[np.ndarray, np.ndarray]:
    """Every beam pair's link budget, split at the Rx antenna.

    Returns the (n_tx, n_sc) dBm map of Tx beam t towards cell i before
    the Rx gain, and the (n_rx, n_sc) Rx gain of cell beam b for the
    arrival direction at cell i; their sum is the preamble power at cell i
    for that (t, i, b): P_UE plus both gains, less the pathloss and the
    blocking penalty, with distances below the pathloss model's 1 m
    reference clamped to 1 m. ``blocking`` None makes every link LOS. A
    blocked link routes via a nominal reflector, so both ends point at it:
    the model fixes only the reflector's bearing from the UE, and placing
    it halfway out along that bearing, at half the direct distance, gives
    the cell a well-defined arrival direction while the pathloss keeps
    using the direct distance. A batch of trials, cells (..., n_sc, 2), UE
    (..., 2) and blocking (..., n_sc), gives (..., n_tx, n_sc) and
    (..., n_rx, n_sc), each trial's slice equal to its own call.
    """
    ue = np.asarray(ue)[..., None, :]
    to_cell = geom.cells - ue
    d = np.hypot(to_cell[..., 0], to_cell[..., 1])
    if not d.all():
        raise ValueError("link undefined: the UE coincides with a cell")
    depart, arrive = to_cell, ue - geom.cells
    if blocking is not None and blocking.blocked.any():
        b = blocking.reflector
        refl = np.stack([ue[..., 0] + 0.5 * d * np.cos(b),
                         ue[..., 1] + 0.5 * d * np.sin(b)], axis=-1)
        via = blocking.blocked[..., None]
        depart = np.where(via, refl - ue, depart)
        arrive = np.where(via, refl - geom.cells, arrive)
    tx_gains = ue_cb.pattern.gain(circular_distance(
        ue_cb.beam_centers[:, None], bearings(depart)[..., None, :]))
    base = p_ue_dbm + tx_gains - pathloss(np.maximum(d, 1.0))[..., None, :]
    if blocking is not None:
        base = base - blocking.penalty_db[..., None, :]
    rx_gain = sc_cb.pattern.gain(circular_distance(
        sc_cb.beam_centers[:, None], bearings(arrive)[..., None, :]))
    return base, rx_gain

