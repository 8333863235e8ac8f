"""Link budget, pathloss, thermal noise, and per-link blocking states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .antenna import AntennaPattern, BeamCodebook
from .geometry import (
    TWO_PI,
    ClusterGeometry,
    bearings,
    circular_distance,
    normalize_angle,
)

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
    out = _pathloss(d)
    return float(out) if out.ndim == 0 else out


def _pathloss(d: np.ndarray) -> np.ndarray:
    """``pathloss`` without the domain check, for distances already >= 1 m."""
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE * np.log10(d)


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
    arrival direction at cell i; their sum is ``received_power`` for that
    (t, i, b), with distances below the pathloss model's 1 m reference
    clamped to 1 m. ``blocking`` None makes every link LOS; a blocked link
    runs via its nominal reflector (see ``link_bearings``). A batch of
    trials, cells (..., n_sc, 2), UE (..., 2) and blocking (..., n_sc),
    gives (..., n_tx, n_sc) and (..., n_rx, n_sc), each trial's slice
    equal to its own call.
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
    # circular_distance keeps every offset in [0, pi] and the distances are
    # clamped to 1 m, so the unchecked kernels stand in for gain/pathloss
    tx_gains = ue_cb.pattern._gain(circular_distance(
        ue_cb.beam_centers[:, None], bearings(depart)[..., None, :]))
    base = p_ue_dbm + tx_gains - _pathloss(np.maximum(d, 1.0))[..., None, :]
    if blocking is not None:
        base = base - blocking.penalty_db[..., None, :]
    rx_gain = sc_cb.pattern._gain(circular_distance(
        sc_cb.beam_centers[:, None], bearings(arrive)[..., None, :]))
    return base, rx_gain


def _bearing(x0: float, y0: float, x1: float, y1: float) -> float:
    if x0 == x1 and y0 == y1:
        raise ValueError("bearing undefined between coincident points")
    return normalize_angle(math.atan2(y1 - y0, x1 - x0))


def link_bearings(cell, ue, reflector: float | None = None) -> tuple[float, float]:
    """(departure azimuth at the UE, arrival azimuth seen from the cell) of
    one link, in scalar math; ``cell`` and ``ue`` are (x, y) pairs.

    A LOS link (``reflector`` None) uses the direct geometry. A blocked
    link routes via a nominal reflector, so both ends point at it: the
    model fixes only the reflector's bearing from the UE, and placing it
    halfway out along that bearing, at half the direct distance, gives
    the cell a well-defined arrival direction while the pathloss keeps
    using the direct distance.
    """
    (cx, cy), (ux, uy) = cell, ue
    if reflector is None:
        return _bearing(ux, uy, cx, cy), _bearing(cx, cy, ux, uy)
    half = 0.5 * math.hypot(ux - cx, uy - cy)
    rx = ux + half * math.cos(reflector)
    ry = uy + half * math.sin(reflector)
    return _bearing(ux, uy, rx, ry), _bearing(cx, cy, rx, ry)


def received_power(
    params: LinkBudgetParams,
    cell,
    ue,
    ue_beam: float,
    ue_pattern: AntennaPattern,
    sc_beam: float,
    sc_pattern: AntennaPattern,
    reflector: float | None = None,
    penalty_db: float = 0.0,
) -> float:
    """Preamble power in dBm at one cell for beams centred at the given
    azimuths; the scalar reference for ``link_budget_dbm``."""
    depart, arrive = link_bearings(cell, ue, reflector)
    d = math.hypot(ue[0] - cell[0], ue[1] - cell[1])
    g_ue = ue_pattern.gain(circular_distance(ue_beam, depart))
    g_sc = sc_pattern.gain(circular_distance(sc_beam, arrive))
    return params.p_ue_dbm + g_ue + g_sc - pathloss(d) - penalty_db
