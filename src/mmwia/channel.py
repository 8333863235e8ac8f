"""Link budget, pathloss, thermal noise, and per-link blocking states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import AntennaPattern, BeamCodebook
from .geometry import (
    TWO_PI,
    Bearing,
    ClusterGeometry,
    Point2D,
    circular_distance,
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


@dataclass(frozen=True)
class LinkState:
    """Per (cell, UE) propagation state for one trial."""

    blocked: bool
    reflector_bearing: Bearing | None = None  # from the UE; present iff blocked
    nlos_penalty_db: float = 0.0

    def __post_init__(self):
        if self.blocked:
            if self.reflector_bearing is None:
                raise ValueError("blocked link needs a reflector bearing")
            if self.nlos_penalty_db < NLOS_FLOOR_DB:
                raise ValueError(f"NLOS penalty must be >= {NLOS_FLOOR_DB} dB")
        elif self.nlos_penalty_db != 0.0:
            raise ValueError("LOS link cannot carry an NLOS penalty")


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


def sample_blocking(n_sc: int, p_blk: float, seed=None,
                    excess_mean_db: float = 10.0) -> list[LinkState]:
    """Draw independent Bernoulli(p_blk) blocking states for every link.

    Blocked links get a uniformly random reflector bearing (as seen from
    the UE) and a penalty of NLOS_FLOOR_DB plus an exponential excess
    with the given mean, modelling variable reflector geometry.
    """
    if not 0.0 <= p_blk <= 1.0:
        raise ValueError("p_blk must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    blocked = rng.uniform(size=n_sc) < p_blk
    bearings = rng.uniform(0.0, TWO_PI, size=n_sc)
    excess = rng.exponential(scale=excess_mean_db, size=n_sc)
    states = []
    for i in range(n_sc):
        if blocked[i]:
            states.append(LinkState(True, Bearing(float(bearings[i])),
                                    NLOS_FLOOR_DB + float(excess[i])))
        else:
            states.append(LinkState(False))
    return states


def reflector_point(geom: ClusterGeometry, cell_index: int, link: LinkState) -> Point2D:
    """Nominal reflector location: halfway out along the reflector bearing.

    The model fixes only the bearing from the UE; the radial placement at
    half the direct distance gives the cell a well-defined arrival
    direction while the pathloss keeps using the direct distance.
    """
    d = geom.ue_position.distance_to(geom.sc_positions[cell_index])
    b = link.reflector_bearing.angle
    return Point2D(
        geom.ue_position.x + 0.5 * d * math.cos(b),
        geom.ue_position.y + 0.5 * d * math.sin(b),
    )


def link_bearings(geom: ClusterGeometry, cell_index: int,
                  link: LinkState) -> tuple[float, float]:
    """(departure azimuth at the UE, arrival azimuth seen from the cell).

    LOS links use the direct geometry; blocked links route via the
    reflector so both ends point at it instead of at each other.
    """
    cell = geom.sc_positions[cell_index]
    if not link.blocked:
        return geom.ue_position.bearing_to(cell), cell.bearing_to(geom.ue_position)
    refl = reflector_point(geom, cell_index, link)
    return geom.ue_position.bearing_to(refl), cell.bearing_to(refl)


def link_budget_dbm(geom: ClusterGeometry, states, ue_cb: BeamCodebook,
                    sc_cb: BeamCodebook,
                    p_ue_dbm: float) -> tuple[np.ndarray, np.ndarray]:
    """Every beam pair's link budget, split at the Rx antenna.

    Returns the (n_tx, n_sc) dBm map of Tx beam t towards cell i before
    the Rx gain, and the (n_rx, n_sc) Rx gain of cell beam b for the
    arrival direction at cell i; their sum is ``received_power`` for that
    (t, i, b), with distances below the pathloss model's 1 m reference
    clamped to 1 m.
    """
    depart, arrive = zip(*(
        link_bearings(geom, i, states[i]) for i in range(geom.n_sc)
    ))
    dists = np.maximum(
        [geom.ue_position.distance_to(p) for p in geom.sc_positions], 1.0)
    penalties = np.array([s.nlos_penalty_db for s in states])
    tx_gains = ue_cb.pattern.gain(circular_distance(
        ue_cb.beam_centers[:, None], np.asarray(depart)[None, :]))
    base = p_ue_dbm + tx_gains - pathloss(dists)[None, :] - penalties[None, :]
    rx_gain = sc_cb.pattern.gain(circular_distance(
        sc_cb.beam_centers[:, None], np.asarray(arrive)[None, :]))
    return base, rx_gain


def received_power(
    params: LinkBudgetParams,
    geom: ClusterGeometry,
    link: LinkState,
    ue_beam: float,
    ue_pattern: AntennaPattern,
    sc_beam: float,
    sc_pattern: AntennaPattern,
    cell_index: int,
) -> float:
    """Preamble power in dBm at one cell for beams centred at the given azimuths."""
    depart, arrive = link_bearings(geom, cell_index, link)
    d = geom.ue_position.distance_to(geom.sc_positions[cell_index])
    g_ue = ue_pattern.gain(circular_distance(ue_beam, depart))
    g_sc = sc_pattern.gain(circular_distance(sc_beam, arrive))
    return params.p_ue_dbm + g_ue + g_sc - pathloss(d) - link.nlos_penalty_db
