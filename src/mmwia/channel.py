"""Link budget, pathloss, thermal noise, and per-link blocking states."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .antenna import BeamCodebook
from .geometry import TWO_PI, bearings, circular_distance

PATHLOSS_INTERCEPT_DB = 61.4  # 1 m reference
PATHLOSS_SLOPE = 21.0
NLOS_FLOOR_DB = 1.55  # -10*log10(0.7): one bounce off a 0.7 reflection coefficient


def _pathloss_db(d):
    """``pathloss`` without its range check, for distances already clamped."""
    return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE * np.log10(d)


def pathloss(d):
    """Pathloss in dB at distance d >= 1 m (array-safe)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("pathloss model is valid only for d >= 1 m")
    out = _pathloss_db(d)
    return float(out) if out.ndim == 0 else out


def noise_power(ch) -> float:
    """Total thermal noise power in dBm over the bandwidth of ``ch``, a
    ``config.ChannelConfig``; the bandwidth must be positive."""
    if not ch.bandwidth_hz > 0:
        raise ValueError("bandwidth must be positive")
    return ch.noise_density_dbm_hz + 10.0 * math.log10(ch.bandwidth_hz)


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


def _paths(cells: np.ndarray, ue: np.ndarray, blocking: Blocking | None):
    """(distances, departure bearings at the UE, arrival bearings at the
    cells) of every link, each (..., n_sc); ``link_budget_dbm`` documents
    the reflector routing of blocked links.

    Only the blocked links are routed: their flat indices pick, by 1-D
    ``take``, their UE coordinates (one UE per ``n_sc`` links), cell
    coordinates, distances and reflector bearings, and the four routed
    differences are written over the direct ones, so a routed link's
    bits do not depend on which other links are blocked.
    """
    ue = np.asarray(ue)
    ux, uy = ue[..., 0, None], ue[..., 1, None]
    cx, cy = cells[..., 0], cells[..., 1]
    dx, dy = cx - ux, cy - uy
    d = np.hypot(dx, dy)
    if not d.all():
        raise ValueError("link undefined: the UE coincides with a cell")
    ax, ay = ux - cx, uy - cy
    if blocking is not None:
        via = np.flatnonzero(blocking.blocked)
        ue_of = via // d.shape[-1]
        u0 = ue[..., 0].reshape(-1).take(ue_of)
        v0 = ue[..., 1].reshape(-1).take(ue_of)
        half, b = 0.5 * d.take(via), blocking.reflector.take(via)
        rx = u0 + half * np.cos(b)
        ry = v0 + half * np.sin(b)
        dx.reshape(-1)[via] = rx - u0
        dy.reshape(-1)[via] = ry - v0
        ax.reshape(-1)[via] = rx - cx.reshape(-1).take(via)
        ay.reshape(-1)[via] = ry - cy.reshape(-1).take(via)
    return d, bearings(dx, dy), bearings(ax, ay)


def _before_rx_dbm(tx_gain: np.ndarray, d: np.ndarray, blocking: Blocking | None,
                   p_ue_dbm: float) -> np.ndarray:
    """P_UE plus the (..., beams, n_sc) Tx gains, less each link's pathloss
    (at the distance clamped to the model's 1 m reference) and blocking
    penalty."""
    base = p_ue_dbm + tx_gain - _pathloss_db(np.maximum(d, 1.0))[..., None, :]
    if blocking is not None:
        base = base - blocking.penalty_db[..., None, :]
    return base


def _nearest_beam_gain(cb: BeamCodebook, azimuth: np.ndarray) -> np.ndarray:
    """(..., 1, n_sc) gain of the beam whose centre lies nearest each of the
    (..., n_sc) azimuths in [0, 2*pi), which is the largest of any beam.

    The nearest centre is one of the two around ``azimuth * n / 2*pi``,
    at most pi/n away, and the main lobe falls with the offset. The
    side-lobe floor beats the main lobe only where the lobe's edge lies
    below it (beamwidths from 80.5 degrees), and there only beyond 104
    degrees off, farther than any nearest centre of two or more beams.
    """
    k = (azimuth * (cb.n_beams / TWO_PI)).astype(np.intp)
    centers = cb.beam_centers
    off = np.minimum(_near_offset(np.take(centers, k, mode="wrap"), azimuth),
                     _near_offset(np.take(centers, k + 1, mode="wrap"), azimuth))
    return cb.pattern.gain(off)[..., None, :]


def _near_offset(center: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """``circular_distance(center, azimuth)``, bit for bit, for either of
    the two centres around an azimuth in [0, 2*pi) in a codebook of n
    beams. Such a centre lies less than a turn below the azimuth or at
    most min(pi, 2*pi/n) above it (the one centre of a single beam, at 0,
    is never above), so ``(center - azimuth) + pi`` lies in [-pi, 2*pi]:
    one wrap of a negative value suffices, and at 2*pi, which
    ``circular_distance`` wraps to 0, both give pi."""
    r = center - azimuth
    r += np.pi
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    r -= np.pi
    return np.abs(r, out=r)


def link_budget_dbm(cells: np.ndarray, ue: np.ndarray,
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
    d, depart, arrive = _paths(cells, ue, blocking)
    tx_gains = ue_cb.pattern.gain(circular_distance(
        ue_cb.beam_centers[:, None], depart[..., None, :]))
    rx_gain = sc_cb.pattern.gain(circular_distance(
        sc_cb.beam_centers[:, None], arrive[..., None, :]))
    return _before_rx_dbm(tx_gains, d, blocking, p_ue_dbm), rx_gain


def best_pair_dbm(cells: np.ndarray, ue: np.ndarray,
                  blocking: Blocking | None, ue_cb: BeamCodebook,
                  sc_cb: BeamCodebook, p_ue_dbm: float) -> np.ndarray:
    """Preamble power at every cell under its best (Tx, Rx) beam pair, (n_sc,)
    or (..., n_sc) for a batch of trials.

    Equal, bit for bit, to ``(base + rx_gain.max(-2)[..., None, :]).max(-2)``
    of ``link_budget_dbm``'s maps, which it does not build: each end takes
    the gain of its beam nearest the link's bearing, and the maximum
    commutes with the monotone floating-point additions that follow.
    """
    d, depart, arrive = _paths(cells, ue, blocking)
    base = _before_rx_dbm(_nearest_beam_gain(ue_cb, depart), d, blocking, p_ue_dbm)
    return (base + _nearest_beam_gain(sc_cb, arrive))[..., 0, :]
