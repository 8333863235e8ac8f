"""Directional antenna pattern and beam codebooks.

The gain pattern is a two-piece model: a quadratic main lobe of width
2.6x the half-power beamwidth, and a flat side-lobe floor. Peak and
side-lobe gains are closed forms of the half-power beamwidth alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI

MAIN_LOBE_FACTOR = 2.6  # main-lobe width / half-power beamwidth


@dataclass(frozen=True)
class AntennaPattern:
    """Closed-form directional pattern parameterized by half-power beamwidth.

    phi_3db is in radians; g0 and g_sl in dBi. The side-lobe constant's
    logarithm takes the beamwidth in degrees (the reference model is
    degree-based); the sine in g0 is unit-free.
    """

    phi_3db: float
    phi_ml: float
    g0: float
    g_sl: float

    def gain(self, offset):
        """Gain in dBi at angular offset(s) from boresight, offsets in [0, pi]."""
        off = np.asarray(offset, dtype=float)
        if np.any(off < 0.0) or np.any(off > math.pi + 1e-12):
            raise ValueError("offset must lie in [0, pi]")
        out = self._gain(off)
        return float(out) if out.ndim == 0 else out

    def _gain(self, off: np.ndarray) -> np.ndarray:
        """``gain`` without the domain check, for offsets known to lie in
        [0, pi] (``circular_distance`` output)."""
        main = self.g0 - 3.01 * (2.0 * off / self.phi_3db) ** 2
        return np.where(off <= self.phi_ml / 2.0, main, self.g_sl)


def make_pattern(phi_3db: float) -> AntennaPattern:
    """Build the pattern for a half-power beamwidth in radians, 0 < phi_3db < pi."""
    if not (0.0 < phi_3db < math.pi):
        raise ValueError("phi_3db must lie in (0, pi)")
    g0 = 10.0 * math.log10((1.6162 / math.sin(phi_3db / 2.0)) ** 2)
    g_sl = -0.4111 * math.log(math.degrees(phi_3db)) - 10.579
    return AntennaPattern(
        phi_3db=phi_3db,
        phi_ml=MAIN_LOBE_FACTOR * phi_3db,
        g0=g0,
        g_sl=g_sl,
    )


@dataclass(frozen=True)
class BeamCodebook:
    """Evenly spaced beam centers sharing one pattern; beams sweep in index order."""

    beam_centers: np.ndarray  # radians in [0, 2*pi), ascending from 0
    pattern: AntennaPattern

    @property
    def n_beams(self) -> int:
        return len(self.beam_centers)


def make_codebook(n_beams: int, phi_3db: float | None = None) -> BeamCodebook:
    """Codebook of ``n_beams`` centers spaced 2*pi/n from azimuth 0.

    phi_3db defaults to the beam spacing (beams then overlap at their
    2.6x main-lobe width).
    """
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")
    if phi_3db is None:
        # spacing-matched beamwidth, clamped into the pattern's domain for
        # the degenerate 1- and 2-beam codebooks
        phi_3db = min(TWO_PI / n_beams, 0.95 * math.pi)
    return BeamCodebook(np.arange(n_beams) * TWO_PI / n_beams,
                        make_pattern(phi_3db))

