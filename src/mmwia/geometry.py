"""Cluster layout, UE placement and the exact angular/metric ground truth.

Positions are plain arrays: a cluster is the (n_sc, 2) array of its cell
coordinates, and a UE is a (2,) array kept apart from the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    # adding 2*pi to a denormal-magnitude negative rounds back to 2*pi
    return 0.0 if a >= TWO_PI else a


def circular_distance(a, b):
    """Unsigned angular distance in [0, pi] between two azimuths (array-safe)."""
    d = np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi)
    return float(d) if d.ndim == 0 else d


def bearings(vectors: np.ndarray) -> np.ndarray:
    """Azimuths in [0, 2*pi) of the (..., 2) direction vectors, wrapped as
    :func:`normalize_angle` wraps (a zero vector reads 0: callers that
    must reject coincident points check the distances they compute)."""
    a = np.mod(np.arctan2(vectors[..., 1], vectors[..., 0]), TWO_PI)
    # a tiny negative angle plus 2*pi rounds to 2*pi
    return np.where(a < TWO_PI, a, 0.0)


@dataclass(frozen=True, eq=False)
class ClusterGeometry:
    """Small-cell positions, a read-only (n_sc, 2) array.

    The first three cells always form the base triangle (counterclockwise);
    any further cells are auxiliary members of the same cluster.
    """

    cells: np.ndarray

    def __post_init__(self):
        cells = np.array(self.cells, dtype=float)
        if cells.ndim != 2 or cells.shape[1] != 2 or len(cells) < 1:
            raise ValueError("cells must be a non-empty (n_sc, 2) array")
        if not np.isfinite(cells).all():
            raise ValueError("coordinates must be finite")
        if len(set(map(tuple, cells.tolist()))) < len(cells):
            raise ValueError("two cells coincide")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def n_sc(self) -> int:
        return len(self.cells)

    def triangle(self) -> np.ndarray:
        if self.n_sc < 3:
            raise ValueError("no base triangle: cluster has fewer than 3 cells")
        return self.cells[:3]


def build_cluster(n_sc: int, d: float, layout_seed=None) -> ClusterGeometry:
    """Build a cluster of ``n_sc`` cells with inter-cell spacing ``d``.

    The first three cells are the vertices of an equilateral triangle of
    side ``d``, counterclockwise from the origin; extra cells are drawn
    uniformly from the triangle's circumscribed disk.
    """
    if n_sc < 1:
        raise ValueError("n_sc must be >= 1")
    if d <= 0:
        raise ValueError("inter-cell distance must be positive")
    cells = [(0.0, 0.0), (d, 0.0), (d / 2.0, d * math.sqrt(3.0) / 2.0)][:n_sc]
    if n_sc > 3:
        rng = np.random.default_rng(layout_seed)
        cx, cy = d / 2.0, d / (2.0 * math.sqrt(3.0))  # circumcenter
        radius = d / math.sqrt(3.0)
        k = n_sc - 3
        # uniform in the disk: r = R*sqrt(u)
        r = radius * np.sqrt(rng.uniform(size=k))
        phi = rng.uniform(0.0, TWO_PI, size=k)
        cells.extend((cx + ri * math.cos(pi), cy + ri * math.sin(pi))
                     for ri, pi in zip(r.tolist(), phi.tolist()))
    return ClusterGeometry(cells)


def place_ue(geom: ClusterGeometry, placement_seed=None) -> np.ndarray:
    """Draw a point uniformly inside the base triangle, as a (2,) array."""
    (ax, ay), (bx, by), (cx, cy) = geom.triangle().tolist()
    rng = np.random.default_rng(placement_seed)
    u, v = rng.uniform(size=2).tolist()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return np.array([ax + u * (bx - ax) + v * (cx - ax),
                     ay + u * (by - ay) + v * (cy - ay)])


def true_angles(geom: ClusterGeometry, ue) -> tuple[float, float, float]:
    """Angles subtended at the UE between consecutive base-triangle cells.

    theta_i is the angle between the UE->cell_i and UE->cell_{i+1}
    directions (cyclic over the first three cells). For a UE inside the
    triangle the three angles sum to exactly 2*pi.
    """
    vectors = geom.triangle() - np.asarray(ue)
    if not np.hypot(vectors[:, 0], vectors[:, 1]).all():
        raise ValueError("angles undefined at a UE on a cell")
    b = bearings(vectors).tolist()
    return tuple(normalize_angle(b[(i + 1) % 3] - b[i]) for i in range(3))
