"""Cluster layout, UE placement and the angle arithmetic on azimuths.

Positions are plain arrays: a cluster is the (n_sc, 2) array of its cell
coordinates, and a UE is a (2,) array kept apart from the layout. A batch
of trials puts a leading trial axis on both, (count, n_sc, 2) and
(count, 2), drawn by passing ``count`` as numpy's ``size`` is passed.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
# the base triangle at side 1; scaling by d gives d/2 and d*sqrt(3)/2 exactly
_UNIT_TRIANGLE = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])


def circular_distance(a, b):
    """Unsigned angular distance in [0, pi] between two azimuths (array-safe).

    This is |((a - b + pi) mod 2*pi) - pi|, bit for bit. Azimuths less than
    a turn apart, as any two in [0, 2*pi) are, need at most one wrap, which
    two selections make faster than a floating-point modulo; a pair further
    apart takes the modulo.
    """
    r = np.asarray(a) - np.asarray(b) + np.pi
    r = np.where(r < 0.0, r + TWO_PI, r)
    r = np.where(r < TWO_PI, r, r - TWO_PI)
    if not ((r >= 0.0) & (r < TWO_PI)).all():
        r = np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI)
    d = np.abs(r - np.pi)
    return float(d) if d.ndim == 0 else d


def bearings(vectors: np.ndarray) -> np.ndarray:
    """Azimuths in [0, 2*pi) of the (..., 2) direction vectors (a zero
    vector reads 0: callers that must reject coincident points check the
    distances they compute).

    This is ``arctan2`` wrapped by ``np.mod(a, 2*pi)``, with 2*pi itself
    read as 0, bit for bit: ``arctan2`` lies in [-pi, pi], so a negative
    angle needs one turn added, which two selections make faster than a
    floating-point modulo. Zeros of either sign and a tiny negative angle,
    whose sum with 2*pi rounds to 2*pi, all read +0.
    """
    a = np.arctan2(vectors[..., 1], vectors[..., 0])
    a = np.where(a > 0.0, a, a + TWO_PI)
    return np.where(a < TWO_PI, a, 0.0)


class ClusterGeometry:
    """Small-cell positions, a read-only (n_sc, 2) array, or (..., n_sc, 2)
    for a batch of clusters.

    The first three cells always form the base triangle (counterclockwise);
    any further cells are auxiliary members of the same cluster.
    """

    def __init__(self, cells):
        cells = np.array(cells, dtype=float, order="C")
        if cells.ndim < 2 or cells.shape[-1] != 2 or cells.shape[-2] < 1:
            raise ValueError("cells must be a non-empty (n_sc, 2) array")
        if not np.isfinite(cells).all():
            raise ValueError("coordinates must be finite")
        # cells as x + iy sort by x, then y, so equal cells end up side by
        # side (0.0 and -0.0 compare equal)
        z = cells.view(complex)[..., 0].copy()
        z.sort(axis=-1)
        if np.count_nonzero(z[..., 1:] == z[..., :-1]):
            raise ValueError("two cells coincide")
        cells.flags.writeable = False
        self.cells = cells

    @property
    def n_sc(self) -> int:
        return self.cells.shape[-2]

    def triangle(self) -> np.ndarray:
        if self.n_sc < 3:
            raise ValueError("no base triangle: cluster has fewer than 3 cells")
        return self.cells[..., :3, :]


def _shape(count: int | None, *tail: int) -> tuple[int, ...]:
    """numpy ``size`` of ``tail`` draws per trial, led by ``count`` trials."""
    return tail if count is None else (count, *tail)


def build_cluster(n_sc: int, d: float, layout_seed=None,
                  count: int | None = None) -> ClusterGeometry:
    """Build a cluster of ``n_sc`` cells with inter-cell spacing ``d``, or
    ``count`` of them as a (count, n_sc, 2) batch.

    The first three cells are the vertices of an equilateral triangle of
    side ``d``, counterclockwise from the origin; extra cells are drawn
    uniformly from the triangle's circumscribed disk: every radius of the
    batch, then every angle.
    """
    if n_sc < 1:
        raise ValueError("n_sc must be >= 1")
    if d <= 0:
        raise ValueError("inter-cell distance must be positive")
    cells = np.empty(_shape(count, n_sc, 2))
    cells[..., :3, :] = d * _UNIT_TRIANGLE[:n_sc]
    if n_sc > 3:
        rng = np.random.default_rng(layout_seed)
        cx, cy = d / 2.0, d / (2.0 * math.sqrt(3.0))  # circumcenter
        radius = d / math.sqrt(3.0)
        size = _shape(count, n_sc - 3)
        # uniform in the disk: r = R*sqrt(u)
        r = radius * np.sqrt(rng.uniform(size=size))
        phi = rng.uniform(0.0, TWO_PI, size=size)
        cells[..., 3:, 0] = cx + r * np.cos(phi)
        cells[..., 3:, 1] = cy + r * np.sin(phi)
    return ClusterGeometry(cells)


def place_ue(geom: ClusterGeometry, placement_seed=None,
             count: int | None = None) -> np.ndarray:
    """Draw a point uniformly inside the base triangle, as a (2,) array, or
    ``count`` points as a (count, 2) array; a batched ``geom`` gives each
    point its own cluster's triangle."""
    tri = geom.triangle()
    a = tri[..., 0, :]
    rng = np.random.default_rng(placement_seed)
    uv = rng.uniform(size=_shape(count, 2))
    uv = np.where(uv[..., :1] + uv[..., 1:] > 1.0, 1.0 - uv, uv)
    return a + uv[..., :1] * (tri[..., 1, :] - a) + uv[..., 1:] * (tri[..., 2, :] - a)

