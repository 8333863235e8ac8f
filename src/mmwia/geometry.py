"""Cluster layout, UE placement and the angle arithmetic on azimuths.

Positions are plain arrays: a cluster is the read-only (n_sc, 2) array of
its cell coordinates, whose first three rows are the base triangle
(counterclockwise), and a UE is a (2,) array kept apart from the layout.
A batch of trials puts a leading trial axis on both, (count, n_sc, 2) and
(count, 2), drawn by passing ``count`` as numpy's ``size`` is passed.
There is no cluster type: each consumer checks what it relies on (the
estimator rejects coincident anchors, the link budget a UE on a cell).
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


def bearings(x, y) -> np.ndarray:
    """Azimuths in [0, 2*pi) of the direction vectors with components
    ``x`` and ``y`` (a zero vector reads 0: callers that must reject
    coincident points check the distances they compute).

    This is ``arctan2`` wrapped by ``np.mod(a, 2*pi)``, with 2*pi itself
    read as 0, bit for bit: ``arctan2`` lies in [-pi, pi], so a negative
    angle needs one turn added, which two selections make faster than a
    floating-point modulo. Zeros of either sign and a tiny negative angle,
    whose sum with 2*pi rounds to 2*pi, all read +0.
    """
    a = np.arctan2(y, x)
    a = np.where(a > 0.0, a, a + TWO_PI)
    return np.where(a < TWO_PI, a, 0.0)


def _shape(count: int | None, *tail: int) -> tuple[int, ...]:
    """numpy ``size`` of ``tail`` draws per trial, led by ``count`` trials."""
    return tail if count is None else (count, *tail)


def build_cluster(n_sc: int, d: float, layout_seed=None,
                  count: int | None = None) -> np.ndarray:
    """The read-only (n_sc, 2) cell positions of a cluster with inter-cell
    spacing ``d``, or ``count`` of them as a (count, n_sc, 2) batch.

    The first three cells are the vertices of an equilateral triangle of
    side ``d``, counterclockwise from the origin; extra cells are drawn
    uniformly from the triangle's circumscribed disk: every radius of the
    batch, then every angle.
    """
    if n_sc < 3:
        raise ValueError("n_sc must be >= 3: the base triangle has three cells")
    if d <= 0:
        raise ValueError("inter-cell distance must be positive")
    cells = np.empty(_shape(count, n_sc, 2))
    cells[..., :3, :] = d * _UNIT_TRIANGLE
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
    cells.flags.writeable = False
    return cells


def place_ue(cells: np.ndarray, placement_seed=None,
             count: int | None = None) -> np.ndarray:
    """Draw a point uniformly inside the base triangle ``cells[..., :3, :]``,
    as a (2,) array, or ``count`` points as a (count, 2) array; a batch of
    clusters gives each point its own cluster's triangle."""
    tri = cells[..., :3, :]
    a = tri[..., 0, :]
    rng = np.random.default_rng(placement_seed)
    uv = rng.uniform(size=_shape(count, 2))
    uv = np.where(uv[..., :1] + uv[..., 1:] > 1.0, 1.0 - uv, uv)
    return a + uv[..., :1] * (tri[..., 1, :] - a) + uv[..., 1:] * (tri[..., 2, :] - a)

