"""Cluster layout, UE placement and the exact angular/metric ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class Bearing:
    """An azimuth in radians, normalized to [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("bearing must be finite")
        object.__setattr__(self, "angle", normalize_angle(self.angle))


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point2D") -> float:
        """Azimuth of the direction from this point to ``other``, in [0, 2*pi)."""
        if self.x == other.x and self.y == other.y:
            raise ValueError("bearing undefined between coincident points")
        return normalize_angle(math.atan2(other.y - self.y, other.x - self.x))


@dataclass(frozen=True)
class ClusterGeometry:
    """Small-cell positions plus the UE they serve.

    The first three cells always form the base triangle (counterclockwise);
    any further cells are auxiliary members of the same cluster.
    """

    sc_positions: tuple[Point2D, ...]
    side_length: float
    ue_position: Point2D

    def __post_init__(self):
        if len(self.sc_positions) < 1:
            raise ValueError("cluster needs at least one cell")
        if self.side_length <= 0:
            raise ValueError("side length must be positive")
        n = len(self.sc_positions)
        for i in range(n):
            for j in range(i + 1, n):
                if self.sc_positions[i].distance_to(self.sc_positions[j]) == 0.0:
                    raise ValueError(f"cells {i} and {j} coincide")

    @property
    def n_sc(self) -> int:
        return len(self.sc_positions)

    def with_ue(self, ue: Point2D) -> "ClusterGeometry":
        return replace(self, ue_position=ue)

    def triangle(self) -> tuple[Point2D, ...]:
        if self.n_sc < 3:
            raise ValueError("no base triangle: cluster has fewer than 3 cells")
        return self.sc_positions[:3]

    def triangle_centroid(self) -> Point2D:
        tri = self.triangle()
        return Point2D(sum(p.x for p in tri) / 3.0, sum(p.y for p in tri) / 3.0)


def _triangle_vertices(d: float) -> tuple[Point2D, Point2D, Point2D]:
    # counterclockwise, first vertex at the origin
    return (
        Point2D(0.0, 0.0),
        Point2D(d, 0.0),
        Point2D(d / 2.0, d * math.sqrt(3.0) / 2.0),
    )


def build_cluster(n_sc: int, d: float, layout_seed=None) -> ClusterGeometry:
    """Build a cluster of ``n_sc`` cells with inter-cell spacing ``d``.

    The first three cells are the vertices of an equilateral triangle of
    side ``d``; extra cells are drawn uniformly from the triangle's
    circumscribed disk. The UE position is initialised to the triangle
    centroid (or the origin for degenerate clusters); callers typically
    overwrite it via :func:`place_ue` and ``with_ue``.
    """
    if n_sc < 1:
        raise ValueError("n_sc must be >= 1")
    if d <= 0:
        raise ValueError("inter-cell distance must be positive")
    verts = _triangle_vertices(d)
    cells = list(verts[:min(n_sc, 3)])
    if n_sc > 3:
        rng = np.random.default_rng(layout_seed)
        center = Point2D(d / 2.0, d / (2.0 * math.sqrt(3.0)))  # circumcenter
        radius = d / math.sqrt(3.0)
        k = n_sc - 3
        # uniform in the disk: r = R*sqrt(u)
        r = radius * np.sqrt(rng.uniform(size=k))
        phi = rng.uniform(0.0, TWO_PI, size=k)
        cells.extend(
            Point2D(center.x + ri * math.cos(pi), center.y + ri * math.sin(pi))
            for ri, pi in zip(r, phi)
        )
    if n_sc >= 3:
        ue0 = Point2D((verts[0].x + verts[1].x + verts[2].x) / 3.0,
                      (verts[0].y + verts[1].y + verts[2].y) / 3.0)
    else:
        ue0 = Point2D(d / 2.0, d / 4.0)
    return ClusterGeometry(tuple(cells), d, ue0)


def place_ue(geom: ClusterGeometry, placement_seed=None) -> Point2D:
    """Draw a point uniformly inside the base triangle."""
    a, b, c = geom.triangle()
    rng = np.random.default_rng(placement_seed)
    u, v = rng.uniform(size=2)
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return Point2D(
        a.x + u * (b.x - a.x) + v * (c.x - a.x),
        a.y + u * (b.y - a.y) + v * (c.y - a.y),
    )


def true_angles(geom: ClusterGeometry) -> tuple[float, float, float]:
    """Angles subtended at the UE between consecutive base-triangle cells.

    theta_i is the angle between the UE->cell_i and UE->cell_{i+1}
    directions (cyclic over the first three cells). For a UE inside the
    triangle the three angles sum to exactly 2*pi.
    """
    tri = geom.triangle()
    bearings = [geom.ue_position.bearing_to(p) for p in tri]  # raises if coincident
    thetas = tuple(
        normalize_angle(bearings[(i + 1) % 3] - bearings[i]) for i in range(3)
    )
    return thetas
