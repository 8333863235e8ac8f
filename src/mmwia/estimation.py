"""UE position estimation from the round-1 peak matrix.

Every cell reports its PDP peak per UE Tx beam over the backhaul, so the
reports of a cluster together are the (n_tx, n_sc) round-1 peak matrix.
Pipeline: wrapped differences of the cells' best Tx indices approximate
the angles the cell pairs subtend at the UE; the point that sees the top
three cells at those angles follows in closed form, or, for angles that
no point reproduces, from a least-squares fit of their cosine-rule
residuals. Points are (2,) arrays and anchor sets (k, 2) arrays, as in
``geometry``.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .geometry import TWO_PI, ClusterGeometry


class EstimationError(Exception):
    """Estimation could not produce a usable result."""


class AnglesUnresolvable(EstimationError):
    """Two cells share a best Tx index: angles degenerate at this codebook size."""


class TriangulationFailed(EstimationError):
    """The angles give no usable point: they do not close or put the UE on a cell."""


def select_top3(peaks: np.ndarray) -> np.ndarray:
    """The three cells with the largest peaks in the (n_tx, n_sc) matrix,
    or (..., 3) from a (..., n_tx, n_sc) stack; ties to the lower cell
    index."""
    if peaks.shape[-1] < 3:
        raise EstimationError("need reports from at least three cells")
    return np.argsort(-peaks.max(axis=-2), axis=-1, kind="stable")[..., :3]


def wrapped_index_angle(n_from: int, n_to: int, n_tx: int) -> float:
    """2*pi * ((n_to - n_from) mod N) / N; raises on equal indices."""
    delta = (n_to - n_from) % n_tx
    if delta == 0:
        raise AnglesUnresolvable(
            "equal best Tx indices: angles unresolvable at this codebook resolution"
        )
    return TWO_PI * delta / n_tx


def index_angles(best: Sequence[int], n_tx: int) -> tuple[float, float, float]:
    """Cyclic angle estimates from three cells' best Tx indices.

    theta_i is the wrapped difference of the best indices of cells i and
    i+1. The caller passes the cells ordered counterclockwise as seen
    from the UE side.
    """
    idx = [int(b) for b in best]
    return tuple(wrapped_index_angle(idx[i], idx[(i + 1) % 3], n_tx)
                 for i in range(3))


def _closed_form_point(thetas, s) -> complex:
    """The point that sees each pair (s[i], s[i + 1]) of the anchors ``s``
    (complex numbers; s[i - 2] is s[(i + 1) % 3]) at its angle modulo pi.
    That locus is a circle through the pair, centred half the chord times
    cot(theta) left of its midpoint. Two consecutive pairs' circles share an
    anchor, so their other intersection is that anchor reflected in the
    line of centres. The pair whose angle lies nearest 0 or pi is left out,
    as its circle degenerates to a line."""
    k = min(range(3), key=lambda i: abs(math.sin(thetas[i])))
    c1, c2 = ((s[i] + s[i - 2]) / 2 + 0.5j * (s[i - 2] - s[i]) / math.tan(thetas[i])
              for i in ((k + 1) % 3, (k + 2) % 3))
    if c1 == c2:  # one circle: all its points see both pairs alike
        return complex(math.nan, math.nan)
    return c1 + (c2 - c1) * ((s[k - 1] - c1) / (c2 - c1)).conjugate()


def _least_squares_point(thetas, s, max_iter=200) -> complex:
    """Levenberg-Marquardt fit in the plane of the cosine-rule residuals
    |p-a|^2 + |p-b|^2 - 2|p-a||p-b|cos(theta) - |ab|^2 of the pairs (a, b)
    of the anchors ``s``, from their centroid, until a step is shorter than
    1e-9 of the longest anchor spacing."""
    pairs = [(s[i], s[i - 2], math.cos(t), abs(s[i - 2] - s[i]) ** 2)
             for i, t in enumerate(thetas)]
    step_tol = 1e-9 * math.sqrt(max(side2 for *_, side2 in pairs))

    def residuals(p):
        # each residual with its gradient as a complex number, and the cost;
        # d(|u||v|)/dp = (|v|/|u|) u + (|u|/|v|) v, taken as 0 along u = 0
        out = []
        for a, b, cos_t, side2 in pairs:
            u, v = p - a, p - b
            du, dv = abs(u), abs(v)
            duv = (dv / du * u if du else 0.0) + (du / dv * v if dv else 0.0)
            out.append((du * du + dv * dv - 2.0 * du * dv * cos_t - side2,
                        2.0 * (u + v - cos_t * duv)))
        return out, sum(r * r for r, _ in out)

    p, lam = sum(s) / 3.0, 1e-3
    res, cost = residuals(p)
    for _ in range(max_iter):
        # (J'J + mu I) d = -J'r with mu = lam trace(J'J), in complex form
        # alpha d + beta conj(d) = -grad
        half_trace = sum(abs(g) ** 2 for _, g in res) / 2.0
        if half_trace == 0.0:
            break
        alpha, beta = half_trace * (1.0 + 2.0 * lam), sum(g * g for _, g in res) / 2.0
        grad = sum(r * g for r, g in res)
        step = (beta * grad.conjugate() - alpha * grad) / (alpha ** 2 - abs(beta) ** 2)
        if abs(step) < step_tol:
            break
        res_c, cost_c = residuals(p + step)
        if cost_c < cost:
            p, res, cost = p + step, res_c, cost_c
            lam = max(lam * 0.3, 1e-12)  # keeps the damped system positive definite
        else:
            lam *= 10.0
    return p


def locate_ue(thetas: Sequence[float], anchors: np.ndarray) -> np.ndarray:
    """The point at which the three ordered (3, 2) anchors subtend the
    cyclic angles ``thetas`` (theta_i between anchors i and i+1): the
    closed-form point when it reproduces every angle within 1e-9 rad, else
    the least-squares point. Raises TriangulationFailed for angles outside
    (0, 2*pi) or not closing to 2*pi, and for a point that is not finite or
    lies within 1e-9 of the longest anchor spacing of an anchor; ValueError
    for anchors that are not three distinct finite points."""
    S = np.asarray(anchors, dtype=float)
    if S.shape != (3, 2) or len(thetas) != 3 or not np.isfinite(S).all():
        raise ValueError("need three angles and three finite (x, y) anchors")
    s = [complex(x, y) for x, y in S.tolist()]
    if len(set(s)) < 3:
        raise ValueError("anchors must be distinct")
    if not all(0.0 < t < TWO_PI for t in thetas):
        raise TriangulationFailed("angle estimates outside (0, 2*pi)")
    if abs(sum(thetas) - TWO_PI) > 1e-6:
        raise TriangulationFailed("cyclic angle estimates do not close to 2*pi")
    tol = 1e-9 * max(abs(s[i] - s[i - 1]) for i in range(3))

    p = _closed_form_point(thetas, s)
    on = [abs(p - z) <= tol for z in s]
    # a pair's angle is undefined at either of its anchors; a point that is
    # not finite reproduces nothing
    if not all(on[i] or on[i - 2] or abs(cmath.phase(
            (s[i - 2] - p) / (s[i] - p) * cmath.exp(-1j * t))) <= 1e-9
            for i, t in enumerate(thetas)):
        p = _least_squares_point(thetas, s)
    if not cmath.isfinite(p):
        raise TriangulationFailed("no finite point fits the angles")
    if min(abs(p - z) for z in s) <= tol:
        raise TriangulationFailed("the angles place the UE on a cell")
    return np.array([p.real, p.imag])


def _order_ccw(cells: Sequence[int], positions) -> list[int]:
    """Counterclockwise order around the cells' centroid; ``positions`` is
    a list of (x, y) pairs."""
    cx = sum(positions[i][0] for i in cells) / len(cells)
    cy = sum(positions[i][1] for i in cells) / len(cells)
    return sorted(cells, key=lambda i: math.atan2(positions[i][1] - cy,
                                                   positions[i][0] - cx))


def estimate_point(
    peaks: np.ndarray,
    geom: ClusterGeometry,
) -> tuple[np.ndarray, list[int], tuple[float, float, float]]:
    """Point estimate from the top-3 cells of the (n_tx, n_sc) peak matrix.

    Returns the point, the three cells in counterclockwise order and their
    cyclic angle estimates; raises EstimationError subclasses.
    """
    top3 = _order_ccw(select_top3(peaks).tolist(), geom.cells.tolist())
    best = peaks.argmax(axis=0)  # lowest Tx index on ties
    thetas = index_angles(best[top3], peaks.shape[0])
    return locate_ue(thetas, geom.cells[top3]), top3, thetas
