"""UE position estimation from the round-1 peak matrix.

Every cell reports its PDP peak per UE Tx beam over the backhaul, so the
reports of a cluster together are the (n_tx, n_sc) round-1 peak matrix.
Pipeline: wrapped differences of the cells' best Tx indices approximate
the angles the cell pairs subtend at the UE; the point that sees the top
three cells at those angles follows in closed form, or, for angles that
no point reproduces, the estimate is the centroid of the three cells.
The estimator takes a stack of T trials in one call and reports each
trial's outcome as a status code, not as an exception. Points are (T, 2)
arrays and anchor triples (T, 3, 2) arrays, as in ``geometry``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI

# status of each trial's estimate: the closed-form point or, for angles that
# no point reproduces, the top three cells' centroid; or none, because two
# of the top three cells share a best Tx index or because the angles give
# no usable point. status <= CENTROID means a point.
CLOSED_FORM, CENTROID, UNRESOLVABLE, FAILED = range(4)
_NO_POINT = complex(math.nan, math.nan)
# the next and the previous of three: x[..., _NEXT] is np.roll(x, -1, axis=-1)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def select_top3(peaks: np.ndarray) -> np.ndarray:
    """The three cells with the largest peaks in the (n_tx, n_sc) matrix,
    or (..., 3) from a (..., n_tx, n_sc) stack; ties to the lower cell
    index."""
    if peaks.shape[-1] < 3:
        raise ValueError("need reports from at least three cells")
    return np.argsort(-peaks.max(axis=-2), axis=-1, kind="stable")[..., :3]


def ordered_top3(peaks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """(T, 3) top three cells of the (T, n_tx, n_sc) peaks, counterclockwise
    about their centroid in the (T, n_sc, 2) clusters; cells at the same
    bearing keep their rank order."""
    top3 = select_top3(peaks)
    rows = np.arange(len(top3))[:, None]
    xy = cells[rows, top3]
    centroid = (xy[:, 0] + xy[:, 1] + xy[:, 2]) / 3
    rel = xy - centroid[:, None]
    order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=-1, kind="stable")
    return top3[rows, order]


def index_angles(best, n_tx: int) -> np.ndarray:
    """Cyclic angle estimates (..., 3) from three cells' best Tx indices
    (..., 3): theta_i = 2*pi * ((best[i + 1] - best[i]) mod n_tx) / n_tx,
    0 where the two indices are equal (unresolvable at this codebook
    size). The caller passes the cells ordered counterclockwise as seen
    from the UE side."""
    best = np.asarray(best)
    return TWO_PI * ((best[..., _NEXT] - best) % n_tx) / n_tx


def _closed_form_points(thetas, s, s_next, tol) -> np.ndarray:
    """(T,) points that see each pair (s[i], s_next[i]) of the complex
    anchors ``s`` (T, 3) at its angle modulo pi, ``s_next`` being ``s``
    rolled by one. That locus is a circle through the pair, centred half
    the chord times cot(theta) left of its midpoint. Two consecutive pairs'
    circles share an anchor, so their other intersection is that anchor
    reflected in the line of centres. The pair whose angle lies nearest 0
    or pi is left out, as its circle degenerates to a line. Centres within
    ``tol`` of each other make one circle, whose points all see both pairs
    alike: the point is NaN. Division by zero is the caller's to silence."""
    rows = np.arange(len(s))
    k = np.argmin(np.abs(np.sin(thetas)), axis=-1)
    j = _PREV[k]
    centres = (s + s_next) / 2 + 0.5j * (s_next - s) / np.tan(thetas)
    c1, c2 = centres[rows, _NEXT[k]], centres[rows, j]
    d = c2 - c1
    p = c1 + d * np.conj((s[rows, j] - c1) / d)
    return np.where(np.abs(d) <= tol, _NO_POINT, p)


def locate_points(thetas, anchors) -> tuple[np.ndarray, np.ndarray]:
    """Points (T, 2) at which T triples of ordered anchors (T, 3, 2)
    subtend the cyclic angles ``thetas`` (T, 3) (theta_i between anchors i
    and i+1), with each row's status. A row's point is the closed-form
    point when that reproduces every angle within 1e-9 rad (CLOSED_FORM),
    else the anchors' centroid (CENTROID). The row FAILED, with a NaN
    point, for angles outside (0, 2*pi) or not closing to 2*pi, and for a
    point within 1e-9 of the longest anchor spacing of an anchor. Raises
    ValueError unless every triple is three distinct finite points."""
    thetas = np.asarray(thetas, dtype=float)
    xy = np.ascontiguousarray(anchors, dtype=float)
    if xy.ndim != 3 or xy.shape[1:] != (3, 2) or thetas.shape != xy.shape[:2]:
        raise ValueError("need (T, 3) angles and (T, 3, 2) anchors")
    if not np.isfinite(xy).all():
        raise ValueError("anchors must be finite")
    s = xy.view(complex)[..., 0]
    s_next = s[:, _NEXT]
    if (s == s_next).any():
        raise ValueError("anchors must be distinct")
    tol = 1e-9 * np.abs(s_next - s).max(axis=-1)
    in_range = ((thetas > 0.0) & (thetas < TWO_PI)).all(axis=-1)
    closes = np.abs((thetas[:, 0] + thetas[:, 1]) + thetas[:, 2] - TWO_PI) <= 1e-6
    status = np.where(in_range & closes, CLOSED_FORM, FAILED)
    points = np.full(len(s), _NO_POINT)

    rows = np.flatnonzero(status == CLOSED_FORM)
    t, z, z_next = thetas[rows], s[rows], s_next[rows]
    # a pair's angle is undefined at either of its anchors; a point that is
    # not finite reproduces nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        p = _closed_form_points(t, z, z_next, tol[rows])
        w = (z_next - p[:, None]) / (z - p[:, None]) * np.exp(-1j * t)
    on = np.abs(p[:, None] - z) <= tol[rows, None]
    phase = np.abs(np.arctan2(w.imag, w.real))  # np.angle(w)
    reproduced = (on | on[:, _NEXT] | (phase <= 1e-9)).all(axis=-1)
    points[rows] = p
    centred = rows[~reproduced]
    status[centred] = CENTROID
    a = xy[centred]
    points[centred] = ((a[:, 0] + a[:, 1] + a[:, 2]) / 3).view(complex)[:, 0]

    off_cells = (np.abs(points[:, None] - s) > tol[:, None]).all(axis=-1)
    status[~off_cells] = FAILED
    points[status == FAILED] = _NO_POINT
    return points.view(float).reshape(-1, 2), status


def estimate_points(peaks: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point estimates (T, 2) from the top three cells of each trial's
    (n_tx, n_sc) peak matrix, stacked (T, n_tx, n_sc), in the trials'
    clusters (T, n_sc, 2), with each trial's status. A trial whose top
    three cells share a best Tx index (the lowest index on ties) is
    UNRESOLVABLE; the others are located by ``locate_points``. Points are
    NaN where the status is neither CLOSED_FORM nor CENTROID."""
    top3 = ordered_top3(peaks, cells)
    rows = np.arange(len(top3))[:, None]
    thetas = index_angles(peaks.argmax(axis=-2)[rows, top3], peaks.shape[-2])
    points, status = locate_points(thetas, cells[rows, top3])
    status[(thetas == 0.0).any(axis=-1)] = UNRESOLVABLE
    return points, status
