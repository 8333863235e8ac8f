"""UE position estimation from the round-1 peak matrix.

Every cell reports its PDP peak per UE Tx beam over the backhaul, so the
reports of a cluster together are the (n_tx, n_sc) round-1 peak matrix.
Pipeline: wrapped differences of the cells' best Tx indices approximate
the angles the cell pairs subtend at the UE; the cosine-rule system over
the known inter-cell distances yields UE-to-cell ranges; least-squares
trilateration yields a point. Each angle also bounds an inscribed-arc
band (an "estimation area"); intersecting the bands refines the point
when more than three cells report. Points are (2,) arrays and anchor
sets (k, 2) arrays, as in ``geometry``. The range solve and
trilateration of the top three cells run once per distinct (angles,
anchors) key; later calls read the point from a bounded memo.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .geometry import TWO_PI, ClusterGeometry


class EstimationError(Exception):
    """Estimation could not produce a usable result."""


class AnglesUnresolvable(EstimationError):
    """Two cells share a best Tx index: angles degenerate at this codebook size."""


class TriangulationFailed(EstimationError):
    """The range system had no acceptable (positive, consistent) solution."""


def select_top3(peaks: np.ndarray) -> np.ndarray:
    """The three cells with the largest peaks in the (n_tx, n_sc) matrix;
    ties to the lower cell index."""
    if peaks.shape[1] < 3:
        raise EstimationError("need reports from at least three cells")
    return np.argsort(-peaks.max(axis=0), kind="stable")[:3]


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


def _pair_residuals(d: np.ndarray, cos_t: np.ndarray, side2: np.ndarray) -> np.ndarray:
    dn = d[[1, 2, 0]]
    return d * d + dn * dn - 2.0 * d * dn * cos_t - side2


def _pair_jacobian(d: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
    J = np.zeros((3, 3))
    for i in range(3):
        j = (i + 1) % 3
        J[i, i] = 2.0 * d[i] - 2.0 * d[j] * cos_t[i]
        J[i, j] = 2.0 * d[j] - 2.0 * d[i] * cos_t[i]
    return J


def _damped_newton(d0, cos_t, side2, tol, max_iter=100):
    d = np.array(d0, dtype=float)
    r = _pair_residuals(d, cos_t, side2)
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            return d, r, True
        J = _pair_jacobian(d, cos_t)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        cost0 = float(r @ r)
        alpha = 1.0
        moved = False
        while alpha > 1e-7:
            cand = d + alpha * step
            if np.all(cand > 0.0):
                rc = _pair_residuals(cand, cos_t, side2)
                if float(rc @ rc) < cost0:
                    d, r, moved = cand, rc, True
                    break
            alpha *= 0.5
        if not moved:
            break
    return d, r, bool(np.max(np.abs(r)) < tol)


def _grid_seed(cos_t, side2, d_max, n=50):
    ax = np.linspace(d_max / n, d_max, n)
    g1, g2, g3 = np.meshgrid(ax, ax, ax, indexing="ij")
    r1 = g1 * g1 + g2 * g2 - 2.0 * g1 * g2 * cos_t[0] - side2[0]
    r2 = g2 * g2 + g3 * g3 - 2.0 * g2 * g3 * cos_t[1] - side2[1]
    r3 = g3 * g3 + g1 * g1 - 2.0 * g3 * g1 * cos_t[2] - side2[2]
    cost = r1 * r1 + r2 * r2 + r3 * r3
    k = np.unravel_index(np.argmin(cost), cost.shape)
    return np.array([g1[k], g2[k], g3[k]])


def solve_distances(
    thetas: Sequence[float],
    d_side: float | Sequence[float],
) -> tuple[float, float, float]:
    """Ranges to the three cells from the cyclic angle estimates.

    d_side is either the common triangle side or the three cyclic
    inter-cell distances |S_i S_{i+1}|. Damped Newton from the symmetric
    start; a coarse grid seed plus Newton polish on stagnation; an
    inconsistent (noisy) system falls through to the Gauss-Newton
    least-squares minimizer of the three residuals.
    """
    sides = np.broadcast_to(np.asarray(d_side, dtype=float), (3,)).copy()
    if np.any(sides <= 0.0):
        raise ValueError("inter-cell distances must be positive")
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas <= 0.0) or np.any(thetas >= TWO_PI):
        raise TriangulationFailed("angle estimates outside (0, 2*pi)")
    if abs(float(np.sum(thetas)) - TWO_PI) > 1e-6:
        raise TriangulationFailed(
            "cyclic angle estimates do not close to 2*pi (inconsistent reports)"
        )
    cos_t = np.cos(thetas)
    side2 = sides * sides
    scale = float(np.max(sides))
    tol = 1e-9 * scale * scale

    start = np.full(3, scale / math.sqrt(3.0))
    d, r, ok = _damped_newton(start, cos_t, side2, tol)
    if not ok:
        seed = _grid_seed(cos_t, side2, scale)
        d2, r2, ok2 = _damped_newton(seed, cos_t, side2, tol)
        if float(r2 @ r2) < float(r @ r):
            d, r, ok = d2, r2, ok2
    if not ok:
        # inconsistent (noisy) system: settle for the least-squares minimizer
        d, r = _levenberg_polish(d, cos_t, side2)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise TriangulationFailed("no positive range solution")
    return float(d[0]), float(d[1]), float(d[2])


def _levenberg_polish(d0, cos_t, side2, max_iter=200):
    d = np.array(d0, dtype=float)
    r = _pair_residuals(d, cos_t, side2)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(max_iter):
        J = _pair_jacobian(d, cos_t)
        g = J.T @ r
        if np.linalg.norm(g) < 1e-10 * max(cost, 1.0):
            break
        try:
            step = np.linalg.solve(J.T @ J + lam * np.eye(3), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        cand = np.maximum(d + step, 1e-9)
        rc = _pair_residuals(cand, cos_t, side2)
        cc = float(rc @ rc)
        if cc < cost:
            d, r, cost = cand, rc, cc
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return d, r


def _trilat_cost(p: np.ndarray, anchors: np.ndarray, d: np.ndarray) -> float:
    r = np.hypot(*(p - anchors).T)
    f = r - d
    return float(f @ f)


def _gauss_newton_point(p0, anchors, d, max_iter=60):
    p = np.array(p0, dtype=float)
    cost = _trilat_cost(p, anchors, d)
    for _ in range(max_iter):
        diff = p - anchors
        r = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), 1e-12)
        f = r - d
        J = diff / r[:, None]
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        alpha = 1.0
        moved = False
        while alpha > 1e-9:
            cand = p + alpha * step
            c = _trilat_cost(cand, anchors, d)
            if c < cost:
                p, cost, moved = cand, c, True
                break
            alpha *= 0.5
        if not moved or np.linalg.norm(alpha * step) < 1e-13:
            break
    return p, cost


def _inside_triangle(p: np.ndarray, tri: np.ndarray) -> bool:
    signs = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        signs.append((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def locate_ue(distances: Sequence[float], anchors: np.ndarray) -> np.ndarray:
    """Least-squares trilateration over the (k, 2) anchors, k >= 3.

    Runs Gauss-Newton from a linearized start and from the anchor
    centroid; ambiguous near-ties resolve towards the point inside the
    first three anchors' triangle. Raises ValueError when the point is
    not finite.
    """
    S = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    if S.ndim != 2 or len(S) < 3 or len(S) != len(d):
        raise ValueError("need matching distances for at least three anchors")
    if not (np.isfinite(S).all() and np.isfinite(d).all()):
        raise ValueError("anchors and distances must be finite")
    A = 2.0 * (S[1:] - S[0])
    b = (d[0] ** 2 - d[1:] ** 2) + (np.sum(S[1:] ** 2, axis=1) - np.sum(S[0] ** 2))
    p_lin, *_ = np.linalg.lstsq(A, b, rcond=None)
    candidates = [_gauss_newton_point(p_lin, S, d),
                  _gauss_newton_point(S.mean(axis=0), S, d)]
    candidates.sort(key=lambda pc: pc[1])
    best, runner = candidates[0], candidates[1]
    if runner[1] - best[1] < 1e-9 * max(best[1], 1.0):
        if _inside_triangle(runner[0], S[:3]) and not _inside_triangle(best[0], S[:3]):
            best = runner
    if not np.isfinite(best[0]).all():
        raise ValueError("coordinates must be finite")
    return best[0]


def subtended_angle(px, py, a, b):
    """Unsigned angle in [0, pi] under which segment ab is seen from (px, py)."""
    vax, vay = a[0] - px, a[1] - py
    vbx, vby = b[0] - px, b[1] - py
    dot = vax * vbx + vay * vby
    cross = vax * vby - vay * vbx
    return np.abs(np.arctan2(cross, dot))


def area_grid(geom: ClusterGeometry, resolution: float):
    """Cell-center axes covering the base triangle's bounding box."""
    tri = geom.triangle()
    (x0, y0), (x1, y1) = tri.min(axis=0), tri.max(axis=0)
    nx = max(1, int(math.ceil((x1 - x0) / resolution)))
    ny = max(1, int(math.ceil((y1 - y0) / resolution)))
    xs = x0 + (np.arange(nx) + 0.5) * resolution
    ys = y0 + (np.arange(ny) + 0.5) * resolution
    return xs, ys


def band_member(theta_tilde, pair, band_halfwidth, side_reference):
    """Vectorized membership test ``member(px, py)`` for one estimation area.

    A point is a member when the angle it subtends over the anchor pair
    lies in [theta_tilde - h, theta_tilde + h] and, when a side reference
    is given, it lies on the reference's side of the chord (the
    inscribed-angle locus is mirror-symmetric about it).
    """
    if band_halfwidth <= 0.0:
        raise ValueError("band halfwidth must be positive")
    a, b = pair
    lo, hi = theta_tilde - band_halfwidth, theta_tilde + band_halfwidth

    ref_sign = 0.0
    if side_reference is not None:
        ref_sign = np.sign((b[0] - a[0]) * (side_reference[1] - a[1])
                           - (b[1] - a[1]) * (side_reference[0] - a[0]))

    def member(px, py):
        ang = subtended_angle(px, py, a, b)
        ok = (ang >= lo) & (ang <= hi)
        if ref_sign != 0.0:
            side = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            ok &= (np.sign(side) == ref_sign)
        return ok

    return member


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
    point = _solve_point(thetas, geom.cells[top3].tobytes())
    return point.copy(), top3, thetas


@functools.lru_cache(maxsize=1024)
def _solve_point(thetas: tuple[float, float, float],
                 anchor_bytes: bytes) -> np.ndarray:
    """The located point for cyclic angles over three ordered anchors.

    A pure function of its key, so each distinct (angles, anchors) pair is
    solved once; the anchors travel as the raw bytes of their (3, 2) array,
    which keeps 0.0 and -0.0 apart where a tuple key would not. Exceptions
    are not cached. Callers must copy the returned array.
    """
    anchors = np.frombuffer(anchor_bytes).reshape(3, 2)
    positions = anchors.tolist()
    sides = [math.dist(positions[i], positions[(i + 1) % 3]) for i in range(3)]
    return locate_ue(solve_distances(thetas, sides), anchors)


def area_members(peaks: np.ndarray, geom: ClusterGeometry,
                 band_halfwidth: float) -> tuple[np.ndarray, list]:
    """The point estimate and the membership test ``member(px, py)`` of
    every pair's estimation area.

    The top-3 cells contribute their three cyclic areas; every further
    cell, in index order, pairs with its two nearest selected anchors.
    """
    point, top3, thetas = estimate_point(peaks, geom)
    positions = geom.cells.tolist()

    members = []
    for i in range(3):
        a, b = top3[i], top3[(i + 1) % 3]
        # an interior UE always lies on the remaining cell's side of the chord
        third = positions[top3[(i + 2) % 3]]
        members.append(band_member(
            thetas[i], (positions[a], positions[b]), band_halfwidth, third))

    n_tx, n_sc = peaks.shape
    best = peaks.argmax(axis=0)
    for extra in range(n_sc):
        if extra in top3:
            continue
        p_extra = positions[extra]
        nearest = sorted(top3, key=lambda i: math.dist(p_extra, positions[i]))[:2]
        for anchor in nearest:
            try:
                theta = wrapped_index_angle(int(best[extra]), int(best[anchor]), n_tx)
            except AnglesUnresolvable:
                continue
            theta = min(theta, TWO_PI - theta)  # unsigned angle for a lone pair
            if theta <= 0.0:
                continue
            members.append(band_member(
                theta, (p_extra, positions[anchor]), band_halfwidth, point))
    return point, members


def refine_location(
    peaks: np.ndarray,
    geom: ClusterGeometry,
    band_halfwidth: float,
    grid_resolution: float = 1.0,
) -> np.ndarray:
    """Intersect every pair's estimation area (``area_members``); the point
    is the mean cell center of the rasterized intersection, or the plain
    point solve when the intersection rasterizes empty."""
    point, members = area_members(peaks, geom, band_halfwidth)
    xs, ys = area_grid(geom, grid_resolution)

    # rasterize incrementally: later bands only look at still-alive cells
    gx, gy = np.meshgrid(xs, ys)
    mask = members[0](gx, gy)
    for member in members[1:]:
        yi, xi = np.nonzero(mask)
        if yi.size == 0:
            break
        keep = member(xs[xi], ys[yi])
        mask = np.zeros_like(mask)
        mask[yi[keep], xi[keep]] = True

    yi, xi = np.nonzero(mask)
    if yi.size == 0:
        return point
    return np.array([xs[xi].mean(), ys[yi].mean()])
