import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmwia.antenna import make_codebook
from mmwia.estimation import (
    CENTROID,
    CLOSED_FORM,
    FAILED,
    UNRESOLVABLE,
    estimate_points,
    index_angles,
    locate_points,
    ordered_top3,
    select_top3,
)
from mmwia.geometry import build_cluster, place_ue
from mmwia.protocol import reorder_rx_beams
from mmwia.selftest import reproduces_angles, true_angles

D = 200.0


def _one_hot(best, n_tx=8, peaks=1.0):
    """(n_tx, n_sc) peak matrix: cell i peaks at Tx index best[i]."""
    m = np.zeros((n_tx, len(best)))
    m[list(best), range(len(best))] = peaks
    return m


def _locate(thetas, anchors):
    """(point, status) of one angle set."""
    (point,), (status,) = locate_points([thetas], [anchors])
    return point, status


def _estimate(peaks, cells):
    """(point, status) of one peak matrix on one cluster."""
    (point,), (status,) = estimate_points(peaks[None], cells[None])
    return point, status


def _assert_centroids(peaks, cells, points, status):
    """Each CENTROID row's point is the mean of its ordered top three cells."""
    top3 = np.take_along_axis(cells, ordered_top3(peaks, cells)[..., None], axis=-2)
    rows = status == CENTROID
    assert np.array_equal(points[rows], top3[rows].mean(axis=1))


def test_select_top3_ordering_and_ties():
    top = select_top3(_one_hot([0] * 4, peaks=[5.0, 9.0, 1.0, 7.0]))
    assert list(top) == [1, 3, 0]
    assert list(select_top3(_one_hot([0] * 5, peaks=2.0))) == [0, 1, 2]
    three = _one_hot([0] * 3, peaks=[0.0, 1.0, 2.0])
    assert set(select_top3(three)) == {0, 1, 2}
    with pytest.raises(ValueError):
        select_top3(three[:, :2])


def test_select_top3_batch_equals_per_row_calls():
    """A stack of peak matrices ranks like one call per matrix, ties to the
    lower cell index included."""
    rng = np.random.default_rng(4)
    peaks = rng.integers(0, 3, size=(200, 4, 7)).astype(float)  # many ties
    top = select_top3(peaks)
    assert top.shape == (200, 3)
    for row, matrix in zip(top, peaks):
        assert np.array_equal(row, select_top3(matrix))
    assert np.array_equal(select_top3(np.zeros((2, 5, 4, 6))), np.tile([0, 1, 2], (2, 5, 1)))


def test_wrapped_index_angle_branches():
    """Best indices 1, 3 and 6 of 8 give pi/2, 3 pi/4 and 3 pi/4, which sum
    to 2 pi; a pair that wraps past index 0 counts forwards."""
    thetas = index_angles([1, 3, 6], 8)
    expect = [math.pi / 2, 3 * math.pi / 4, 3 * math.pi / 4]
    assert np.abs(thetas - expect).max() < 1e-12
    assert abs(sum(thetas) - 2 * math.pi) < 1e-12
    assert abs(index_angles([7, 2, 5], 8)[0] - 3 * math.pi / 4) < 1e-12
    # equal indices give 0: the angle is unresolvable
    assert index_angles([4, 4, 1], 8).tolist()[0] == 0.0
    assert index_angles([[1, 3, 6], [4, 4, 1]], 8).shape == (2, 3)


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63))
@settings(deadline=None)
def test_wrapped_differences_telescope(n_tx, a, b, c):
    idx = [a % n_tx, b % n_tx, c % n_tx]
    if len(set(idx)) < 3:
        return
    total = sum(index_angles(idx, n_tx))
    # one full turn for ccw-consistent triples, two turns for mirrored ones
    assert min(abs(total - 2 * math.pi), abs(total - 4 * math.pi)) < 1e-9


SYMMETRIC = (2 * math.pi / 3,) * 3


def test_solve_rejects_inconsistent_sum():
    """Angles that do not close to 2*pi, or one outside (0, 2*pi), fail."""
    tri = build_cluster(3, D)
    points, status = locate_points(
        [(math.pi / 2, math.pi / 2, math.pi / 2), (0.0, math.pi, math.pi),
         (-math.pi / 2, math.pi, 3 * math.pi / 2), SYMMETRIC], [tri] * 4)
    assert status.tolist() == [FAILED, FAILED, FAILED, CLOSED_FORM]
    assert np.isnan(points[:3]).all() and np.isfinite(points[3]).all()


def test_solve_noisy_angles():
    """Angles 0.02 rad off the truth, still closing, are seen from a point
    within 8 m of it."""
    tri = build_cluster(3, D)
    ue = (80.0, 60.0)
    t = true_angles(tri, ue)
    eps = 0.02
    noisy = (t[0] + eps, t[1] - eps, t[2])
    point, status = _locate(noisy, tri)
    assert status == CLOSED_FORM and math.dist(point, ue) < 8.0


def test_locate_rejects_bad_anchors():
    tri = build_cluster(3, D)
    with pytest.raises(ValueError):
        _locate(SYMMETRIC, tri[:2])
    with pytest.raises(ValueError):
        _locate(SYMMETRIC, np.vstack([tri, tri[:1]]))
    with pytest.raises(ValueError):
        _locate(SYMMETRIC[:2], tri)
    with pytest.raises(ValueError):
        locate_points(SYMMETRIC, tri)  # no trial axis
    with pytest.raises(ValueError, match="finite"):
        _locate(SYMMETRIC, np.where(tri == 0.0, math.inf, tri))
    with pytest.raises(ValueError, match="distinct"):
        _locate(SYMMETRIC, np.vstack([tri[:2], tri[:1]]))
    # one bad triple fails the whole stack
    with pytest.raises(ValueError, match="distinct"):
        locate_points([SYMMETRIC] * 2, [tri, np.vstack([tri[:2], tri[:1]])])


def _noiseless_peaks(cells, ue, ue_cb):
    """The peak matrix of an ideal noiseless measurement: each cell peaks at
    the UE beam nearest its bearing (lowest index on ties), nearer cells higher."""
    # the UE's sweep towards each cell: the cells stand in for estimates
    best = reorder_rx_beams(ue_cb, cells, np.asarray(ue)[None, None, :])[:, 0, 0]
    near = [1.0 / (1.0 + math.dist(ue, cell)) for cell in cells]
    return _one_hot(best, ue_cb.n_beams, near)


def test_estimate_point_matches_geometry():
    cells = build_cluster(3, D)
    ue = (95.0, 55.0)
    ue_cb = make_codebook(64)  # fine codebook -> small quantization error
    peaks = _noiseless_peaks(cells, ue, ue_cb)
    point, status = _estimate(peaks, cells)
    assert status == CLOSED_FORM and math.dist(point, ue) < 12.0
    # every cell's best peak again at the last Tx index: the lowest index wins
    tied = peaks.copy()
    tied[-1] = peaks.max(axis=0)
    assert np.array_equal(_estimate(tied, cells)[0], point)


def test_top3_counterclockwise_about_their_centroid():
    """The strongest three cells come back counterclockwise, whatever
    their rank order."""
    tri = build_cluster(3, D)
    for strengths in itertools.permutations([1.0, 2.0, 3.0]):
        peaks = _one_hot([0, 0, 0], peaks=list(strengths))
        assert ordered_top3(peaks[None], tri[None]).tolist() == [[0, 1, 2]]
    # a weak fourth cell is left out; a strong one between cells 1 and 2
    # joins them in counterclockwise order
    cells = np.vstack([tri, [(180.0, 120.0)]])
    weak = _one_hot([0] * 4, peaks=[3.0, 2.0, 1.5, 1.0])
    strong = _one_hot([0] * 4, peaks=[1.0, 2.0, 1.5, 3.0])
    top = ordered_top3(np.stack([weak, strong]), np.stack([cells, cells]))
    assert top.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_quantization_bound_on_angle_estimates():
    """Noiseless LOS indexing errs by at most half a beam spacing per
    bearing, so an angle, the difference of two bearings, errs by at most
    one spacing."""
    tri = build_cluster(3, D)
    ue_cb = make_codebook(8)
    rng = np.random.default_rng(13)
    bound = 2 * math.pi / 8
    ues = place_ue(tri, rng, count=1000)
    peaks = np.stack([_noiseless_peaks(tri, ue, ue_cb) for ue in ues])
    thetas = index_angles(peaks.argmax(axis=-2), 8)
    truth = np.array([true_angles(tri, ue) for ue in ues])
    assert (np.abs(thetas - truth) <= bound + 1e-12).all()


def _walk_triples(n_tx):
    """(best indices (K, 3), points (K, 2), statuses (K,)) of every
    best-index triple on the base triangle, in one stack."""
    tri = build_cluster(3, D)
    best = np.array(list(itertools.product(range(n_tx), repeat=3)))
    peaks = np.stack([_one_hot(b, n_tx) for b in best])
    points, status = estimate_points(peaks, np.broadcast_to(tri, (len(best), 3, 2)))
    return best, points, status


@pytest.mark.parametrize("n_tx,expect", [(4, (40, 12, 12)), (8, (176, 168, 168))])
def test_every_best_index_triple_resolves_fails_or_locates(n_tx, expect):
    """On the base triangle every triple of best Tx indices is unresolvable
    (equal indices), a failed triangulation (mirrored order) or a finite
    point; the counts are (unresolvable, failed, point)."""
    _, points, status = _walk_triples(n_tx)
    located = status <= CENTROID
    assert np.isfinite(points[located]).all() and np.isnan(points[~located]).all()
    counts = (np.count_nonzero(status == UNRESOLVABLE), np.count_nonzero(status == FAILED),
              np.count_nonzero(located))
    assert counts == expect


def test_every_8_beam_point_is_exact_or_centroid():
    """Each closed-form 8-beam point reproduces its angles within 1e-9 rad;
    each other point is the triangle's centroid, which does not."""
    best, points, status = _walk_triples(8)
    centroid = build_cluster(3, D).mean(axis=0)
    for b, point, st_ in zip(best, points, status):
        thetas = tuple(index_angles(b, 8).tolist())
        if st_ == CLOSED_FORM:
            assert reproduces_angles(point, thetas), b
        elif st_ == CENTROID:
            assert np.array_equal(point, centroid), b
            assert not reproduces_angles(point, thetas), b
    assert np.count_nonzero(status == CENTROID) == 96  # 12 sets, 8 rotations each


def _seen_from_a_cell(tri, thetas) -> bool:
    """Some base cell sees the other two at their pair's angle (1e-9 rad)."""
    s = tri[:, 0] + 1j * tri[:, 1]
    return any(abs(np.angle((s[j - 1] - s[j]) / (s[j - 2] - s[j])
                            * np.exp(-1j * thetas[j - 2]))) <= 1e-9 for j in range(3))


@pytest.mark.parametrize("n_tx", [6, 12])
def test_no_point_on_a_cell(n_tx):
    """Codebooks of 6 and 12 beams have triples whose angles place the UE on
    a cell, where they are seen; those fail instead of returning the cell,
    and no located point lies on a cell."""
    cells = build_cluster(3, D)
    best, points, status = _walk_triples(n_tx)
    on_cell = 0
    for b, point, st_ in zip(best, points, status):
        if st_ == FAILED and _seen_from_a_cell(cells, index_angles(b, n_tx)):
            on_cell += 1
        elif st_ <= CENTROID:
            assert min(math.dist(point, c) for c in cells) > 1e-9 * D
    assert on_cell > 0


def test_point_scales_with_the_triangle():
    """The same best triple on a triangle twice the size gives a point twice
    as far from the origin vertex."""
    peaks = _one_hot((0, 3, 5))
    small = _estimate(peaks, build_cluster(3, D))[0]
    large = _estimate(peaks, build_cluster(3, 2 * D))[0]
    assert np.allclose(large, 2 * small, rtol=1e-9, atol=1e-9)


def test_failed_triangulation_on_every_call():
    tri = build_cluster(3, D)
    peaks = _one_hot((0, 2, 1), n_tx=4)  # mirrored order: two full turns
    for _ in range(3):
        point, status = _estimate(peaks, tri)
        assert status == FAILED and np.isnan(point).all()


def test_extra_cell_next_to_a_base_cell():
    """An extra cell 1e-9 to 1 m from a base cell, ranked into the top three
    by its own peak or (every other draw) below them: the estimate fails or
    is a finite point off every cell."""
    tri = build_cluster(3, D)
    ue_cb = make_codebook(8)
    rng = np.random.default_rng(3)
    cells, peaks = [], []
    for k in range(600):
        ue = place_ue(tri, rng)
        base = tri[rng.integers(3)]
        r, phi = 10.0 ** rng.uniform(-9.0, 0.0), rng.uniform(0.0, 2 * math.pi)
        extra = (base[0] + r * math.cos(phi), base[1] + r * math.sin(phi))
        cells.append(np.vstack([tri, extra]))
        peaks.append(_noiseless_peaks(cells[-1], ue, ue_cb))
        peaks[-1][:, 3] *= 0.5 if k % 2 else 1.0
    cells = np.stack(cells)
    points, status = estimate_points(np.stack(peaks), cells)
    located = status <= CENTROID
    assert located.any() and not located.all()
    assert np.isfinite(points[located]).all() and np.isnan(points[~located]).all()
    _assert_centroids(np.stack(peaks), cells, points, status)
    gaps = np.hypot(*(points[:, None, :] - cells).transpose(2, 0, 1)).min(axis=-1)
    assert (gaps[located] > 1e-9 * D).all()


@st.composite
def _degenerate_row(draw, n_tx, n_sc):
    """(peaks (n_tx, n_sc), cells (n_sc, 2)) of one trial on the base
    triangle plus extra cells, each extra within 1e-9 to 1 m of a base cell
    or anywhere in the circumscribed disk. The peaks are best indices drawn
    outright (equal ones and inconsistent 8-beam triples among them) or a
    noiseless UE's, the UE inside the triangle or on an edge."""
    cells = [tuple(c) for c in build_cluster(3, D)]
    for _ in range(n_sc - 3):
        if draw(st.booleans()):
            bx, by = cells[draw(st.integers(0, 2))]
            r = 10.0 ** draw(st.floats(-9.0, 0.0))
        else:
            bx, by = D / 2.0, D / (2.0 * math.sqrt(3.0))
            r = D / math.sqrt(3.0) * draw(st.floats(0.0, 1.0))
        phi = draw(st.floats(0.0, 2 * math.pi))
        cells.append((bx + r * math.cos(phi), by + r * math.sin(phi)))
    assume(len(set(cells)) == n_sc)  # a cluster's cells are distinct
    cells = np.array(cells)
    kind = draw(st.sampled_from(["indices", "inside", "edge"]))
    if kind == "indices":
        best = draw(st.lists(st.integers(0, n_tx - 1), min_size=n_sc, max_size=n_sc))
        strength = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                 min_size=n_sc, max_size=n_sc))
        return _one_hot(best, n_tx, strength), cells
    i, f = draw(st.integers(0, 2)), draw(st.floats(0.01, 0.99))
    ue = cells[i] + f * (cells[(i + 1) % 3] - cells[i])
    if kind == "inside":
        ue = ue + draw(st.floats(0.0, 0.98)) * (cells[(i + 2) % 3] - ue)
    return _noiseless_peaks(cells, ue, make_codebook(n_tx)), cells


@st.composite
def _degenerate_stack(draw):
    n_tx, n_sc = draw(st.sampled_from([4, 6, 8, 12])), draw(st.integers(3, 6))
    rows = draw(st.lists(_degenerate_row(n_tx, n_sc), min_size=1, max_size=12))
    return np.stack([p for p, _ in rows]), np.stack([c for _, c in rows])


@given(_degenerate_stack())
@settings(max_examples=150, deadline=None)
def test_a_stack_equals_its_rows_estimated_alone(stack):
    """estimate_points on T stacked trials gives each trial the point and
    status it gets as a stack of one, on degenerate inputs: equal best
    indices, inconsistent triples, UEs on a triangle edge and extra cells
    next to a base cell."""
    peaks, cells = stack
    points, status = estimate_points(peaks, cells)
    assert points.shape == (len(peaks), 2) and status.shape == (len(peaks),)
    for t in range(len(peaks)):
        point, st_ = estimate_points(peaks[t:t + 1], cells[t:t + 1])
        assert st_.tolist() == [status[t]]
        assert np.array_equal(point[0], points[t], equal_nan=True)
    located = status <= CENTROID
    assert np.isfinite(points[located]).all() and np.isnan(points[~located]).all()
    _assert_centroids(peaks, cells, points, status)
