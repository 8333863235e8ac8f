import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia import estimation
from mmwia.antenna import make_codebook
from mmwia.estimation import (
    AnglesUnresolvable,
    EstimationError,
    TriangulationFailed,
    estimate_point,
    index_angles,
    locate_ue,
    select_top3,
    wrapped_index_angle,
)
from mmwia.geometry import ClusterGeometry, build_cluster, place_ue, true_angles
from mmwia.protocol import reorder_rx_beams
from mmwia.selftest import (
    fallback_vs_grid,
    locate_case,
    reproduces_angles,
    residual_grid_minimum,
    round_trip,
)

D = 200.0


def _one_hot(best, n_tx=8, peaks=1.0):
    """(n_tx, n_sc) peak matrix: cell i peaks at Tx index best[i]."""
    m = np.zeros((n_tx, len(best)))
    m[list(best), range(len(best))] = peaks
    return m


def test_select_top3_ordering_and_ties():
    top = select_top3(_one_hot([0] * 4, peaks=[5.0, 9.0, 1.0, 7.0]))
    assert list(top) == [1, 3, 0]
    assert list(select_top3(_one_hot([0] * 5, peaks=2.0))) == [0, 1, 2]
    three = _one_hot([0] * 3, peaks=[0.0, 1.0, 2.0])
    assert set(select_top3(three)) == {0, 1, 2}
    with pytest.raises(EstimationError):
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
    assert wrapped_index_angle(1, 3, 8) == pytest.approx(math.pi / 2)
    assert wrapped_index_angle(7, 2, 8) == pytest.approx(3 * math.pi / 4)
    with pytest.raises(AnglesUnresolvable):
        wrapped_index_angle(4, 4, 8)


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63),
       st.integers(min_value=0, max_value=63))
@settings(deadline=None)
def test_wrapped_differences_telescope(n_tx, a, b, c):
    idx = [a % n_tx, b % n_tx, c % n_tx]
    if len(set(idx)) < 3:
        return
    total = sum(wrapped_index_angle(idx[i], idx[(i + 1) % 3], n_tx) for i in range(3))
    # one full turn for ccw-consistent triples, two turns for mirrored ones
    assert min(abs(total - 2 * math.pi), abs(total - 4 * math.pi)) < 1e-9


SYMMETRIC = (2 * math.pi / 3,) * 3
# a closing 8-beam angle set that no point reproduces
INCONSISTENT = tuple(2 * math.pi * d / 8 for d in (1, 3, 4))


def test_solve_symmetric_case():
    locate_case("symmetric")


def test_solve_side_midpoint_case():
    locate_case("side midpoint")


def test_solve_exterior_case():
    locate_case("exterior")


def test_solve_rejects_inconsistent_sum():
    tri = build_cluster(3, D).triangle()
    with pytest.raises(TriangulationFailed, match="close"):
        locate_ue((math.pi / 2, math.pi / 2, math.pi / 2), tri)
    with pytest.raises(TriangulationFailed, match="outside"):
        locate_ue((0.0, math.pi, math.pi), tri)


def test_solve_noisy_angles_least_squares():
    """Angles 0.02 rad off the truth, still closing, land within 8 m of it."""
    geom = build_cluster(3, D)
    ue = (80.0, 60.0)
    t = true_angles(geom, ue)
    eps = 0.02
    noisy = (t[0] + eps, t[1] - eps, t[2])
    assert math.dist(locate_ue(noisy, geom.triangle()), ue) < 8.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_exact_angles(seed):
    geom = build_cluster(3, D)
    ue = place_ue(geom, seed)
    p = locate_ue(true_angles(geom, ue), geom.triangle())
    assert math.dist(p, ue) < 1e-6


def test_locate_equal_distances_gives_centroid():
    """Equal angles put the UE at equal distances from the three cells."""
    tri = build_cluster(3, D).triangle()
    assert math.dist(locate_ue(SYMMETRIC, tri), tri.mean(axis=0)) < 1e-9


def test_locate_rejects_bad_anchors():
    tri = build_cluster(3, D).triangle()
    with pytest.raises(ValueError):
        locate_ue(SYMMETRIC, tri[:2])
    with pytest.raises(ValueError):
        locate_ue(SYMMETRIC, np.vstack([tri, tri[:1]]))
    with pytest.raises(ValueError):
        locate_ue(SYMMETRIC[:2], tri)
    with pytest.raises(ValueError, match="finite"):
        locate_ue(SYMMETRIC, np.where(tri == 0.0, math.inf, tri))
    with pytest.raises(ValueError, match="distinct"):
        locate_ue(SYMMETRIC, np.vstack([tri[:2], tri[:1]]))


def test_locate_rejects_non_finite_point(monkeypatch):
    """A fallback that diverges raises TriangulationFailed instead of
    returning NaN."""
    monkeypatch.setattr(estimation, "_least_squares_point",
                        lambda thetas, anchors: complex(math.nan, math.nan))
    with pytest.raises(TriangulationFailed, match="finite"):
        locate_ue(INCONSISTENT, build_cluster(3, D).triangle())


def test_locate_perturbed_distances_near_truth():
    """Angle sets that no point reproduces: the least-squares point lies
    within 0.02 m of a grid oracle (12 sets at 8 beams)."""
    assert fallback_vs_grid() == 12


def _noiseless_peaks(geom, ue, ue_cb):
    """The peak matrix of an ideal noiseless measurement: each cell peaks at
    the UE beam nearest its bearing (lowest index on ties), nearer cells higher."""
    # the UE's sweep towards each cell: the cells stand in for estimates
    best = reorder_rx_beams(ue_cb, geom.cells, np.asarray(ue)[None, None, :])[:, 0, 0]
    near = [1.0 / (1.0 + math.dist(ue, cell)) for cell in geom.cells]
    return _one_hot(best, ue_cb.n_beams, near)


def test_estimate_point_matches_geometry():
    geom = build_cluster(3, D)
    ue = (95.0, 55.0)
    ue_cb = make_codebook(64)  # fine codebook -> small quantization error
    peaks = _noiseless_peaks(geom, ue, ue_cb)
    point, _, _ = estimate_point(peaks, geom)
    assert math.dist(point, ue) < 12.0
    # every cell's best peak again at the last Tx index: the lowest index wins
    tied = peaks.copy()
    tied[-1] = peaks.max(axis=0)
    assert np.array_equal(estimate_point(tied, geom)[0], point)


def test_quantization_bound_on_angle_estimates():
    """Noiseless LOS indexing errs by at most half a beam spacing per
    bearing, so an angle, the difference of two bearings, errs by at most
    one spacing."""
    geom0 = build_cluster(3, D)
    ue_cb = make_codebook(8)
    rng = np.random.default_rng(13)
    bound = 2 * math.pi / 8
    for _ in range(1000):
        ue = place_ue(geom0, rng)
        peaks = _noiseless_peaks(geom0, ue, ue_cb)
        thetas = index_angles(peaks.argmax(axis=0), 8)
        for t_hat, t in zip(thetas, true_angles(geom0, ue)):
            assert abs(t_hat - t) <= bound + 1e-12


def _walk_triples(n_tx):
    """(best indices, point or exception) of every best-index triple on the
    base triangle."""
    geom = build_cluster(3, D)
    for best in itertools.product(range(n_tx), repeat=3):
        try:
            yield best, estimate_point(_one_hot(best, n_tx), geom)
        except EstimationError as exc:
            yield best, exc


@pytest.mark.parametrize("n_tx,expect", [(4, (40, 12, 12)), (8, (176, 168, 168))])
def test_every_best_index_triple_resolves_fails_or_locates(n_tx, expect):
    """On the base triangle every triple of best Tx indices is unresolvable
    (equal indices), a failed triangulation (mirrored order) or a finite
    point; the counts are (unresolvable, failed, point)."""
    counts = [0, 0, 0]
    for _, out in _walk_triples(n_tx):
        if isinstance(out, AnglesUnresolvable):
            counts[0] += 1
        elif isinstance(out, TriangulationFailed):
            counts[1] += 1
        else:
            assert np.isfinite(out[0]).all()
            counts[2] += 1
    assert tuple(counts) == expect


def test_every_8_beam_point_is_exact_or_least_squares():
    """Each located 8-beam triple either reproduces its angles within 1e-9
    rad or lies within 0.02 m of the residuals' grid minimum."""
    least_squares = 0
    for best, out in _walk_triples(8):
        if isinstance(out, EstimationError):
            continue
        point, _, thetas = out
        if not reproduces_angles(point, thetas):
            least_squares += 1
            assert math.dist(point, residual_grid_minimum(thetas)) < 0.02, best
    assert least_squares == 96  # the 12 inconsistent sets, 8 rotations each


@pytest.mark.parametrize("n_tx", [6, 12])
def test_no_point_on_a_cell(n_tx):
    """Codebooks of 6 and 12 beams have triples whose angles place the UE on
    a cell; they raise TriangulationFailed instead of returning the cell."""
    cells = build_cluster(3, D).triangle()
    on_cell = 0
    for _, out in _walk_triples(n_tx):
        if isinstance(out, TriangulationFailed) and "on a cell" in str(out):
            on_cell += 1
        elif not isinstance(out, EstimationError):
            assert min(math.dist(out[0], c) for c in cells) > 1e-9 * D
    assert on_cell > 0


def test_point_scales_with_the_triangle():
    """The same best triple on a triangle twice the size gives a point twice
    as far from the origin vertex."""
    peaks = _one_hot((0, 3, 5))
    small = estimate_point(peaks, build_cluster(3, D))[0]
    large = estimate_point(peaks, build_cluster(3, 2 * D))[0]
    assert np.allclose(large, 2 * small, rtol=1e-9, atol=1e-9)


def test_failed_triangulation_raises_on_every_call():
    geom = build_cluster(3, D)
    peaks = _one_hot((0, 2, 1), n_tx=4)  # mirrored order: two full turns
    for _ in range(3):
        with pytest.raises(TriangulationFailed):
            estimate_point(peaks, geom)


def test_round_trip_exact_angles_on_triangle_edges():
    """A UE inside an edge sees that pair at an angle of pi."""
    round_trip(on_edges=True)


def test_extra_cell_next_to_a_base_cell():
    """An extra cell 1e-9 to 1 m from a base cell, ranked into the top three
    by its own peak or (every other draw) below them: the estimate is an
    EstimationError or a finite point off every cell."""
    geom0 = build_cluster(3, D)
    ue_cb = make_codebook(8)
    rng = np.random.default_rng(3)
    for k in range(600):
        ue = place_ue(geom0, rng)
        base = geom0.cells[rng.integers(3)]
        r, phi = 10.0 ** rng.uniform(-9.0, 0.0), rng.uniform(0.0, 2 * math.pi)
        extra = (base[0] + r * math.cos(phi), base[1] + r * math.sin(phi))
        geom = ClusterGeometry(np.vstack([geom0.cells, extra]))
        peaks = _noiseless_peaks(geom, ue, ue_cb)
        peaks[:, 3] *= 0.5 if k % 2 else 1.0
        try:
            point = estimate_point(peaks, geom)[0]
        except EstimationError:
            continue
        assert np.isfinite(point).all()
        assert min(math.dist(point, cell) for cell in geom.cells) > 1e-9 * D
