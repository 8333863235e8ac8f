import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia.config import SimConfig
from mmwia.experiments import draw_trial
from mmwia.geometry import bearings, build_cluster, circular_distance, place_ue
from mmwia.selftest import normalize_angle, true_angles, ue_centroid

D = 200.0


def _distances(cells, ue):
    return [math.dist(ue, p) for p in cells]


def test_triangle_side_lengths():
    cells = build_cluster(3, D)
    for i in range(3):
        for j in range(i + 1, 3):
            assert math.dist(cells[i], cells[j]) == pytest.approx(D)


def test_single_cell_at_origin():
    """A one-cell cluster is the base triangle's first cell."""
    cells, _, _ = draw_trial(SimConfig().replace(geometry={"n_sc": 1}), 5, 4)
    assert np.array_equal(cells, np.zeros((4, 1, 2)))


def test_bad_arguments_rejected():
    for n_sc in (0, 1, 2):  # fewer cells than the base triangle has
        with pytest.raises(ValueError, match="base triangle"):
            build_cluster(n_sc, D)
    with pytest.raises(ValueError):
        build_cluster(3, 0.0)
    with pytest.raises(ValueError):
        build_cluster(3, -5.0)


@pytest.mark.parametrize("n_sc", [3, 5, 22])
def test_count_of_one_is_the_single_draw(n_sc):
    """A draw of one trial gives the unbatched values and leaves the
    generator where the unbatched draw leaves it."""
    for seed in range(20):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        cells = build_cluster(n_sc, D, rng_a)
        batch = build_cluster(n_sc, D, rng_b, count=1)
        assert batch.shape == (1, n_sc, 2)
        assert np.array_equal(batch[0], cells)
        ues = place_ue(batch, rng_b, count=1)
        assert ues.shape == (1, 2)
        assert np.array_equal(ues[0], place_ue(cells, rng_a))
        assert rng_a.uniform() == rng_b.uniform()


def test_cells_are_read_only():
    """A cluster, single or batched, is a read-only float ndarray."""
    for cells in (build_cluster(3, D), build_cluster(5, D, layout_seed=1, count=4)):
        assert type(cells) is np.ndarray and cells.dtype == float
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[..., 0, 0] = 1.0


def test_large_cluster_reproducible_bit_exact():
    a = build_cluster(12, D, layout_seed=7)
    b = build_cluster(12, D, layout_seed=7)
    assert np.array_equal(a, b)
    assert a.shape == (12, 2)
    # first three are the exact triangle
    assert np.array_equal(a[:3], build_cluster(3, D))


def test_extra_cells_inside_circumscribed_disk():
    cells = build_cluster(30, D, layout_seed=3)
    center = (D / 2.0, D / (2.0 * math.sqrt(3.0)))
    radius = D / math.sqrt(3.0)
    for p in cells[3:]:
        assert math.dist(p, center) <= radius + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_place_ue_inside_triangle(seed):
    cells = build_cluster(3, D)
    ux, uy = place_ue(cells, seed)
    (ax, ay), (bx, by), (cx, cy) = cells
    # barycentric coordinates must all be non-negative
    det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    l1 = ((by - cy) * (ux - cx) + (cx - bx) * (uy - cy)) / det
    l2 = ((cy - ay) * (ux - cx) + (ax - cx) * (uy - cy)) / det
    l3 = 1.0 - l1 - l2
    assert min(l1, l2, l3) >= -1e-12


def test_place_ue_deterministic():
    cells = build_cluster(3, D)
    assert np.array_equal(place_ue(cells, 42), place_ue(cells, 42))


def test_place_ue_empirical_centroid():
    """100k placements, centroid within 2 m."""
    ue_centroid()


def test_angles_at_centroid():
    cells = build_cluster(3, D)
    centroid = cells.mean(axis=0)
    assert true_angles(cells, centroid) == pytest.approx((2 * math.pi / 3,) * 3)


def test_angles_at_side_midpoint():
    cells = build_cluster(3, D)
    assert true_angles(cells, (D / 2.0, 0.0)) == pytest.approx(
        (math.pi, math.pi / 2, math.pi / 2))


def test_angles_reject_coincident_ue():
    with pytest.raises(ValueError):
        true_angles(build_cluster(3, D), (0.0, 0.0))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_angle_sum_and_cosine_rule(seed):
    cells = build_cluster(3, D)
    ue = place_ue(cells, seed)
    thetas = true_angles(cells, ue)
    assert abs(sum(thetas) - 2 * math.pi) < 1e-12
    d = _distances(cells, ue)
    for i in range(3):
        j = (i + 1) % 3
        lhs = d[i] ** 2 + d[j] ** 2 - 2 * d[i] * d[j] * math.cos(thetas[i])
        assert abs(lhs - D * D) <= 1e-9 * D * D


def test_distances_at_centroid_and_midpoint():
    cells = build_cluster(3, D)
    centroid = cells.mean(axis=0)
    assert _distances(cells, centroid) == pytest.approx([D / math.sqrt(3)] * 3)
    mid = (D / 2.0, 0.0)
    assert sorted(_distances(cells, mid)) == pytest.approx(
        [100.0, 100.0, 100.0 * math.sqrt(3)])


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_circular_distance_symmetric_and_bounded(a, b):
    d = circular_distance(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(circular_distance(b, a))


def _mod_distance(a, b):
    """The floating-point modulo form of the circular distance."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, 2 * math.pi) - np.pi)


def test_circular_distance_equals_the_modulo_form_bit_for_bit():
    """Random azimuths, codebook centres and their float neighbours, and
    pairs several turns apart give the modulo form's bits."""
    rng = np.random.default_rng(21)
    a, b = rng.uniform(0.0, 2 * math.pi, (2, 200_000))
    assert np.array_equal(circular_distance(a, b), _mod_distance(a, b))
    edges = [0.0, -0.0, math.pi, np.nextafter(2 * math.pi, 0.0)]
    for n in (1, 2, 3, 4, 6, 8, 12, 16, 22, 64):
        centres = np.arange(n) * (2 * math.pi) / n
        edges.extend(centres)
        edges.extend(np.nextafter(centres, 10.0))
        edges.extend(np.nextafter(centres, -10.0))
    edges = np.array(edges)
    x, y = np.meshgrid(edges, edges)
    assert np.array_equal(circular_distance(x, y), _mod_distance(x, y))
    far = rng.uniform(-30.0, 30.0, (2, 1000))
    assert np.array_equal(circular_distance(*far), _mod_distance(*far))
    assert circular_distance(0.5, 6.0) == _mod_distance(0.5, 6.0)
    assert np.isnan(circular_distance(np.nan, 1.0))


def test_bearings_equal_the_wrapped_arctan2_bit_for_bit():
    """Random vectors, the axes and diagonals with signed zeros, vectors a
    hair below the +x axis (whose angle plus 2*pi rounds to 2*pi) and a
    NaN give ``normalize_angle(arctan2)``'s bits, sign of zero included."""
    rng = np.random.default_rng(22)
    vectors = [rng.normal(size=(100_000, 2)) * rng.choice([1e-3, 1.0, 1e3], (100_000, 1))]
    parts = (0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e-17, -1e-17)
    vectors.append(np.array([(x, y) for x in parts for y in parts]))
    vectors.append(np.array([[1.0, -1e-17], [200.0, -1.9e-14], [np.nan, 1.0]]))
    v = np.concatenate(vectors)
    got = bearings(v[:, 0], v[:, 1])
    expect = normalize_angle(np.arctan2(v[:, 1], v[:, 0]))
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
    assert ((got >= 0.0) & (got < 2 * math.pi)).all()


def test_normalize_angle_wraps():
    assert normalize_angle(2 * math.pi) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    # arrays wrap alike; a tiny negative angle plus 2*pi would round to 2*pi
    wrapped = normalize_angle(np.array([2 * math.pi, -math.pi / 2, -1e-300]))
    np.testing.assert_allclose(wrapped, [0.0, 3 * math.pi / 2, 0.0])
    assert normalize_angle(-1e-300) == 0.0
