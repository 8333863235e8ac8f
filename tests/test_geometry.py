import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwia.geometry import (
    ClusterGeometry,
    build_cluster,
    circular_distance,
    normalize_angle,
    place_ue,
    true_angles,
)
from mmwia.selftest import ue_centroid

D = 200.0


def _distances(geom, ue):
    return [math.dist(ue, p) for p in geom.cells]


def test_triangle_side_lengths():
    geom = build_cluster(3, D)
    for i in range(3):
        for j in range(i + 1, 3):
            assert math.dist(geom.cells[i], geom.cells[j]) == pytest.approx(D)


def test_single_cell_at_origin():
    geom = build_cluster(1, D)
    assert np.array_equal(geom.cells, [[0.0, 0.0]])


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        build_cluster(0, D)
    with pytest.raises(ValueError):
        build_cluster(3, 0.0)
    with pytest.raises(ValueError):
        build_cluster(3, -5.0)


@pytest.mark.parametrize("cells", [
    [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]],  # two cells coincide
    [[0.0, 0.0], [math.nan, 1.0]],
    [[0.0, 0.0, 0.0]],  # not (n_sc, 2)
    np.zeros((0, 2)),
], ids=["coincident", "nan", "shape", "empty"])
def test_invalid_layout_rejected(cells):
    with pytest.raises(ValueError):
        ClusterGeometry(cells)


def test_cells_are_read_only():
    geom = build_cluster(3, D)
    with pytest.raises(ValueError):
        geom.cells[0, 0] = 1.0


def test_large_cluster_reproducible_bit_exact():
    a = build_cluster(12, D, layout_seed=7)
    b = build_cluster(12, D, layout_seed=7)
    assert np.array_equal(a.cells, b.cells)
    assert a.cells.shape == (12, 2)
    # first three are the exact triangle
    assert np.array_equal(a.cells[:3], build_cluster(3, D).cells)


def test_extra_cells_inside_circumscribed_disk():
    geom = build_cluster(30, D, layout_seed=3)
    center = (D / 2.0, D / (2.0 * math.sqrt(3.0)))
    radius = D / math.sqrt(3.0)
    for p in geom.cells[3:]:
        assert math.dist(p, center) <= radius + 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_place_ue_inside_triangle(seed):
    geom = build_cluster(3, D)
    ux, uy = place_ue(geom, seed)
    (ax, ay), (bx, by), (cx, cy) = geom.triangle()
    # barycentric coordinates must all be non-negative
    det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    l1 = ((by - cy) * (ux - cx) + (cx - bx) * (uy - cy)) / det
    l2 = ((cy - ay) * (ux - cx) + (ax - cx) * (uy - cy)) / det
    l3 = 1.0 - l1 - l2
    assert min(l1, l2, l3) >= -1e-12


def test_place_ue_deterministic():
    geom = build_cluster(3, D)
    assert np.array_equal(place_ue(geom, 42), place_ue(geom, 42))


def test_place_ue_empirical_centroid():
    """100k placements, centroid within 2 m."""
    ue_centroid()


def test_angles_at_centroid():
    geom = build_cluster(3, D)
    centroid = geom.triangle().mean(axis=0)
    assert true_angles(geom, centroid) == pytest.approx((2 * math.pi / 3,) * 3)


def test_angles_at_side_midpoint():
    geom = build_cluster(3, D)
    assert true_angles(geom, (D / 2.0, 0.0)) == pytest.approx(
        (math.pi, math.pi / 2, math.pi / 2))


def test_angles_reject_coincident_ue():
    with pytest.raises(ValueError):
        true_angles(build_cluster(3, D), (0.0, 0.0))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_angle_sum_and_cosine_rule(seed):
    geom = build_cluster(3, D)
    ue = place_ue(geom, seed)
    thetas = true_angles(geom, ue)
    assert abs(sum(thetas) - 2 * math.pi) < 1e-12
    d = _distances(geom, ue)
    for i in range(3):
        j = (i + 1) % 3
        lhs = d[i] ** 2 + d[j] ** 2 - 2 * d[i] * d[j] * math.cos(thetas[i])
        assert abs(lhs - D * D) <= 1e-9 * D * D


def test_distances_at_centroid_and_midpoint():
    geom = build_cluster(3, D)
    centroid = geom.triangle().mean(axis=0)
    assert _distances(geom, centroid) == pytest.approx([D / math.sqrt(3)] * 3)
    mid = (D / 2.0, 0.0)
    assert sorted(_distances(geom, mid)) == pytest.approx(
        [100.0, 100.0, 100.0 * math.sqrt(3)])


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_circular_distance_symmetric_and_bounded(a, b):
    d = circular_distance(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(circular_distance(b, a))


def test_normalize_angle_wraps():
    assert normalize_angle(2 * math.pi) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    # arrays wrap alike; a tiny negative angle plus 2*pi would round to 2*pi
    wrapped = normalize_angle(np.array([2 * math.pi, -math.pi / 2, -1e-300]))
    np.testing.assert_allclose(wrapped, [0.0, 3 * math.pi / 2, 0.0])
    assert normalize_angle(-1e-300) == 0.0
