import math
import warnings

import numpy as np
import pytest

from string_sausage.geometry import (
    PointCloud,
    ResolutionWarning,
    bounding_box,
    box_counting_dimension,
    occupied_cube_count,
    sausage_volume_hit_or_miss,
    sausage_volume_voxel,
    wiener_sausage_volume,
)
from string_sausage.rng import MC, substream
from string_sausage.simulate import brownian_path


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0]]))


def test_bounding_box_examples():
    cloud = PointCloud(np.zeros((1, 2)))
    box = bounding_box(cloud, 0.5)
    np.testing.assert_allclose(box.lower, [-0.5, -0.5])
    np.testing.assert_allclose(box.upper, [0.5, 0.5])
    # adding an interior point leaves the tight box unchanged
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    tight = bounding_box(PointCloud(pts))
    grown = bounding_box(PointCloud(np.vstack([pts, [[0.5, 1.0]]])))
    np.testing.assert_allclose(tight.lower, grown.lower)
    np.testing.assert_allclose(tight.upper, grown.upper)
    with pytest.raises(ValueError):
        bounding_box(cloud, -1.0)


def test_hit_or_miss_single_disk():
    cloud = PointCloud(np.zeros((1, 2)))
    est = sausage_volume_hit_or_miss(cloud, 0.5, 100_000, substream(1, MC, 0))
    assert abs(est.volume - math.pi / 4.0) < 4 * est.stderr
    assert est.stderr > 0
    lo, hi = est.ci95()
    assert lo < math.pi / 4.0 < hi


def test_hit_or_miss_disjoint_disks_and_union_semantics():
    two = PointCloud(np.array([[0.0, 0.0], [5.0, 0.0]]))
    est = sausage_volume_hit_or_miss(two, 0.5, 100_000, substream(2, MC, 0))
    assert abs(est.volume - math.pi / 2.0) < 4 * est.stderr
    dup = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0]]))
    est_dup = sausage_volume_hit_or_miss(dup, 0.5, 100_000, substream(3, MC, 0))
    assert abs(est_dup.volume - math.pi / 4.0) < 4 * est_dup.stderr


def test_hit_or_miss_validation():
    cloud = PointCloud(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        sausage_volume_hit_or_miss(cloud, 0.0, 2000, substream(0, MC, 0))
    with pytest.raises(ValueError):
        sausage_volume_hit_or_miss(cloud, 0.5, 500, substream(0, MC, 0))


def test_voxel_single_disk_within_one_percent():
    cloud = PointCloud(np.zeros((1, 2)))
    est = sausage_volume_voxel(cloud, 0.5, 0.01)
    assert abs(est.volume - math.pi / 4.0) / (math.pi / 4.0) < 0.01


def test_voxel_monotone_in_radius():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.3, 0.1]]))
    v1 = sausage_volume_voxel(cloud, 0.4, 0.05).volume
    v2 = sausage_volume_voxel(cloud, 0.6, 0.05).volume
    assert v2 >= v1


def test_voxel_validation():
    with pytest.raises(ValueError):
        sausage_volume_voxel(PointCloud(np.zeros((1, 4))), 0.5, 0.05)
    with pytest.raises(ValueError):
        sausage_volume_voxel(PointCloud(np.zeros((1, 2))), 0.5, 0.2)


def test_hit_or_miss_vs_voxel_random_cloud():
    rng = substream(4, MC, 0)
    cloud = PointCloud(rng.uniform(-1, 1, size=(100, 2)))
    mc = sausage_volume_hit_or_miss(cloud, 0.3, 200_000, substream(5, MC, 0))
    vx = sausage_volume_voxel(cloud, 0.3, 0.02)
    # voxel discretization error ~ perimeter * voxel; combine with 4-sigma MC
    assert abs(mc.volume - vx.volume) < 4 * mc.stderr + 0.15


def test_union_bound_property():
    rng = substream(6, MC, 0)
    A = rng.uniform(-1, 0, size=(30, 2))
    B = rng.uniform(0, 1, size=(30, 2))
    est_ab = sausage_volume_hit_or_miss(PointCloud(np.vstack([A, B])), 0.3, 50_000, substream(7, MC, 0))
    est_a = sausage_volume_hit_or_miss(PointCloud(A), 0.3, 50_000, substream(8, MC, 0))
    est_b = sausage_volume_hit_or_miss(PointCloud(B), 0.3, 50_000, substream(9, MC, 0))
    tol = 4 * (est_ab.stderr + est_a.stderr + est_b.stderr)
    assert est_ab.volume <= est_a.volume + est_b.volume + tol


def test_wiener_sausage_guard_warns():
    path = brownian_path(3, 1.0, 0.25, seed=1)
    with pytest.warns(ResolutionWarning):
        wiener_sausage_volume(path, 0.1, 2000, substream(10, MC, 0))


def test_wiener_sausage_frozen_path_is_ball():
    path = PointCloud(np.zeros((1, 3)), meta={"dt": 1e-6})
    est = wiener_sausage_volume(path, 0.5, 100_000, substream(11, MC, 0))
    ball = 4.0 * math.pi * 0.125 / 3.0
    assert abs(est.volume - ball) < 4 * est.stderr


def test_wiener_sausage_monotone_in_T():
    path = brownian_path(3, 1.0, 0.004, seed=2)
    prefix = PointCloud(path.points[:120], meta={"dt": 0.004})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        v_short = wiener_sausage_volume(prefix, 0.5, 50_000, substream(12, MC, 0)).volume
        v_long = wiener_sausage_volume(path, 0.5, 50_000, substream(12, MC, 0)).volume
    assert v_long >= v_short - 0.2


def test_occupied_cube_count():
    pts = np.array([[0.05, 0.05], [0.15, 0.05], [0.05, 0.05]])
    assert occupied_cube_count(pts, 0.1) == 2
    assert occupied_cube_count(pts, 1.0) == 1


def test_box_counting_straight_segment():
    seg = np.zeros((2000, 2))
    seg[:, 0] = np.linspace(0.0, 1.0, 2000)
    scales = np.array([2.0 ** -e for e in range(3, 8)])
    res = box_counting_dimension(seg, scales)
    assert abs(res.slope - 1.0) < 0.1


def test_box_counting_single_point():
    pt = np.zeros((1, 2))
    scales = np.array([2.0 ** -e for e in range(3, 8)])
    res = box_counting_dimension(pt, scales)
    assert abs(res.slope) < 1e-9
    assert np.all(res.counts == 1)


def test_box_counting_validation():
    seg = np.zeros((10, 2))
    seg[:, 0] = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        box_counting_dimension(seg, [0.1, 0.05, 0.01])  # too few scales
    with pytest.raises(ValueError):
        box_counting_dimension(seg, [0.1, 0.2, 0.05, 0.01])  # not decreasing
    with pytest.raises(ValueError):
        box_counting_dimension(seg, [0.1, 0.08, 0.06, 0.04])  # span < 1.5 decades
