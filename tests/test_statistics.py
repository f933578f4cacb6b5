import math
import tracemalloc

import numpy as np
import pytest

from string_sausage.rng import AUX, substream
from string_sausage.simulate import Trace, simulate
from string_sausage.spectral import ModelParams, grid_values, sample_stationary_field
from string_sausage.statistics import (
    IndependenceReport,
    independence_test,
    range_of,
    squared_distances,
)


def test_center_of_mass_equals_grid_mean():
    p = ModelParams(d=2, K=8, M=32, dt=0.1, T=0.7, eps_tail=5e-3)
    trace = simulate(p, seed=1)
    np.testing.assert_allclose(trace.com, trace.values.mean(axis=1), atol=1e-12)


def test_radius_translation_invariant():
    p = ModelParams(d=2, K=8, M=32, dt=0.1, T=0.7, eps_tail=5e-3)
    trace = simulate(p, seed=2)
    shifted = trace.coeffs.copy()
    shifted[:, :, 0] += 5.0  # move the center of mass only
    moved = Trace(p, shifted, grid_values(p, shifted))
    R = trace.radius
    assert R[-1] > 0
    np.testing.assert_allclose(moved.radius, R, atol=1e-12)


def brute_diameter(pts) -> float:
    """The largest pair distance, squared differences summed column by column."""
    best = 0.0
    for block in np.array_split(pts, 1 + len(pts) // 256):
        dist2 = sum((block[:, None, j] - pts[None, :, j]) ** 2 for j in range(pts.shape[1]))
        best = max(best, float(dist2.max()))
    return math.sqrt(best)


def test_range_of_matches_brute_force():
    # bit for bit, on Gaussian clouds, on stationary fields at M = 4096, and
    # on a trace's last values at M = 64, 256 and 4096 held three ways: its
    # coordinate-major view, a C-order copy and a Fortran-order copy
    rng = substream(3, AUX, 0)
    for d in (1, 2, 3, 4):
        pts = rng.standard_normal((200, d))
        assert range_of(pts) == brute_diameter(pts)
        if d > 1:
            p = ModelParams(d=d, K=2047, M=4096, dt=0.1, T=1.0)
            field = grid_values(p, sample_stationary_field(p, rng))
            assert range_of(field) == brute_diameter(field)
        for M in (64, 256, 4096) if d < 4 else ():
            view = simulate(ModelParams(d=d, K=M // 2 - 1, M=M, dt=0.05, T=0.1), seed=d).values[-1]
            want = brute_diameter(np.ascontiguousarray(view))
            for values in (view, np.ascontiguousarray(view), np.asfortranarray(view)):
                assert range_of(values) == want


def test_range_of_degenerate_clouds():
    rng = substream(5, AUX, 0)
    t = rng.standard_normal(500)
    line = np.column_stack([1.0 + t, -2.0 + 3.0 * t])  # collinear in d=2
    plane = rng.standard_normal((500, 2)) @ np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])  # coplanar in d=3
    for pts in (line, plane):
        assert range_of(pts) == brute_diameter(pts) > 0


def test_range_of_identical_points_skips_the_pairwise_scan():
    # no pair beats the double sweep's L = 0, so no block is scanned: memory
    # stays far below one 64-row block of distances against every point
    pts = np.tile([0.3, -1.7], (20_000, 1))
    tracemalloc.start()
    try:
        assert range_of(pts) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(pts) * 8


def axis_sum(diff):
    """The oracle: numpy's sum of squares over the last (coordinate) axis."""
    return (diff ** 2).sum(axis=-1)


def test_squared_distances_equal_the_axis_sum():
    # the kernel's left-to-right sum replaces the short-axis sum bit for bit
    # in every layout its callers pass, and so do the diameter scan and the
    # path radius built on it
    rng = substream(31, AUX, 0)
    for d in (1, 2, 3):
        pts = rng.normal(size=(500, d)) * rng.uniform(0.01, 100.0, size=d)
        cols = np.ascontiguousarray(pts.T)
        x, traps = rng.normal(size=d), rng.normal(size=(7, d))
        # contiguous rows (d, N) against one point: an array (the diameter's
        # sweeps), Python floats (any_contact), the origin (the smoothing norm)
        for point in (x, x.tolist(), np.zeros(d)):
            np.testing.assert_array_equal(squared_distances(cols, point), axis_sum(pts - np.asarray(point)))
        # strided rows, a row-major (N, d) array's transpose (tau_sequence),
        # and a block of columns of contiguous rows (the diameter's blocks)
        np.testing.assert_array_equal(squared_distances(pts.T, x), axis_sum(pts - x))
        np.testing.assert_array_equal(squared_distances(cols[:, 100:228], x), axis_sum(pts[100:228] - x))
        # rows against rows (the chain's largest step, the exact stage's pairs)
        np.testing.assert_array_equal(squared_distances(cols[:, 1:], cols[:, :-1]), axis_sum(np.diff(pts, axis=0)))
        # rows against k points (d, k, 1), (k, N) (path_functional), and
        # rows (d, b, 1) against rows, (b, N) (the diameter's block pairs)
        np.testing.assert_array_equal(squared_distances(cols, traps.T[:, :, None]), axis_sum(pts - traps[:, None]))
        np.testing.assert_array_equal(squared_distances(traps.T[:, :, None], cols), axis_sum(traps[:, None] - pts))
        # (d, n+1, M) against the centers (d, n+1, 1) (Trace.radius)
        values = rng.normal(size=(9, 64, d))
        com = values.mean(axis=1)
        np.testing.assert_array_equal(squared_distances(np.moveaxis(values, -1, 0), com.T[:, :, None]),
                                      axis_sum(values - com[:, None]))
        pts = rng.standard_normal((300, d))
        diff = pts[:, None, :] - pts[None, :, :]
        assert range_of(pts) == float(np.sqrt((diff ** 2).sum(axis=2)).max())
        trace = simulate(ModelParams(d=d, K=8, M=32, dt=0.1, T=0.7, eps_tail=5e-3), seed=d)
        dev = trace.values - trace.com[:, None, :]
        np.testing.assert_array_equal(trace.radius, np.sqrt((dev ** 2).sum(axis=2)).max(axis=1))


def test_range_of_1d_is_max_minus_min():
    v = np.array([0.3, -1.0, 2.5, 0.0])
    assert abs(range_of(v) - 3.5) < 1e-15


def test_range_triangle_inequality():
    rng = substream(4, AUX, 0)
    for _ in range(50):
        f = rng.standard_normal((64, 2))
        g = rng.standard_normal((64, 2))
        assert range_of(f + g) <= range_of(f) + range_of(g) + 1e-12


def test_range_of_validation():
    with pytest.raises(ValueError):
        range_of(np.empty((0, 2)))
    for bad in (math.nan, math.inf):  # a NaN would keep the double sweep from settling
        with pytest.raises(ValueError):
            range_of(np.array([[0.0, 0.0], [1.0, bad], [2.0, 1.0]]))


def test_trace_com_and_radius_from_the_grid():
    # one center and one radius per time, from the zero string: the grid
    # mean, and the farthest grid column from it
    for d in (1, 3):
        p = ModelParams(d=d, K=8, M=32, dt=0.1, T=0.7, eps_tail=5e-3)
        trace = simulate(p, seed=4)
        com, R = trace.com, trace.radius
        assert com.shape == (trace.n_snapshots, d) and R.shape == (trace.n_snapshots,)
        assert not com[0].any() and R[0] == 0.0 and np.all(R[1:] > 0)
        np.testing.assert_allclose(com, trace.values.mean(axis=1), atol=1e-12)
        columns = [np.linalg.norm(trace.values[:, m] - com, axis=1) for m in range(p.M)]
        np.testing.assert_allclose(R, np.max(columns, axis=0), rtol=1e-14)


def test_independence_report_threshold():
    rep = IndependenceReport(np.array([0.01, -0.02]), threshold=0.05, n=100)
    assert rep.passed
    rep = IndependenceReport(np.array([0.01, -0.06]), threshold=0.05, n=100)
    assert not rep.passed


def test_independence_test_requires_replicas():
    with pytest.raises(ValueError):
        independence_test([(np.zeros(2), 1.0)] * 50)


def test_independence_test_on_independent_inputs():
    rng = substream(5, AUX, 0)
    reps = [(rng.standard_normal(2), abs(rng.standard_normal()) + 0.1) for _ in range(500)]
    assert independence_test(reps).passed


def test_independence_test_detects_dependence():
    rng = substream(6, AUX, 0)
    reps = []
    for _ in range(500):
        x = rng.standard_normal(2)
        reps.append((x, x[0] * 2.0 + 0.01 * rng.standard_normal()))
    assert not independence_test(reps).passed


def test_com_and_radius_from_simulation_are_uncorrelated():
    p = ModelParams(d=2, K=8, M=32, dt=1.0, T=1.0, eps_tail=5e-3)
    reps = []
    for r in range(300):
        tr = simulate(p, 17, replica=r)
        reps.append((tr.com[-1], tr.radius[-1]))
    assert independence_test(reps).passed
