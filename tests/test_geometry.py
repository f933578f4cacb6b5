import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from string_sausage import geometry
from string_sausage.geometry import (
    MAX_RASTER_CELLS,
    PointCloud,
    ResolutionWarning,
    SausageEstimate,
    bounding_box,
    box_counting_dimension,
    occupied_cube_count,
    sausage_volume_hit_or_miss,
    sausage_volume_voxel,
    wiener_sausage_volume,
)
from string_sausage.rng import ENV, MC, substream
from string_sausage.simulate import brownian_path, simulate
from string_sausage.spectral import FieldSamples, ModelParams
from string_sausage.traps import Box, PoissonEnvironment, any_contact, path_functional


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


def test_bounding_box_is_the_axis_min_and_max():
    for d in (1, 2, 3):
        rng = substream(13, MC, d)
        for pad in (0.0, 0.3, 0.8):
            pts = rng.normal(size=(500, d)) * rng.uniform(0.1, 10.0, size=d)
            box = bounding_box(PointCloud(pts), pad)
            np.testing.assert_array_equal(box.lower, pts.min(axis=0) - pad)
            np.testing.assert_array_equal(box.upper, pts.max(axis=0) + pad)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 1344, 20544])  # the points of a T=1 and a T=16 path
def test_cloud_bounds_are_the_column_min_and_max(d, n):
    pts = substream(14, MC, d).normal(size=(n, d))
    rows = pts.T.copy()
    rows.flags.writeable = False
    held = PointCloud(rows.T)  # read-only coordinate rows are held, not copied
    assert np.shares_memory(held.points, rows)
    for cloud in (PointCloud(pts), held):
        lo, hi = cloud.bounds
        np.testing.assert_array_equal(lo, [pts[:, j].min() for j in range(d)])
        np.testing.assert_array_equal(hi, [pts[:, j].max() for j in range(d)])
        assert cloud.bounds is cloud.bounds  # computed once


def test_cloud_bounds_cannot_go_stale():
    pts = np.array([[0.0, 1.0], [2.0, -1.0]])
    cloud = PointCloud(pts)
    lo, hi = cloud.bounds
    # the cloud copied the writeable input, and every array it holds is read-only
    pts[0, 0] = -5.0
    np.testing.assert_array_equal(cloud.points, [[0.0, 1.0], [2.0, -1.0]])
    for held in (cloud.points, lo, hi):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 9.0
    np.testing.assert_array_equal(lo, [0.0, -1.0])
    np.testing.assert_array_equal(hi, [2.0, 1.0])
    # the copy is coordinate-major: each coordinate's row is contiguous
    assert cloud.points.strides[0] == cloud.points.itemsize
    assert cloud.points.T.flags.c_contiguous
    # a trace's values are read-only coordinate rows, so its cloud holds them
    # without a copy
    trace = simulate(ModelParams(d=2, K=8, M=32, dt=0.1, T=0.5, eps_tail=5e-3), 3)
    points = trace.cloud().points
    assert np.shares_memory(points, trace.values)
    assert points.strides[0] == points.itemsize
    # a read-only input of any other layout is copied into that one
    held = np.ascontiguousarray(points)
    held.flags.writeable = False
    copied = PointCloud(held).points
    assert not np.shares_memory(copied, held) and not copied.flags.writeable
    assert copied.strides[0] == copied.itemsize
    np.testing.assert_array_equal(copied, points)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_estimates_do_not_depend_on_the_cloud_layout(d):
    # one cloud held two ways: as its trace's coordinate-major view, and
    # copied from a point-major (C-order) array
    p = ModelParams(d=d, K=16, M=64, dt=0.05, T=0.5, nu=2.0, eps_tail=2e-3)
    trace = simulate(p, 23, replica=d)
    view = trace.cloud()
    point_major = np.array(view.points, order="C")
    copy = PointCloud(point_major)
    assert np.shares_memory(view.points, trace.values) and not np.shares_memory(copy.points, trace.values)
    for j in (0, 1):
        np.testing.assert_array_equal(view.bounds[j], copy.bounds[j])
    # traps on the cloud, out of its reach, and drawn around it
    box = bounding_box(view, 2.0)
    by_points = [FieldSamples(np.ascontiguousarray(v)) for v in trace.values]
    contacts = []
    for traps in (view.points[::500], view.bounds[1][None] + 1.0, box.sample_uniform(40, substream(23, ENV, 0))):
        env = PoissonEnvironment(traps, box, p.nu)
        contacts.append(any_contact(view, env, p.a))
        assert any_contact(copy, env, p.a) == contacts[-1]
        by_rows = path_functional(trace.snapshots(), env, p.a, 1.0, p.dt, p.J / p.M)
        assert by_rows == path_functional(by_points, env, p.a, 1.0, p.dt, p.J / p.M)
        assert (by_rows > 0) == contacts[-1]
    assert contacts[:2] == [True, False]
    # the hit-or-miss kernels on unit-stride rows and on the transpose of a
    # C-order array, points and samples alike, and its estimate on the same stream
    box = bounding_box(view, p.a)
    drawn = box.sample_uniform(2000, substream(23, MC, 0))
    want = brute_hits(point_major, drawn, p.a)
    for points, samples in itertools.product((view.points.T, point_major.T), (drawn.T.copy(), drawn.T)):
        assert geometry._hits(points, samples, box, p.a) == want
        assert geometry._shell_hits(points, samples, box, p.a) == want
    volumes = [sausage_volume_hit_or_miss(c, p.a, 2000, substream(23, MC, 1)) for c in (view, copy)]
    assert volumes[0] == volumes[1]
    if d <= 3:
        assert sausage_volume_voxel(view, p.a, p.a / 4) == sausage_volume_voxel(copy, p.a, p.a / 4)


@pytest.fixture
def exact_log(monkeypatch):
    """The exact stage's inputs, per call: the points it holds, then the
    samples it decides, both coordinate rows (d, N)."""
    log = []
    shell_hits = geometry._shell_hits

    def logged(points, samples, box, radius):
        log.extend([points.shape[1], samples.shape[1]])
        return shell_hits(points, samples, box, radius)

    monkeypatch.setattr(geometry, "_shell_hits", logged)
    return log


def brute_hits(points, samples, radius) -> int:
    """Samples within the query bound of some point, by a full distance scan."""
    bound2 = (radius * (1 + 1e-12)) ** 2
    hits = 0
    for chunk in np.array_split(samples, 1 + len(samples) * len(points) // 2_000_000):
        dist2 = sum((chunk[:, j, None] - points[None, :, j]) ** 2 for j in range(points.shape[1]))
        hits += int((dist2.min(axis=1) <= bound2).sum())
    return hits


def check_hits(points, samples, radius, box=None) -> int:
    """The pre-pass and exact stage give the brute-force hit count of the given
    samples (N, d), in `box` or else the cloud's box padded by the radius."""
    points, samples = np.asarray(points, float), np.asarray(samples, float)
    box = bounding_box(PointCloud(points), radius) if box is None else box
    hits = geometry._hits(points.T, samples.T, box, radius)
    assert hits == brute_hits(points, samples, radius)
    return hits


def _side(d, k=None):
    """The raster's cell side at radius 1 and k = RASTER_K (or the given k)."""
    k = geometry.RASTER_K[d] if k is None else k
    return 1 / (k * math.sqrt(d)) * (1 - 1e-9)


def test_hit_or_miss_matches_brute_force_nearest_distance():
    # the same uniform samples, classified by a scan over every cloud point
    for T, replica in ((1.0, 0), (1.0, 1), (4.0, 0), (4.0, 1)):
        p = ModelParams(d=2, K=16, M=64, dt=0.05, T=T, eps_tail=2e-3)
        cloud = simulate(p, 23, replica=replica).cloud()
        est = sausage_volume_hit_or_miss(cloud, p.a, 2000, substream(23, MC, replica))
        box = bounding_box(cloud, p.a)
        hits = brute_hits(cloud.points, box.sample_uniform(2000, substream(23, MC, replica)), p.a)
        assert 0 < hits < 2000
        assert est.volume == box.volume * (hits / 2000)


# Hit-or-miss volumes of criterion-05 strings (seed 43, replica d, 2000
# samples from substream(43, MC, d)), with their hit counts: the count is
# exact, so any rewrite of the kernels must give these floats.
PINNED_VOLUMES = {
    (1, 1.0): 2.734525075902062,  # 2000 hits
    (1, 16.0): 7.678235603658216,  # 2000 hits
    (2, 1.0): 5.939201289912548,  # 1254 hits
    (2, 16.0): 30.804625453171404,  # 1061 hits
    (3, 1.0): 11.189518623115084,  # 653 hits
    (3, 16.0): 93.66434789071906,  # 466 hits
}


@pytest.mark.parametrize("d, T", sorted(PINNED_VOLUMES))
def test_hit_or_miss_volumes_are_pinned(d, T):
    p = ModelParams(d=d, K=16, M=64, dt=0.05, T=T, nu=1.0, a=0.3, eps_tail=2e-3)
    cloud = simulate(p, 43, replica=d).cloud()
    assert sausage_volume_hit_or_miss(cloud, p.a, 2000, substream(43, MC, d)).volume == PINNED_VOLUMES[d, T]


# The exact stage's inputs on criterion-05 strings (seed 29, replica d, 2000
# samples from substream(29, MC, d)): the cloud points it holds (of 1344,
# 5184 and 20544 at T = 1, 4 and 16) and the samples it decides.  A kernel
# that widens the near set or moves samples between the stages changes them.
PREPASS_SPLIT = {
    (1, 1.0): [25, 100],
    (1, 4.0): [32, 57],
    (1, 16.0): [48, 45],
    (2, 1.0): [168, 264],
    (2, 4.0): [156, 215],
    (2, 16.0): [211, 106],
    (3, 1.0): [1344, 1035],
    (3, 4.0): [5047, 816],
    (3, 16.0): [11115, 527],
}


@pytest.mark.parametrize("T", [1.0, 4.0, 16.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_prepass_matches_brute_force_on_strings(d, T, exact_log):
    p = ModelParams(d=d, K=16, M=64, dt=0.05, T=T, eps_tail=2e-3)
    cloud = simulate(p, 29, replica=d).cloud()
    samples = bounding_box(cloud, p.a).sample_uniform(2000, substream(29, MC, d))
    assert check_hits(cloud.points, samples, p.a) > 0  # all 2000 in d=1
    assert exact_log == PREPASS_SPLIT[d, T]


@pytest.mark.parametrize("a", [1e-320, 5e-324, 1e-307])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hit_or_miss_at_a_subnormal_radius(d, a, exact_log):
    # the cell side is subnormal (0 at 5e-324) or the cell counts overflow:
    # no raster is built, and the exact stage decides every sample; the
    # samples on cloud points hit, the uniform ones miss
    p = ModelParams(d=d, K=16, M=64, dt=0.05, T=0.25, eps_tail=2e-3)
    cloud = simulate(p, 31, replica=d).cloud()
    drawn = bounding_box(cloud, a).sample_uniform(1000, substream(31, MC, d))
    assert check_hits(cloud.points, np.vstack([cloud.points[:100], drawn]), a) >= 100
    assert exact_log == [len(cloud.points), 1100]
    assert sausage_volume_hit_or_miss(cloud, a, 1000, substream(31, MC, d)).volume == 0.0


@pytest.mark.parametrize("d", [4, 9])
def test_no_raster_above_d3(d, monkeypatch, exact_log):
    # the raster was measured slower than the exact stage alone in d = 4, and
    # its stencils grow past memory by d = 9: every sample goes to the exact stage
    def no_stencils(*args):
        raise AssertionError("stencils built")

    monkeypatch.setattr(geometry, "_stencils", no_stencils)
    p = ModelParams(d=d, K=16, M=64, dt=0.05, T=0.25, eps_tail=2e-3)
    cloud = simulate(p, 31, replica=0).cloud()
    samples = bounding_box(cloud, p.a).sample_uniform(1000, substream(31, MC, d))
    samples[:100] = cloud.points[:100] + 0.5 * p.a / math.sqrt(d)  # sure hits
    assert check_hits(cloud.points, samples, p.a) >= 100
    assert exact_log == [len(cloud.points), 1000]


def test_sample_uniform_is_bit_equal_to_uniform():
    for d in (1, 2, 3):
        rng = substream(35, MC, d)
        for _ in range(20):
            lo = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
            box = Box(lo, lo + rng.uniform(1e-6, 1e3, size=d))
            seed = int(rng.integers(1 << 30))
            drawn = box.sample_uniform(500, substream(seed, MC, 0))
            np.testing.assert_array_equal(
                drawn, substream(seed, MC, 0).uniform(box.lower, box.upper, size=(500, d))
            )
            assert drawn.T.flags.c_contiguous  # the coordinate rows hit-or-miss reads


def offsets(rows, d):
    """The cell offsets a stencil's rows hold: each prefix on the first d - 1
    axes with every last-axis offset up to its half-width."""
    return {(*prefix[: d - 1], x) for prefix, h in rows for x in range(-h, h + 1)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stencils_hold_exactly_the_sure_offsets(d):
    # every hit offset's farthest cell pair is closer than r; every offset whose
    # nearest cell pair lies within the query bound is within reach, whose span
    # on an axis is ceil(bound / side) cells
    bound = 1 + 1e-12
    for k in range(1, geometry.RASTER_K[d] + 2):
        side = _side(d, k)
        rows = geometry._stencils(d, k)
        for stencil in rows:  # one row per prefix, padded with zeros to two axes, widest last
            prefixes = [prefix for prefix, _ in stencil]
            assert len(set(prefixes)) == len(prefixes)
            assert [h for _, h in stencil] == sorted(h for _, h in stencil)
            assert all(len(prefix) == 2 and not any(prefix[d - 1 :]) for prefix in prefixes)
        hit, reach = (offsets(stencil, d) for stencil in rows)
        assert hit <= reach and (0,) * d in hit
        far = np.array([[abs(x) + 1 for x in o] for o in hit], float) * side
        assert np.sqrt((far ** 2).sum(axis=1)).max() < 1
        w = math.ceil(bound / side)
        assert max(max(o) for o in reach) == w
        for o in itertools.product(range(-w - 2, w + 3), repeat=d):
            near = np.array([max(abs(x) - 1, 0) for x in o]) * side
            assert (o in reach) == (math.sqrt((near ** 2).sum()) <= bound), o


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dilate_is_the_stencil_dilation(d):
    # flat shifts against a dilation by each offset on the index grid: equal
    # for hits on every cell holding data (pad empty cells above it on each
    # axis), and a superset for the reach, whose shifts may wrap
    rng = substream(36, MC, d)
    for k in range(1, geometry.RASTER_K[d] + 1):
        rows = geometry._stencils(d, k)
        hit, reach = (offsets(stencil, d) for stencil in rows)
        pad = rows[0][-1][1]
        shape = tuple(int(x) for x in rng.integers(8, 14, size=d) + pad)
        grid = np.zeros(shape, bool)
        inner = tuple(slice(0, n - pad) for n in shape)
        grid[inner] = rng.random(tuple(n - pad for n in shape)) < 0.05
        strides = [math.prod(shape[j + 1 :]) for j in range(d)]
        got_hit, got_reach = (g.reshape(shape) for g in geometry._dilate(grid.ravel(), strides, *rows))
        for stencil, got in ((hit, got_hit), (reach, got_reach)):
            want = np.zeros(shape, bool)
            for idx in zip(*np.nonzero(grid)):
                for o in stencil:
                    cell = tuple(i + x for i, x in zip(idx, o))
                    if all(0 <= c < n for c, n in zip(cell, shape)):
                        want[cell] = True
            assert np.all(got[want])
            if stencil is hit:
                np.testing.assert_array_equal(got[inner], want[inner])


def dilate_by_shifts(raster, strides, *stencils):
    """The flat bool raster dilated by each stencil's rows with numpy flat
    shifts, one OR of a shifted slice per shift: the reference for the bitset
    kernel.  The raster grows along its last axis (stride 1) once per
    half-width; each row (a, c), h ORs that growth by h shifted by
    a strides[0] + c strides[1]."""
    n = len(raster)
    grown = [raster]
    for b in range(1, max(h for rows in stencils for _, h in rows) + 1):
        row = grown[-1].copy()
        row[b:] |= raster[:-b]
        row[:-b] |= raster[b:]
        grown.append(row)
    s0, s1 = (*strides[:-1], 0, 0)[:2]
    out = []
    for rows in stencils:
        dilated = np.zeros_like(raster)
        for (a, c), h in rows:
            shift = a * s0 + c * s1
            lo, hi = max(shift, 0), min(n, n + shift)
            if lo < hi:
                dilated[lo:hi] |= grown[h][lo - shift : hi - shift]
        out.append(dilated)
    return out


def assert_dilate_is_the_flat_shift_dilation(grid, k):
    d, shape = grid.ndim, grid.shape
    strides = [math.prod(shape[j + 1 :]) for j in range(d)]
    hit, reach = geometry._stencils(d, k)
    for stencils in ((hit, reach), (reach,), (hit,)):
        got = geometry._dilate(grid.ravel(), strides, *stencils)
        want = dilate_by_shifts(grid.ravel(), strides, *stencils)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == bool and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dilate_is_the_flat_shift_dilation(d):
    # bit for bit, wraps included: random rasters at every k up to one past
    # RASTER_K, and rasters whose occupied cells lie at the ends of rows,
    # where the shifts along every axis wrap into the neighbouring rows
    rng = substream(38, MC, d)
    for k in range(1, geometry.RASTER_K[d] + 2):
        shape = tuple(int(x) for x in rng.integers(3, 40 if d < 3 else 14, size=d))
        for density in (0.0, 0.02, 0.3, 1.0):
            assert_dilate_is_the_flat_shift_dilation(rng.random(shape) < density, k)
        edges = np.zeros(shape, bool)
        for axis in range(d):
            for end in (0, -1):
                index = [slice(None)] * d
                index[axis] = end
                edges[tuple(index)] = rng.random(edges[tuple(index)].shape) < 0.3
        assert_dilate_is_the_flat_shift_dilation(edges, k)
        corners = np.zeros(shape, bool)
        for corner in itertools.product((0, -1), repeat=d):
            corners[corner] = True
        assert_dilate_is_the_flat_shift_dilation(corners, k)
        # the last cell alone: its growth past the end, shifted back down,
        # would land in cells nothing else reaches
        last = np.zeros(shape, bool)
        last.flat[-1] = True
        assert_dilate_is_the_flat_shift_dilation(last, k)


def test_dilate_is_the_flat_shift_dilation_on_a_large_raster():
    # more than 2^17 cells: the integer spans thousands of machine words
    grid = substream(39, MC, 0).random((331, 409)) < 0.01
    assert grid.size >= 1 << 17
    assert_dilate_is_the_flat_shift_dilation(grid, geometry.RASTER_K[2])


def test_prepass_hit_shift_does_not_wrap_into_the_next_row():
    # a box that leaves no room above the data: a point at the top of a row
    # of the last axis and samples at the bottom of the next rows (and the
    # mirror case) are about 3 apart, misses all; a flat shift past the row
    # end would mark them sure hits
    a = 0.3
    box = Box([0.0, 0.0], [3.0, 3.0])
    side = a * _side(2)
    rows = 1.5 + side * np.arange(-6, 7)
    for point, edge in (([1.5, 3.0], 0.0), ([1.5, 0.0], 3.0)):
        cols = abs(edge - side * np.arange(8) / 2)  # from the opposite edge inwards
        samples = np.array(list(itertools.product(rows, cols)))
        assert check_hits([point], samples, a, box) == 0


def _offsets(d):
    """Unit vectors towards the 3^d - 1 neighbours of a cell."""
    u = np.array([v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)], float)
    return u / np.sqrt((u ** 2).sum(axis=1))[:, None]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prepass_cell_edges(d, exact_log):
    # points on and 0.01 a either side of cell corners, each with samples at
    # 0.99 a, a and a (1 + 2e-12) towards every neighbouring cell; the origin
    # anchors the raster at lo = -a
    a = 0.3
    side = a * _side(d)
    signs = [np.ones(d), -np.ones(d), (-1.0) ** np.arange(d), np.zeros(d)]
    points, samples = [np.zeros(d)], []
    for i, sign in enumerate(signs * 2):
        corner = np.full(d, -a + (16 * (i + 1) + i % 3) * side)
        q = corner + 0.01 * a * sign
        points.append(q)
        samples += [q, corner]
        samples += [q + r * u for r in (0.99 * a, a, a * (1 + 2e-12)) for u in _offsets(d)]
    points.append(np.full(d, -a + 150 * side))  # room above the last point
    box = bounding_box(PointCloud(np.array(points)), a)
    fill = box.sample_uniform(1200 - len(samples), substream(30, MC, d))
    hits = check_hits(np.array(points), np.vstack(samples + [fill]), a)
    assert hits >= 8 * (2 + 2 * len(_offsets(d)))
    assert exact_log[1] > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prepass_fine_cell_diagonal_is_below_the_bound(d):
    # the hit stencil holds the offset k - 1 on every axis, whose farthest
    # pair is k sqrt(d) sides apart; b = a (1 + 1e-12) / (k sqrt(d)) is the
    # side that puts that pair at the query bound.  For a side w = b + g, q
    # sits g/4 above the corner 2w and s g/4 below the corner (2 + k) w on
    # every axis, so a raster of side w' in (w - g/(8 + 4k), w + g/8] from 0
    # puts them k - 1 cells apart on every axis although they are
    # sqrt(d) (k b + (k - 1/2) g) apart, a miss; g runs over 1e-13 b .. 1e-4 b
    # in steps of 1.1, which leave no side between the windows.
    a = 0.3
    k = geometry.RASTER_K[d]
    b = a * (1 + 1e-12) / (k * math.sqrt(d))
    box = Box(np.zeros(d), np.full(d, 10 * a))
    for g in b * 1e-13 * 1.1 ** np.arange(218):
        w = b + g
        q = np.full(d, 2 * w + g / 4)
        s = np.full(d, (2 + k) * w - g / 4)
        assert check_hits([q], np.tile(s, (1000, 1)), a, box) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prepass_reach_covers_the_bound(d):
    # s lies l = a (1 + 9e-13) from q along axis 0 or along the diagonal,
    # inside the query bound a (1 + 1e-12): a hit.  q sits g below the
    # corner 2w of the raster's own side w from 0, so for g below about
    # 1e-9 a the pair is ceil(l / w) cells apart along axis 0, or k + 1 on
    # every axis, the edge of reach; g runs over 1e-13 a .. 1e-4 a.
    a = 0.3
    side = a * _side(d)
    ell = a * (1 + 9e-13)
    box = Box(np.zeros(d), np.full(d, 10 * a))
    for g in a * 1e-13 * 1.2 ** np.arange(115):
        for u in (np.eye(d)[0], np.ones(d) / math.sqrt(d)):
            q = np.full(d, 2 * side - g)
            s = q + ell * u
            assert check_hits([q], np.tile(s, (1000, 1)), a, box) == 1000


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prepass_single_point_cloud(d):
    # radius 0.5 about the origin: the axis samples at +-0.5 lie exactly on the sphere
    axis = np.vstack([np.eye(d) * 0.5, -np.eye(d) * 0.5])
    fill = substream(31, MC, d).uniform(-0.5, 0.5, size=(1000, d))
    hits = check_hits(np.zeros((1, d)), np.vstack([axis, fill]), 0.5)
    assert hits >= 2 * d


def test_exact_stage_dense_and_wide():
    # the exact stage alone against a full scan: a dense d=3 cluster whose
    # key ranges exceed a batch of pairs, with samples over several blocks;
    # then two clusters 1e7 radii apart, past 2^20 cells of the bound on an axis
    rng = substream(38, MC, 0)
    pts = rng.normal(size=(8000, 3)) * 0.1
    box = bounding_box(PointCloud(pts), 0.2)
    samples = box.sample_uniform(4000, rng)
    assert geometry._shell_hits(pts.T, samples.T, box, 0.2) == brute_hits(pts, samples, 0.2)
    a = 1e-3
    pts = np.vstack([rng.normal(size=(200, 2)) * 3 * a, rng.normal(size=(200, 2)) * 3 * a + 1e7 * a])
    box = bounding_box(PointCloud(pts), a)
    samples = np.vstack([pts[::2] + rng.uniform(-a, a, (200, 2)), box.sample_uniform(200, rng)])
    assert geometry._shell_hits(pts.T, samples.T, box, a) == brute_hits(pts, samples, a) >= 100


def test_prepass_every_sample_sure(exact_log):
    # each sample is a cloud point, so it shares that point's cell
    pts = substream(32, MC, 0).uniform(0.0, 5.0, size=(1000, 2))
    assert check_hits(pts, pts, 0.3) == 1000
    assert exact_log == [0, 0]


def test_prepass_no_sample_sure(exact_log):
    # points 3a apart; every sample lies within 5e-10 a inside the radius of
    # one, farther than any pair of cells in the hit stencil, and in reach
    a = 0.3
    pts = 3 * a * np.array(list(itertools.product(range(10), range(10))), float)
    rng = substream(33, MC, 0)
    angle = rng.uniform(0, 2 * math.pi, 1000)
    r = a * (1 - rng.uniform(1e-11, 5e-10, 1000))
    samples = pts[rng.integers(0, len(pts), 1000)] + r[:, None] * np.column_stack(
        [np.cos(angle), np.sin(angle)]
    )
    assert check_hits(pts, samples, a) == 1000
    assert exact_log == [len(pts), 1000]


def _peak_bytes(fn):
    """fn(), and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepass_raster_guard(exact_log):
    # radius 0.01 in a box of side ~2.9 in d=3: ~1.3e8 cells at k = 1, past
    # the cap, so no raster is built and the exact stage holds the whole cloud
    a = 0.01
    rng = substream(34, MC, 0)
    pts = rng.uniform(0.0, 2.9, size=(2000, 3))
    box = bounding_box(PointCloud(pts), a)
    assert np.prod((box.upper - box.lower) / (a * _side(3, 1))) > 100 * MAX_RASTER_CELLS
    samples = np.vstack([pts[:500] + rng.uniform(-a, a, (500, 3)) / 2, box.sample_uniform(500, rng)])
    hits, peak = _peak_bytes(lambda: geometry._hits(pts.T, samples.T, box, a))
    assert peak < MAX_RASTER_CELLS  # bytes: far below one raster past the cap
    assert exact_log == [2000, 1000]
    assert hits == brute_hits(pts, samples, a) >= 500


def test_prepass_lowers_k_to_fit_the_cap(exact_log):
    # radius 0.01 along a curve in a box of side ~5 in d=2: ~8e6 cells at
    # k = RASTER_K, past the cap, and ~5e5 at k = 1, so the raster is built at
    # a lower k, in a few rasters of memory, and the exact stage sees the shell only
    a = 0.01
    t = np.linspace(0.0, 1.0, 4000)
    pts = np.column_stack([5.0 * t, 2.5 + 2.5 * np.sin(2 * math.pi * t)])
    box = bounding_box(PointCloud(pts), a)
    extent = box.upper - box.lower
    assert np.prod(extent / (a * _side(2, geometry.RASTER_K[2]))) > 4 * MAX_RASTER_CELLS
    assert np.prod(extent / (a * _side(2, 1)) + 2) < MAX_RASTER_CELLS
    rng = substream(37, MC, 0)
    samples = np.vstack([pts[::4] + rng.uniform(-a, a, (1000, 2)), box.sample_uniform(1000, rng)])
    hits, peak = _peak_bytes(lambda: geometry._hits(pts.T, samples.T, box, a))
    assert peak < 12 * MAX_RASTER_CELLS  # bytes: a few bool rasters at the cap
    built, queried = exact_log
    assert built < len(pts) and queried < len(samples)
    assert hits == brute_hits(pts, samples, a)


def test_hit_or_miss_single_disk():
    cloud = PointCloud(np.zeros((1, 2)))
    est = sausage_volume_hit_or_miss(cloud, 0.5, 100_000, substream(1, MC, 0))
    assert abs(est.volume - math.pi / 4.0) < 4 * est.stderr
    assert est.stderr > 0
    lo, hi = est.ci95()
    assert lo < math.pi / 4.0 < hi


def test_hit_or_miss_interval_is_wilson_on_the_box():
    # no hit: volume and stderr 0, but the upper end is the Wilson bound
    # z^2 / (n + z^2) of the hit fraction times the sampled box's volume
    far = PointCloud(np.array([[0.0, 0.0], [100.0, 100.0]]))
    est = sausage_volume_hit_or_miss(far, 0.01, 1000, substream(2, MC, 0))
    box = bounding_box(far, 0.01)
    assert (est.volume, est.stderr, est.box_volume) == (0.0, 0.0, box.volume)
    lo, hi = est.ci95()
    assert lo == 0.0 < hi
    assert hi == pytest.approx(box.volume * 1.96 ** 2 / (1000 + 1.96 ** 2))
    # every sample hits: the lower end stays below the box's volume
    lo, hi = SausageEstimate(4.0, 0.0, 1000, "hit_or_miss", 4.0).ci95()
    assert lo == pytest.approx(4.0 * 1000 / (1000 + 1.96 ** 2)) and hi == 4.0
    # the deterministic voxel count keeps its point interval
    assert SausageEstimate(2.0, 0.0, 500, "voxel").ci95() == (2.0, 2.0)


def test_hit_or_miss_disjoint_disks_and_union_semantics():
    two = PointCloud(np.array([[0.0, 0.0], [5.0, 0.0]]))
    est = sausage_volume_hit_or_miss(two, 0.5, 100_000, substream(2, MC, 0))
    assert abs(est.volume - math.pi / 2.0) < 4 * est.stderr
    dup = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0]]))
    est_dup = sausage_volume_hit_or_miss(dup, 0.5, 100_000, substream(3, MC, 0))
    assert abs(est_dup.volume - math.pi / 4.0) < 4 * est_dup.stderr


def test_hit_or_miss_validation():
    cloud = PointCloud(np.zeros((1, 2)))
    for radius in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            sausage_volume_hit_or_miss(cloud, radius, 2000, substream(0, MC, 0))
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
    # voxel sizes outside (0, r/4], NaN ones included, and radii not finite and > 0
    for radius, voxel in [(0.5, 0.2), (0.5, 0.0), (0.5, -0.05), (0.5, math.nan), (0.5, math.inf),
                          (0.0, 0.01), (-0.5, 0.01), (math.nan, 0.01), (math.inf, 0.01)]:
        with pytest.raises(ValueError):
            sausage_volume_voxel(PointCloud(np.zeros((1, 2))), radius, voxel)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_voxel_count_equals_a_kd_tree_count(d, monkeypatch):
    # scipy's kd-tree is the oracle here only; the estimator counts through
    # _hits, whose box must hold every centre, the row above the padded box too
    from scipy.spatial import cKDTree

    hits = geometry._hits

    def checked(points, samples, box, radius):
        assert ((samples.T >= box.lower) & (samples.T <= box.upper)).all()
        return hits(points, samples, box, radius)

    monkeypatch.setattr(geometry, "_hits", checked)
    above = 0
    for T in (1.0, 4.0) if d < 3 else (1.0,):
        p = ModelParams(d=d, K=16, M=64, dt=0.05, T=T, eps_tail=2e-3)
        cloud = simulate(p, 41, replica=d).cloud()
        for voxel in (p.a / 4, p.a / 7) if d < 3 else (p.a / 4, p.a / 5):
            box = bounding_box(cloud, p.a + voxel)
            counts = np.ceil((box.upper - box.lower) / voxel).astype(int)
            axes = [box.lower[j] + (np.arange(counts[j]) + 0.5) * voxel for j in range(d)]
            centres = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
            above += int(np.any(centres.max(axis=0) > box.upper))
            dist, _ = cKDTree(cloud.points).query(centres, distance_upper_bound=p.a * (1 + 1e-12))
            est = sausage_volume_voxel(cloud, p.a, voxel)
            assert est.n_samples == len(centres)
            assert est.volume == np.count_nonzero(np.isfinite(dist)) * voxel ** d
    assert above > 0


def test_voxel_memory_follows_the_chunk(monkeypatch):
    # 139,590 centres in d=3: built in one chunk, then in chunks of 1024,
    # which must count the same centres in a fraction of the memory
    p = ModelParams(d=3, K=16, M=64, dt=0.05, T=1.0, eps_tail=2e-3)
    cloud = simulate(p, 7).cloud()
    whole, whole_peak = _peak_bytes(lambda: sausage_volume_voxel(cloud, p.a, p.a / 5))
    assert whole.n_samples > 100 * 1024
    monkeypatch.setattr(geometry, "VOXEL_CHUNK", 1024)
    chunked, chunked_peak = _peak_bytes(lambda: sausage_volume_voxel(cloud, p.a, p.a / 5))
    assert chunked == whole
    # the centres of the whole grid alone would take 3.35 MB
    assert chunked_peak < whole.n_samples * 3 * 8 / 2 < whole_peak / 3


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
        wiener_sausage_volume(path, 0.1, 2000, substream(10, MC, 0), 0.25)


def test_wiener_sausage_frozen_path_is_ball():
    est = wiener_sausage_volume(PointCloud(np.zeros((1, 3))), 0.5, 100_000, substream(11, MC, 0), 1e-6)
    ball = 4.0 * math.pi * 0.125 / 3.0
    assert abs(est.volume - ball) < 4 * est.stderr


def test_wiener_sausage_monotone_in_T():
    path = brownian_path(3, 1.0, 0.004, seed=2)
    prefix = PointCloud(path.points[:120])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        v_short = wiener_sausage_volume(prefix, 0.5, 50_000, substream(12, MC, 0), 0.004).volume
        v_long = wiener_sausage_volume(path, 0.5, 50_000, substream(12, MC, 0), 0.004).volume
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
    with pytest.raises(ValueError, match=r"scales needs at least 4 values, got shape \(\)"):
        box_counting_dimension(seg, 0.1)  # one bare scale
    with pytest.raises(ValueError):
        box_counting_dimension(seg, [0.1, 0.2, 0.05, 0.01])  # not decreasing
    with pytest.raises(ValueError):
        box_counting_dimension(seg, [0.1, 0.08, 0.06, 0.04])  # span < 1.5 decades
