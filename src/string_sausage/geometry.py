"""Sausage volume estimators and the box-counting dimension diagnostic.

Every estimator measures the union of radius-r balls around the SAMPLED
cloud, which is a subset of the continuum sausage; the sampling moduli
sqrt(dx) and dt^(1/4) against the radius set the bias (no estimator checks
them).

Hit-or-miss decides most samples exactly on one cell raster of the padded
box, and the rest by an exact query over the cloud points near them.  Its
kernels take the points and the samples as coordinate rows (d, N), the
layout a `PointCloud` holds (`points.T`), and make no row-major copy.  The
raster's cells have side s = r/(k sqrt(d)) (1 - 1e-9), k = RASTER_K[d]; in
d >= 4 no raster is built (measured slower than the exact stage alone).
Two cells delta apart hold no point pair farther apart than
s sqrt(sum_j (|delta_j| + 1)^2) and none nearer than
s sqrt(sum_j max(|delta_j| - 1, 0)^2).  A sample is therefore a sure hit
when a cloud point lies in its hit stencil, the offsets with
sum_j (|delta_j| + 1)^2 <= k^2 d, whose pairs are all closer than r.  It is
a sure miss when no cloud point lies in its reach stencil, the offsets with
sum_j max(|delta_j| - 1, 0)^2 <= k^2 d: a pair within the query bound
r (1 + 1e-12) has that integer sum below k^2 d (1 + 3e-9), so at most
k^2 d.  The reach spans ceil(r (1 + 1e-12) / s) cells on an axis.  Both
tests are dilations of the occupied cells by one rule in every d: a
stencil is held as its rows, an offset on the first d - 1 axes with a
half-width along the last; the raster is grown along its last axis once
per half-width, and each row ORs one flat shift of that growth.  The
raster is packed into one Python integer, bit i for flat cell i, where a
flat shift is a bit shift.  On rasters of a few thousand cells that is
faster than ORing numpy slices, whose ~75 calls cost more than their
arithmetic.  A shift past the end of an axis wraps into a neighbouring
row: in reach that only widens the set, and for hits the raster keeps as
many empty cells above the data on every axis as the hit stencil spans,
so no hit shift lands on data.  The 1e-9 margin exceeds the rounding of
a cell index on an axis of fewer than about 1.5e6 cells, which
MAX_RASTER_CELLS ensures.  Past that cap the raster is built at a lower
k; past it at k = 1, or where the cell side underflows, no raster is
built and the exact stage decides every sample.

The exact stage holds only the cloud points within reach of the samples
left undecided, so the hit count is the one a scan over the whole cloud
gives.  It is a fixed-radius cell query (Bentley, Stanat & Williams 1977):
the points go on a grid of side at least the bound times (1 + 1e-9), with
at most 2^20 cells on an axis, so a pair within the bound lies at most one
cell apart on every axis despite rounding.  The point rows are sorted by
flat cell key; each sample takes one key range per neighbouring row, three
cells wide, and its candidates' squared differences are summed coordinate
by coordinate (`statistics.squared_distances`), as a full distance scan
sums them, and compared with the squared bound.  The candidate pairs go in
batches of `statistics.BATCH_VALUES` values per array.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .statistics import BATCH_VALUES, squared_distances, wilson95
from .traps import Box

MAX_VOXELS = 50_000_000  # memory guard of the voxel estimator
VOXEL_CHUNK = 2_000_000  # voxel centres built and counted at a time: the pre-pass allocates per sample
MAX_RASTER_CELLS = 1 << 20  # memory guard of the hit-or-miss pre-pass raster
RASTER_K = {1: 3, 2: 4, 3: 1}  # hit-or-miss raster cells per r/sqrt(d) (measured); none above d=3


@dataclass(frozen=True)
class PointCloud:
    """Space-time samples of a string or path, flattened into R^d points, read-only
    with contiguous coordinate rows `points.T` (d, N), as a trace's cloud is held;
    any other input is copied into that layout: `bounds` cannot go stale."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, float))
        if pts.flags.writeable or pts.strides[0] != pts.itemsize:
            pts = pts.T.copy().T
            pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.shape[0] == 0:
            raise ValueError("point cloud must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud must be finite")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis min and max (d,), read-only, reduced along the coordinate rows."""
        rows = self.points.T
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi


@dataclass(frozen=True)
class SausageEstimate:
    """`box_volume` is the volume of the box hit-or-miss sampled uniformly
    (None for the voxel count)."""

    volume: float
    stderr: float
    n_samples: int
    method: str
    box_volume: float | None = None

    def ci95(self) -> tuple[float, float]:
        """95% interval: for hit-or-miss the Wilson score interval of its hit
        fraction, scaled by the box volume, open even where no sample hits
        and `stderr` is 0; volume +- 1.96 stderr otherwise."""
        if self.method != "hit_or_miss":
            return (self.volume - 1.96 * self.stderr, self.volume + 1.96 * self.stderr)
        lo, hi = wilson95(self.volume / self.box_volume, self.n_samples)
        return (lo * self.box_volume, hi * self.box_volume)


def bounding_box(cloud: PointCloud, pad: float = 0.0) -> Box:
    if pad < 0:
        raise ValueError("pad must be >= 0")
    lo, hi = cloud.bounds[0] - pad, cloud.bounds[1] + pad
    if not (lo < hi).all():  # a single point with pad 0: guarantee positive extent
        tiny = np.where(hi - lo <= 0, 1e-12, 0.0)
        lo, hi = lo - tiny, hi + tiny
    return Box(lo, hi)


def _cell_index(rows: np.ndarray, lo: np.ndarray, side: float, shape: tuple) -> np.ndarray:
    """Flat C-order index, in a raster of `shape` cells of side `side` from
    `lo`, of the cell holding each point of the rows (every point >= lo)."""
    flat = ((rows[0] - lo[0]) / side).astype(np.intp)
    for j in range(1, len(shape)):
        flat *= shape[j]
        flat += ((rows[j] - lo[j]) / side).astype(np.intp)
    return flat


@functools.cache
def _stencils(d: int, k: int) -> tuple[tuple, tuple]:
    """The hit and the reach stencil on cells of side r/(k sqrt(d)) (1 - 1e-9)
    (module docstring), the offsets delta with sum_j (|delta_j| + 1)^2 <= k^2 d
    and with sum_j max(|delta_j| - 1, 0)^2 <= k^2 d, as rows: the pairs (offset
    on the first d - 1 axes, padded with zeros to two; half-width along the
    last), widest last.  A stencil holds, with each offset, every offset nearer
    zero on an axis."""
    m = int(k * math.sqrt(d)) + 1
    stencils = []
    for gap in (1, -1):
        half = {}
        for o in itertools.product(range(-m, m + 1), repeat=d):
            if sum(max(abs(x) + gap, 0) ** 2 for x in o) <= k * k * d:
                prefix = (*o[:-1], 0, 0)[:2]
                half[prefix] = max(half.get(prefix, 0), abs(o[-1]))
        stencils.append(tuple(sorted(half.items(), key=lambda row: row[1])))
    return tuple(stencils)


def _dilate(raster: np.ndarray, strides: list, *stencils: tuple) -> list[np.ndarray]:
    """The flat bool raster, with C-order axis strides `strides`, dilated by
    each stencil's rows (widest last): packed into one integer, bit i for
    cell i, grown along the last axis once per half-width, and ORed, per row
    (a, c), h, with the growth by h shifted by a strides[0] + c strides[1].
    A shift moves every cell by the same flat offset, so one past the end of
    an axis wraps into a neighbouring row; bits shifted to n or above are
    cleared before any right shift and in every result."""
    n = len(raster)
    mask = (1 << n) - 1
    bits = int.from_bytes(np.packbits(raster, bitorder="little").tobytes(), "little")
    grown = [bits]
    for b in range(1, max(rows[-1][1] for rows in stencils) + 1):  # the widest half-width
        grown.append(grown[-1] | bits << b | bits >> b)
    grown = [g & mask for g in grown]
    s0, s1 = (*strides[:-1], 0, 0)[:2]
    out = []
    for rows in stencils:
        dilated = 0
        for (a, c), h in rows:
            shift = a * s0 + c * s1
            dilated |= grown[h] << shift if shift >= 0 else grown[h] >> -shift
        dilated = (dilated & mask).to_bytes((n + 7) // 8, "little")
        out.append(np.unpackbits(np.frombuffer(dilated, np.uint8), count=n, bitorder="little").view(bool))
    return out


def _raster_prepass(
    points: np.ndarray, samples: np.ndarray, box: Box, radius: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """(sure hits, the samples the exact stage decides, the cloud points it needs), as rows."""
    extent = (box.upper - box.lower).tolist()
    d = len(extent)
    for k in range(RASTER_K.get(d, 0), 0, -1):
        side = radius / (k * math.sqrt(d)) * (1 - 1e-9)
        hit, reach = _stencils(d, k)
        # empty cells above the data on every axis, as many as the hit
        # stencil spans on one: no hit shift wraps into data
        pad = hit[-1][1]
        # a side that underflows to 0 or an infinite cell count is past the cap, never cast
        if side > 0 and max(extent) / side < MAX_RASTER_CELLS:
            shape = tuple(int(e / side) + 2 + pad for e in extent)
            if math.prod(shape) <= MAX_RASTER_CELLS:
                break
    else:
        return 0, samples, points
    point_cells = _cell_index(points, box.lower, side, shape)
    cells = _cell_index(samples, box.lower, side, shape)
    occupied = np.zeros(math.prod(shape), bool)
    occupied[point_cells] = True
    strides = [math.prod(shape[j + 1 :]) for j in range(d)]
    sure, reached = (g[cells] for g in _dilate(occupied, strides, hit, reach))
    shell = reached & ~sure  # the samples out of reach are sure misses
    marked = np.zeros_like(occupied)
    marked[cells[shell]] = True
    [near] = _dilate(marked, strides, reach)
    # np.compress takes columns about 10x faster than a boolean index here
    return (
        int(np.count_nonzero(sure)),
        np.compress(shell, samples, axis=1),
        np.compress(near[point_cells], points, axis=1),
    )


@functools.cache
def _neighbour_rows(d: int) -> np.ndarray:
    """The offsets in {-1, 0, 1}^(d-1), one row per neighbouring row of a
    cell along the first d - 1 axes."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)), np.intp).reshape(3 ** (d - 1), d - 1)


def _shell_hits(points: np.ndarray, samples: np.ndarray, box: Box, radius: float) -> int:
    """Number of samples within r (1 + 1e-12) of a point, by the exact cell
    query (module docstring); every point of both rows lies in `box`."""
    if points.shape[1] == 0 or samples.shape[1] == 0:
        return 0
    bound = radius * (1 + 1e-12)
    extent = (box.upper - box.lower).tolist()
    d = len(extent)
    side = max(bound * (1 + 1e-9), max(extent) / (1 << 20))
    shape = [int(e / side) + 4 for e in extent]
    while math.prod(shape) >= 1 << 62:  # flat keys must fit int64 (only past d = 3)
        side *= 2
        shape = [int(e / side) + 4 for e in extent]
    strides = np.array([math.prod(shape[j + 1 :]) for j in range(d)], np.intp)
    shift = int(strides.sum())  # every index up by one: no neighbour falls below 0 or wraps
    keys = _cell_index(points, box.lower, side, shape) + shift
    order = np.argsort(keys)
    keys = keys[order]
    sample_keys = _cell_index(samples, box.lower, side, shape) + shift
    # contiguous rows, which `take` gathers from in place
    points, samples = points.take(order, axis=1), np.ascontiguousarray(samples)
    rows = _neighbour_rows(d) @ strides[:-1] - 1  # the first of each row's three cells
    # a table of each cell's first point, unless binary searches cost less
    n_cells, n_find = math.prod(shape), 2 * samples.shape[1] * len(rows)
    if n_cells <= min(16 * n_find, MAX_RASTER_CELLS):
        first = np.zeros(n_cells + 1, np.intp)  # first[c]: the points in cells below c
        np.cumsum(np.bincount(keys, minlength=n_cells), out=first[1:])
        find = first.take
    else:
        find = keys.searchsorted
    hit = np.zeros(samples.shape[1], bool)
    block, batch = max(1, 2 * BATCH_VALUES // len(rows)), BATCH_VALUES // d
    for s0 in range(0, samples.shape[1], block):
        lo = sample_keys[s0 : s0 + block, None] + rows
        start = find(lo).ravel()
        count = find(lo + 3).ravel() - start
        ends = count.cumsum()
        offset = start + count - ends  # point index less pair index, per key range
        # batches of key ranges, at most `batch` pairs past the first range
        cuts = [0, *np.searchsorted(ends, np.arange(batch, ends[-1], batch), "right"), len(count)]
        for a, b in zip(cuts, cuts[1:]):
            if a == b:
                continue
            c = count[a:b]
            point = np.arange(ends[a] - c[0], ends[b - 1]) + offset[a:b].repeat(c)
            sample = (np.arange(a + s0 * len(rows), b + s0 * len(rows)) // len(rows)).repeat(c)
            pair = samples.take(sample, axis=1), points.take(point, axis=1)
            hit[sample[squared_distances(*pair) <= bound ** 2]] = True
    return int(np.count_nonzero(hit))


def _hits(points: np.ndarray, samples: np.ndarray, box: Box, radius: float) -> int:
    """Number of samples within r (1 + 1e-12) of a point, both rows: the raster
    pre-pass (module docstring) settles most of them, the exact stage the rest."""
    n_sure, rest, near = _raster_prepass(points, samples, box, radius)
    return n_sure + _shell_hits(near, rest, box, radius)


def sausage_volume_hit_or_miss(
    cloud: PointCloud, radius: float, n_mc: int, rng: np.random.Generator
) -> SausageEstimate:
    """Hit-or-miss Monte Carlo volume of the union of balls around the cloud.

    Uniform samples in the padded bounding box are classified by nearest
    cloud distance (`_hits`); the estimate is unbiased for the
    sampled-cloud sausage with the exact binomial standard error.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    box = bounding_box(cloud, radius)
    try:
        p_hat = _hits(cloud.points.T, box.sample_uniform(n_mc, rng).T, box, radius) / n_mc
    except MemoryError:
        raise ValueError(f"{n_mc} hit-or-miss samples do not fit in memory") from None
    volume = box.volume
    stderr = volume * math.sqrt(p_hat * (1.0 - p_hat) / n_mc)
    return SausageEstimate(volume * p_hat, stderr, n_mc, "hit_or_miss", volume)


def sausage_volume_voxel(cloud: PointCloud, radius: float, voxel_size: float) -> SausageEstimate:
    """Deterministic voxel-center counting estimate of the same union of balls,
    by `_hits` on a box that holds every centre, as its pre-pass needs."""
    if cloud.d > 3:
        raise ValueError("voxel estimator limited to d <= 3 (memory guard)")
    if not 0 < voxel_size <= radius / 4 < math.inf:  # also rejects NaN and radius <= 0
        raise ValueError("need a finite radius > 0 and 0 < voxel_size <= radius/4")
    box = bounding_box(cloud, radius + voxel_size)
    # the float counts first: an infinite count is too large, and is never cast
    counts = np.ceil([e / voxel_size for e in (box.upper - box.lower).tolist()])
    if not math.prod(counts) <= MAX_VOXELS:
        raise ValueError("voxel grid too large; coarsen voxel_size or shrink the cloud")
    counts = counts.astype(int)
    n_voxels, n_in = int(np.prod(counts)), 0
    grid = Box(box.lower, box.lower + counts * voxel_size)
    for start in range(0, n_voxels, VOXEL_CHUNK):
        cells = np.unravel_index(np.arange(start, min(start + VOXEL_CHUNK, n_voxels)), counts)
        centers = (np.stack(cells) + 0.5) * voxel_size + box.lower[:, None]
        n_in += _hits(cloud.points.T, centers, grid, radius)
    return SausageEstimate(n_in * voxel_size ** cloud.d, 0.0, n_voxels, "voxel")


class ResolutionWarning(UserWarning):
    pass


def wiener_sausage_volume(
    path: PointCloud, radius: float, n_mc: int, rng: np.random.Generator, dt: float
) -> SausageEstimate:
    """Sausage volume around a path sampled every dt.

    Warns, and proceeds, when the temporal sampling guard
    sqrt(dt) <= radius/10 is violated.
    """
    if math.sqrt(dt) > radius / 10.0:
        warnings.warn(
            f"path resolution guard violated: sqrt(dt)={math.sqrt(dt):.4g} "
            f"> radius/10={radius / 10:.4g}",
            ResolutionWarning,
        )
    return sausage_volume_hit_or_miss(path, radius, n_mc, rng)


@dataclass(frozen=True)
class BoxCountResult:
    scales: np.ndarray
    counts: np.ndarray
    slope: float
    intercept: float


def occupied_cube_count(points: np.ndarray, eps: float) -> int:
    """Number of side-eps grid cubes containing at least one point."""
    keys = np.floor(np.asarray(points, float) / eps).astype(np.int64)
    return int(np.unique(keys, axis=0).shape[0])


def box_counting_dimension(samples, scales) -> BoxCountResult:
    """Least-squares slope of log N_eps against log(1/eps).

    `scales` must be at least 4 decreasing values spanning >= 1.2 decades
    (a 16x ratio, e.g. 2^-3 .. 2^-7) and should stay above the sampling
    resolution of the cloud.  For a spectral field sampled on M grid points
    of [0, J) with K modes, that resolution is the larger of the point
    spacing, about sqrt(d J / M) for a Brownian-like curve, and
    r_K = sqrt(d J / (2K)): the field is smooth at lags below J/(2K), so
    boxes smaller than r_K see a curve, not its 2-dimensional image.
    """
    points = np.atleast_2d(np.asarray(samples, float))
    scales = np.asarray(scales, float)
    if scales.ndim != 1 or scales.shape[0] < 4:
        raise ValueError(f"scales needs at least 4 values, got shape {scales.shape}")
    if not np.all(np.diff(scales) < 0):
        raise ValueError("scales must be strictly decreasing")
    if scales[0] / scales[-1] < 10 ** 1.2:
        raise ValueError("scales must span at least 1.2 decades")
    counts = np.array([occupied_cube_count(points, eps) for eps in scales], dtype=float)
    x = np.log(1.0 / scales)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    return BoxCountResult(scales, counts.astype(int), float(slope), float(intercept))
