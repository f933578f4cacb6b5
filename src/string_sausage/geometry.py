"""Sausage volume estimators and the box-counting dimension diagnostic.

Every estimator measures the union of radius-r balls around the SAMPLED
cloud, which is a subset of the continuum sausage; the sampling moduli
sqrt(dx) and dt^(1/4) against the radius set the bias (no estimator checks
them).

Hit-or-miss decides most samples exactly on a cell raster of the padded
box, before any kd-tree query.  A sample sharing a fine cell (side
r/sqrt(d) (1 - 1e-9), diagonal below r) with a cloud point is a sure hit; a
sample with no cloud point within one coarse cell (side r (1 + 1e-9), no
smaller than the query bound r (1 + 1e-12)) on every axis is a sure miss.
The tree holds only the cloud points within one coarse cell of the other
samples and decides those alone, so the hit count is the one a tree over
the whole cloud gives.  The 1e-9 margins exceed the rounding of a cell
index on an axis of fewer than about 1.5e6 cells, which MAX_RASTER_CELLS
ensures; past that cap no raster is built and every sample goes to a tree
over the whole cloud.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .traps import Box

MAX_VOXELS = 50_000_000  # memory guard of the voxel estimator
MAX_RASTER_CELLS = 1 << 20  # memory guard of the hit-or-miss pre-pass raster


@dataclass(frozen=True)
class PointCloud:
    """Space-time samples of a string or path, flattened into R^d points."""

    points: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, float))
        object.__setattr__(self, "points", pts)
        if pts.shape[0] == 0:
            raise ValueError("point cloud must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud must be finite")

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SausageEstimate:
    volume: float
    stderr: float
    n_samples: int
    method: str

    def ci95(self) -> tuple[float, float]:
        return (self.volume - 1.96 * self.stderr, self.volume + 1.96 * self.stderr)


def bounding_box(cloud: PointCloud, pad: float = 0.0) -> Box:
    if pad < 0:
        raise ValueError("pad must be >= 0")
    cols = cloud.points.T  # a min over the short axis of (N, d) is 5-14x slower
    lo = np.array([c.min() for c in cols]) - pad
    hi = np.array([c.max() for c in cols]) + pad
    # guarantee positive extent even for a single point with pad 0
    tiny = np.where(hi - lo <= 0, 1e-12, 0.0)
    return Box(lo - tiny, hi + tiny)


def _cell_index(x: np.ndarray, lo: np.ndarray, side: float, shape: tuple) -> np.ndarray:
    """Flat C-order index, in a raster of `shape` cells of side `side` from
    `lo`, of the cell holding each row of x (every row >= lo)."""
    flat = np.zeros(x.shape[0], np.intp)
    for j, n in enumerate(shape):
        flat *= n
        flat += ((x[:, j] - lo[j]) / side).astype(np.intp)
    return flat


def _near(cells: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat raster of `shape`, True in every cell within one cell on every
    axis (the 3^d neighbourhood) of a cell listed in `cells`.

    Each axis is grown by shifting the flat raster one stride either way; a
    shift past the end of an axis wraps into a neighbouring row and marks
    one more cell, which only widens the set.
    """
    near = np.zeros(math.prod(shape), bool)
    near[cells] = True
    stride = 1
    for n in reversed(shape):
        grown = near.copy()
        grown[stride:] |= near[:-stride]
        grown[:-stride] |= near[stride:]
        near = grown
        stride *= n
    return near


def _raster_prepass(
    points: np.ndarray, samples: np.ndarray, box: Box, radius: float
) -> tuple[int, np.ndarray, np.ndarray]:
    """(sure hits, the samples the tree decides, the cloud points it needs)."""
    extent = (box.upper - box.lower).tolist()
    fine = radius / math.sqrt(len(extent)) * (1 - 1e-9)
    if not math.prod(e / fine + 2 for e in extent) <= MAX_RASTER_CELLS:
        return 0, samples, points
    shape = tuple(int(e / fine) + 2 for e in extent)
    occupied = np.zeros(math.prod(shape), bool)
    occupied[_cell_index(points, box.lower, fine, shape)] = True
    # np.compress takes rows about 10x faster than a boolean index here
    rest = np.compress(~occupied[_cell_index(samples, box.lower, fine, shape)], samples, axis=0)
    coarse = radius * (1 + 1e-9)
    shape = tuple(int(e / coarse) + 2 for e in extent)
    point_cells = _cell_index(points, box.lower, coarse, shape)
    cells = _cell_index(rest, box.lower, coarse, shape)
    reached = _near(point_cells, shape)[cells]  # the others are sure misses
    near = _near(cells[reached], shape)[point_cells]
    return (
        len(samples) - len(rest),
        np.compress(reached, rest, axis=0),
        np.compress(near, points, axis=0),
    )


def sausage_volume_hit_or_miss(
    cloud: PointCloud, radius: float, n_mc: int, rng: np.random.Generator
) -> SausageEstimate:
    """Hit-or-miss Monte Carlo volume of the union of balls around the cloud.

    Uniform samples in the padded bounding box are classified by nearest
    cloud distance; the estimate is unbiased for the sampled-cloud sausage
    with the exact binomial standard error.  The raster pre-pass (module
    docstring) settles the sure hits and misses; a tree over the nearby
    points decides the rest.  It is built unbalanced and uncompacted, which
    about halves its build; nearest distances do not depend on its shape.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    box = bounding_box(cloud, radius)
    samples = box.sample_uniform(n_mc, rng)
    n_sure, rest, near = _raster_prepass(cloud.points, samples, box, radius)
    tree = cKDTree(near, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(rest, k=1, distance_upper_bound=radius * (1 + 1e-12))
    p_hat = (n_sure + int(np.isfinite(dist).sum())) / n_mc
    vol = box.volume * p_hat
    stderr = box.volume * math.sqrt(p_hat * (1.0 - p_hat) / n_mc)
    return SausageEstimate(vol, stderr, n_mc, "hit_or_miss")


def sausage_volume_voxel(cloud: PointCloud, radius: float, voxel_size: float) -> SausageEstimate:
    """Deterministic voxel-center counting estimate of the same union of balls."""
    if cloud.d > 3:
        raise ValueError("voxel estimator limited to d <= 3 (memory guard)")
    if voxel_size > radius / 4:
        raise ValueError("voxel_size must be <= radius/4")
    box = bounding_box(cloud, radius + voxel_size)
    counts = np.ceil((box.upper - box.lower) / voxel_size).astype(int)
    if int(np.prod(counts)) > MAX_VOXELS:
        raise ValueError("voxel grid too large; coarsen voxel_size or shrink the cloud")
    axes = [box.lower[i] + (np.arange(counts[i]) + 0.5) * voxel_size for i in range(cloud.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    tree = cKDTree(cloud.points)
    n_in = 0
    chunk = 2_000_000
    for i in range(0, centers.shape[0], chunk):
        dist, _ = tree.query(centers[i : i + chunk], k=1, distance_upper_bound=radius * (1 + 1e-12))
        n_in += int(np.isfinite(dist).sum())
    vol = n_in * voxel_size ** cloud.d
    return SausageEstimate(vol, 0.0, centers.shape[0], "voxel")


class ResolutionWarning(UserWarning):
    pass


def wiener_sausage_volume(
    path: PointCloud, radius: float, n_mc: int, rng: np.random.Generator
) -> SausageEstimate:
    """Sausage volume around a sampled center-of-mass path.

    Warns, and proceeds, when the temporal sampling guard
    sqrt(dt) <= radius/10 is violated.
    """
    dt = path.meta.get("dt")
    if dt is not None and math.sqrt(dt) > radius / 10.0:
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
    points = samples.points if isinstance(samples, PointCloud) else np.atleast_2d(np.asarray(samples, float))
    scales = np.asarray(scales, float)
    if scales.shape[0] < 4:
        raise ValueError("need at least 4 scales")
    if not np.all(np.diff(scales) < 0):
        raise ValueError("scales must be strictly decreasing")
    if scales[0] / scales[-1] < 10 ** 1.2:
        raise ValueError("scales must span at least 1.2 decades")
    counts = np.array([occupied_cube_count(points, eps) for eps in scales], dtype=float)
    x = np.log(1.0 / scales)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    return BoxCountResult(scales, counts.astype(int), float(slope), float(intercept))
