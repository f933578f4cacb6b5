"""Sausage volume estimators and the box-counting dimension diagnostic.

Every estimator measures the union of radius-r balls around the SAMPLED
cloud, which is a subset of the continuum sausage; the sampling moduli
sqrt(dx) and dt^(1/4) against the radius set the bias (no estimator checks
them).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .traps import Box

MAX_VOXELS = 50_000_000  # memory guard of the voxel estimator


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
    lo = cloud.points.min(axis=0) - pad
    hi = cloud.points.max(axis=0) + pad
    # guarantee positive extent even for a single point with pad 0
    tiny = np.where(hi - lo <= 0, 1e-12, 0.0)
    return Box(lo - tiny, hi + tiny)


def sausage_volume_hit_or_miss(
    cloud: PointCloud, radius: float, n_mc: int, rng: np.random.Generator
) -> SausageEstimate:
    """Hit-or-miss Monte Carlo volume of the union of balls around the cloud.

    Uniform samples in the padded bounding box are classified by nearest
    cloud distance; the estimate is unbiased for the sampled-cloud sausage
    with the exact binomial standard error.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if n_mc < 1000:
        raise ValueError("n_mc must be >= 1000")
    box = bounding_box(cloud, radius)
    tree = cKDTree(cloud.points)
    samples = box.sample_uniform(n_mc, rng)
    dist, _ = tree.query(samples, k=1, distance_upper_bound=radius * (1 + 1e-12))
    p_hat = float(np.mean(np.isfinite(dist)))
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
