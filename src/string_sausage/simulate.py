"""Trajectory driver: evolve a string over a sampling grid and keep the trace."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .geometry import PointCloud
from .spectral import (
    FieldSamples,
    ModelParams,
    evolve,
    grid_values,
    horizon_steps,
)
from .statistics import squared_distances


@dataclass(frozen=True)
class Trace:
    """One trajectory at times 0, dt, ..., T: coeffs[i] is the string at
    times[i] and values[i] its field values (M, d) on the evaluation grid."""

    params: ModelParams
    coeffs: np.ndarray  # (n+1, d, 2K+1)
    values: np.ndarray  # (n+1, M, d)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.params.n_steps + 1) * self.params.dt

    @property
    def n_snapshots(self) -> int:
        return self.coeffs.shape[0]

    def snapshots(self) -> list[FieldSamples]:
        """One FieldSamples per time."""
        return [FieldSamples(v) for v in self.values]

    def cloud(self) -> PointCloud:
        """All space-time samples flattened into one point cloud in R^d."""
        return PointCloud(self.values.reshape(-1, self.params.d))

    @property
    def com(self) -> np.ndarray:
        """Center of mass (n+1, d) at each time: the grid mean, read off the zero mode."""
        return self.coeffs[:, :, 0] / math.sqrt(self.params.J)

    @property
    def radius(self) -> np.ndarray:
        """Radius (n+1,) at each time: the largest grid distance from the center of mass."""
        return np.sqrt(squared_distances(np.moveaxis(self.values, -1, 0), self.com.T[:, :, None])).max(axis=1)


# Replicas evolved together share each `evolve` step's fixed cost: a block
# holds as many paths as keep its coefficients (B, n+1, d, 2K+1) within
# BLOCK_BYTES, at most MAX_BLOCK.  Its grid values are transformed as many
# paths at a time as keep their complex spectrum (b, n+1, d, M/2+1) within
# SPECTRUM_BYTES, so the spectrum and the values stay near glibc's default
# 128 kB mmap threshold and reuse heap pages.
BLOCK_BYTES = 1 << 20
MAX_BLOCK = 64
SPECTRUM_BYTES = 1 << 17


def replica_block(params: ModelParams) -> int:
    """Paths `traces` evolves together: as many as keep the block's
    coefficients within BLOCK_BYTES, at most MAX_BLOCK and at least one."""
    path = 8 * (params.n_steps + 1) * params.d * (2 * params.K + 1)
    return max(1, min(MAX_BLOCK, BLOCK_BYTES // path))


def traces(params: ModelParams, seed: int, replicas: range):
    """Yield the trace of each replica in `replicas`, in order, each
    bit-equal to `simulate(params, seed, r)` and read-only.

    Paths are evolved `replica_block(params)` at a time from the first
    replica on, each from its own stream, re-keyed on one generator just
    before the path draws, and a block's grid values are
    transformed a sub-block at a time, sized by SPECTRUM_BYTES.  The last
    block is dropped before the next one is evolved.
    """
    n, d, width = params.n_steps, params.d, 2 * params.K + 1
    size = replica_block(params)
    per_transform = max(1, SPECTRUM_BYTES // (16 * (n + 1) * d * (params.M // 2 + 1)))
    gen = streams.new_generator()
    try:
        for first in range(replicas.start, replicas.stop, size):
            coeffs = values = None  # so that the last block is freed before the next is evolved
            block = range(first, min(first + size, replicas.stop))
            gens = (streams.rekey(gen, seed, streams.NOISE, r) for r in block)
            coeffs = evolve(params, np.zeros((len(block), d, width)), params.dt, gens, n)
            coeffs.flags.writeable = False
            for b in range(len(block)):
                if b % per_transform == 0:
                    values = None  # and the last sub-block before the next is transformed
                    values = grid_values(params, coeffs[b : b + per_transform])
                    values.flags.writeable = False
                yield Trace(params, coeffs[b], values[b % per_transform])
    except MemoryError:
        raise ValueError(f"a path of {n} steps (T={params.T!r}, dt={params.dt!r}) does not fit in memory") from None


def simulate(params: ModelParams, seed: int, replica: int = 0, paths=None) -> Trace:
    """Run one replica from the zero string on the (dt, M) sampling grid with
    exact transitions.

    The whole path draws from the one counter-based stream
    (seed; NOISE, replica), step by step in time order, so traces are
    reproducible and independent across replicas.  (NOISE, replica, level)
    is left for refinement draws, which then never move the base path.

    `paths`, a `traces` generator whose next replica is `replica`, serves
    the trace instead; it is bit-equal either way.
    """
    return next(traces(params, seed, range(replica, replica + 1)) if paths is None else paths)


def brownian_path(
    d: int, T: float, dt: float, seed: int, replica: int = 0
) -> PointCloud:
    """Sampled standard Brownian path in R^d (used for Wiener-sausage checks)."""
    n = horizon_steps(T, dt)
    gen = streams.substream(seed, streams.AUX, replica)
    try:
        steps = gen.standard_normal((n, d)) * math.sqrt(dt)
        path = np.zeros((d, n + 1))  # coordinate rows, which the cloud holds without a copy
        np.cumsum(steps.T, axis=1, out=path[:, 1:])
    except MemoryError:
        raise ValueError(f"a path of {n} steps (T={T!r}, dt={dt!r}) does not fit in memory") from None
    path.flags.writeable = False
    return PointCloud(path.T)
