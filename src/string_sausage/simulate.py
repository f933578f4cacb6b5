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
)
from .statistics import PathRecord, squared_norms


@dataclass(frozen=True)
class Trace:
    """One trajectory at times 0, dt, ..., T: coeffs[i] is the string at
    times[i] and values[i] its field values (M, d) on the evaluation grid."""

    params: ModelParams
    times: np.ndarray
    coeffs: np.ndarray  # (n+1, d, 2K+1)
    values: np.ndarray | None = None  # (n+1, M, d); grid_values(params, coeffs) when not given

    def __post_init__(self):
        if self.values is None:
            object.__setattr__(self, "values", grid_values(self.params, self.coeffs))

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    def snapshots(self) -> list[FieldSamples]:
        """One FieldSamples per time, all sharing one grid array."""
        grid = self.params.grid()
        return [FieldSamples(grid, v) for v in self.values]

    def cloud(self) -> PointCloud:
        """All space-time samples flattened into one point cloud in R^d."""
        p = self.params
        pts = self.values.reshape(-1, p.d)
        return PointCloud(pts, meta={"dt": p.dt, "dx": p.J / p.M, "T": p.T})

    def path_record(self) -> PathRecord:
        X = self.coeffs[:, :, 0] / math.sqrt(self.params.J)
        dev = self.values - X[:, None, :]
        R = np.sqrt(squared_norms(dev)).max(axis=1)
        return PathRecord(self.times, X, R)


# The last block of replicas `simulate` evolved: ((params, seed), replicas,
# read-only coefficients (B, n+1, d, 2K+1), the replicas of its last
# transformed sub-block and their read-only grid values (b, n+1, M, d)).
_NO_BLOCK = (None, range(0), None, range(0), None)
_last_block: tuple = _NO_BLOCK
# A block's grid values are transformed as many paths at a time as keep their
# complex spectrum (b, n+1, d, M/2+1) within SPECTRUM_BYTES, so the spectrum
# and the values stay near glibc's default 128 kB mmap threshold and reuse
# heap pages.
SPECTRUM_BYTES = 1 << 17


def simulate(params: ModelParams, seed: int, replica: int = 0, block: int = 1) -> Trace:
    """Run one replica from the zero string on the (dt, M) sampling grid with
    exact transitions.

    The whole path draws from the one counter-based stream
    (seed; NOISE, replica), step by step in time order, so traces are
    reproducible and independent across replicas.  (NOISE, replica, level)
    is left for refinement draws, which then never move the base path.

    With `block` = B > 1 the trace is served from the last block evolved
    when that block holds `replica`; otherwise replicas replica..replica+B-1
    are evolved together, each from its own stream, and kept as that block.
    Grid values are transformed for a sub-block of the block's paths from
    `replica` on, sized by SPECTRUM_BYTES.  Either way the trace is bit-equal
    to `simulate(params, seed, replica)`.
    """
    global _last_block
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block!r}")
    key, n = (params, seed), params.n_steps
    _, replicas, coeffs, served, values = _NO_BLOCK
    if block > 1:
        if _last_block[0] == key and replica in _last_block[1]:
            _, replicas, coeffs, served, values = _last_block
        _last_block = _NO_BLOCK  # so that an array replaced below is freed first
    try:
        if replica not in replicas:
            replicas = range(replica, replica + block)
            gens = [streams.substream(seed, streams.NOISE, r) for r in replicas]
            coeffs = evolve(params, np.zeros((block, params.d, 2 * params.K + 1)), params.dt, gens, n)
            coeffs.flags.writeable = False
        b = replica - replicas.start
        if replica not in served:
            values = None  # free the last sub-block before the next is transformed
            spectrum = 16 * (n + 1) * params.d * (params.M // 2 + 1)
            served = range(replica, min(replicas.stop, replica + max(1, SPECTRUM_BYTES // spectrum)))
            values = grid_values(params, coeffs[b : b + len(served)])
            values.flags.writeable = False
    except MemoryError:
        raise ValueError(f"a path of {n} steps (T={params.T!r}, dt={params.dt!r}) does not fit in memory") from None
    if block > 1:
        _last_block = (key, replicas, coeffs, served, values)
    return Trace(params, np.arange(n + 1) * params.dt, coeffs[b], values[replica - served.start])


def release_block() -> None:
    """Drop the block `simulate` keeps, once the replicas it holds are served."""
    global _last_block
    _last_block = _NO_BLOCK


def brownian_path(
    d: int, T: float, dt: float, seed: int, replica: int = 0
) -> PointCloud:
    """Sampled standard Brownian path in R^d (used for Wiener-sausage checks)."""
    n = int(round(T / dt))
    gen = streams.substream(seed, streams.AUX, replica)
    steps = gen.standard_normal((n, d)) * math.sqrt(dt)
    path = np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)])
    return PointCloud(path, meta={"dt": dt, "T": T})
