"""Trajectory driver: evolve a string over a sampling grid and keep the trace."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng as streams
from .geometry import PointCloud
from .spectral import (
    FieldSamples,
    ModelParams,
    evolve,
    grid_values,
    zero_state,
)
from .statistics import PathRecord, squared_norms


@dataclass(frozen=True)
class Trace:
    """One trajectory at times 0, dt, ..., T: coeffs[i] is the string at times[i]."""

    params: ModelParams
    times: np.ndarray
    coeffs: np.ndarray  # (n+1, d, 2K+1)

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    @cached_property
    def values(self) -> np.ndarray:
        """Field values (n+1, M, d) on the evaluation grid, via batched inverse FFT."""
        return grid_values(self.params, self.coeffs)

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


def simulate(params: ModelParams, seed: int, replica: int = 0) -> Trace:
    """Run one replica from the zero string on the (dt, M) sampling grid with
    exact transitions.

    The whole path draws from the one counter-based stream
    (seed; NOISE, replica), step by step in time order, so traces are
    reproducible and independent across replicas.  (NOISE, replica, level)
    is left for refinement draws, which then never move the base path.
    """
    n = params.n_steps
    gen = streams.substream(seed, streams.NOISE, replica)
    try:
        coeffs = evolve(params, zero_state(params), params.dt, gen, n)
    except MemoryError:
        raise ValueError(f"a path of {n} steps (T={params.T!r}, dt={params.dt!r}) does not fit in memory") from None
    return Trace(params, np.arange(n + 1) * params.dt, coeffs)


def brownian_path(
    d: int, T: float, dt: float, seed: int, replica: int = 0
) -> PointCloud:
    """Sampled standard Brownian path in R^d (used for Wiener-sausage checks)."""
    n = int(round(T / dt))
    gen = streams.substream(seed, streams.AUX, replica)
    steps = gen.standard_normal((n, d)) * math.sqrt(dt)
    path = np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)])
    return PointCloud(path, meta={"dt": dt, "T": T})
