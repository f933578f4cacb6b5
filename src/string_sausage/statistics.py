"""Center of mass / radius / range decomposition of the string.

The center of mass is a Brownian motion independent of the radius; the
statistical tests here check both facts on simulated replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PathRecord:
    """Per-sample-time center of mass X and radius R of one trajectory."""

    times: np.ndarray
    X: np.ndarray  # (n, d)
    R: np.ndarray  # (n,)

    def __post_init__(self):
        n = self.times.shape[0]
        if self.X.shape[0] != n or self.R.shape[0] != n:
            raise ValueError("times, X, R must have equal length")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.R < 0):
            raise ValueError("radius must be nonnegative")


def _diameter(points: np.ndarray) -> float:
    """Exact diameter of a finite point set."""
    n, d = points.shape
    if d == 1:
        return float(points.max() - points.min())
    if n > 64 and d <= 3:
        # reduce to hull vertices before the pairwise scan
        from scipy.spatial import ConvexHull, QhullError

        try:
            points = points[ConvexHull(points).vertices]
        except QhullError:
            pass  # degenerate cloud; fall through to the full scan
        n = points.shape[0]
    best = 0.0
    chunk = 512
    for i in range(0, n, chunk):
        diff = points[i : i + chunk, None, :] - points[None, :, :]
        best = max(best, float(np.sqrt((diff ** 2).sum(axis=2)).max()))
    return best


def range_of(values) -> float:
    """Range sup_{x,y} |f(x) - f(y)| of a circle-indexed function sampled (M,) or (M, d).

    Computed as the exact diameter of the sampled point set, hence a
    (one-sided) underestimate of the continuum supremum.
    """
    values = np.asarray(values, float)
    if values.ndim == 1:
        values = values[:, None]
    if values.shape[0] == 0:
        raise ValueError("range_of needs a nonempty sample")
    return _diameter(values)


@dataclass(frozen=True)
class IndependenceReport:
    correlations: np.ndarray  # per coordinate, corr(X_T^{(j)}, R_T)
    threshold: float
    n: int

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.correlations) <= self.threshold))


def independence_test(replicas) -> IndependenceReport:
    """Sample correlation between each center-of-mass coordinate and the radius.

    `replicas` is a sequence of (X_T, R_T) pairs at a common horizon.  The
    null (independence) is accepted when every |corr| <= 4/sqrt(N), roughly
    a 4-sigma band.  A zero-variance factor reports correlation 0.
    """
    X = np.asarray([np.atleast_1d(x) for x, _ in replicas], float)
    R = np.asarray([r for _, r in replicas], float)
    n = X.shape[0]
    if n < 100:
        raise ValueError("independence_test needs at least 100 replicas")
    corr = np.zeros(X.shape[1])
    r_sd = R.std()
    if r_sd > 0:
        rc = R - R.mean()
        for j in range(X.shape[1]):
            x_sd = X[:, j].std()
            if x_sd > 0:
                corr[j] = np.mean((X[:, j] - X[:, j].mean()) * rc) / (x_sd * r_sd)
    return IndependenceReport(corr, 4.0 / math.sqrt(n), n)
