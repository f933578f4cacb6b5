"""Range and independence statistics of the string, and the interval of a
Monte Carlo proportion.

`range_of` is the exact diameter of a sampled string.  `independence_test`
checks on simulated replicas that the center of mass (`Trace.com`), a
Brownian motion, is uncorrelated with the radius (`Trace.radius`).
`wilson95` is the 95% interval of the indicator means (survival
indicators, hit-or-miss hits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# values per working array of the blocked kernels (the contact masks of
# `traps.path_functional`, the hit-or-miss exact stage): 64 kB of floats
# stays in cache and below glibc's 128 kB mmap threshold, so every block
# reuses heap pages
BATCH_VALUES = 1 << 13


def wilson95(p: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a proportion p of n trials: open even
    where p is 0 or 1, where the binomial stderr is 0."""
    z = 1.96
    w = z * z / n
    centre = (p + w / 2.0) / (1.0 + w)
    half = z * math.sqrt(p * (1.0 - p) / n + w / (4.0 * n)) / (1.0 + w)
    return (0.0 if p == 0.0 else centre - half, 1.0 if p == 1.0 else centre + half)


def squared_distances(rows: np.ndarray, x) -> np.ndarray:
    """Squared distances from points given as coordinate rows (d, ...) to x,
    whose d entries broadcast against the rows: a point (d,), or k points
    (d, k, 1) against rows (d, N).  The per-axis squared differences are
    summed left to right, in place: for d <= 7 bit-equal to numpy's sum over
    the short axis of (..., d), and several times faster."""
    dist2 = rows[0] - x[0]
    dist2 *= dist2
    for row, xj in zip(rows[1:], x[1:]):
        diff = row - xj
        dist2 += np.multiply(diff, diff, out=diff)
    return dist2


def _diameter(rows: np.ndarray) -> float:
    """Exact diameter of a finite point set given as contiguous coordinate
    rows (d, N) (after Malandain & Boissonnat 2002).

    Double sweeps give a pair at distance L and its midpoint c.  A farther
    pair has |p - c| + |q - c| > L, so only points with |p - c| >=
    L - max |q - c| are scanned, in blocks of 128; a block of centre a and
    reach r meets only the later points q with |q - a| > L - r, and L rises
    with each larger pair.  Distances are summed coordinate by coordinate, so
    the result is a full scan's; a slack of 1e-9 L covers the rounding.
    """
    i, j, best = 0, 0, -1.0
    while True:  # double sweeps, while the farthest point moves the pair apart
        dist2 = squared_distances(rows, rows[:, j])
        k = int(dist2.argmax())
        if dist2[k] <= best:
            break
        i, j, best = j, k, float(dist2[k])
    rad = np.sqrt(squared_distances(rows, (rows[:, i] + rows[:, j]) / 2))
    low, size = math.sqrt(best) * (1 - 1e-9), 128  # L less the slack; points per block
    cand = np.compress(rad >= low - rad.max(), rows, axis=1)
    blocks = [cand[:, b : b + size] for b in range(0, cand.shape[1], size)]
    centres = np.array([(x.min(axis=1) + x.max(axis=1)) / 2 for x in blocks])
    reach = np.array([np.sqrt(squared_distances(x, a).max()) for x, a in zip(blocks, centres)])
    for g, block in enumerate(blocks):
        near = np.sqrt(squared_distances(centres.T, centres[g])) + reach > low - reach[g]
        near[:g] = False  # the earlier blocks met this one already
        rest = np.compress(near.repeat(size)[: cand.shape[1]], cand, axis=1)
        rest = np.compress(np.sqrt(squared_distances(rest, centres[g])) > low - reach[g], rest, axis=1)
        best = float(squared_distances(block[:, :, None], rest).max(initial=best))
        low = math.sqrt(best) * (1 - 1e-9)
    return math.sqrt(best)


def range_of(values) -> float:
    """Range sup_{x,y} |f(x) - f(y)| of a circle-indexed function sampled (M,) or (M, d).

    Computed as the exact diameter of the sampled point set, hence a
    (one-sided) underestimate of the continuum supremum.
    """
    values = np.asarray(values, float)
    if values.shape[0] == 0 or not np.isfinite(values).all():
        raise ValueError("range_of needs a nonempty, finite sample")
    if values.ndim == 1 or values.shape[1] == 1:
        return float(values.max() - values.min())
    return _diameter(np.ascontiguousarray(values.T))


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
