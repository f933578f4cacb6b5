"""Poisson trap field, obstacle potentials, and contact queries.

The infinite-intensity Poisson process is realised only inside a bounding
box covering the string trajectory padded by the interaction radius plus a
safety margin; traps outside that box cannot touch the string, so the
restriction is exact in law for every survival functional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .statistics import BATCH_VALUES, squared_distances


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, float))
        hi = np.atleast_1d(np.asarray(self.upper, float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # array methods: np.any and np.all add ~2.5 us each, and every replica builds boxes
        if lo.shape != hi.shape or (hi <= lo).any():
            raise ValueError("box must have positive extent in every coordinate")
        if not np.isfinite(hi - lo).all():
            raise ValueError("box bounds must be finite")

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return math.prod((self.upper - self.lower).tolist())  # np.prod's product, without its ~3 us call

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n uniform points (n, d), a view of contiguous coordinate rows (d, n),
        bit-equal to rng.uniform(lower, upper, (n, d)) without its argument checks."""
        rows = rng.random((n, self.d)).T.copy()
        rows *= (self.upper - self.lower)[:, None]
        rows += self.lower[:, None]
        return rows.T


@dataclass(frozen=True)
class PoissonEnvironment:
    points: np.ndarray
    box: Box
    nu: float

    def __post_init__(self):
        pts = np.asarray(self.points, float)
        if pts.size == 0:
            pts = pts.reshape(0, self.box.d)
        if pts.ndim != 2 or pts.shape[1] != self.box.d:
            raise ValueError(f"trap points must have shape (n, {self.box.d}), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if pts.size and not ((pts >= self.box.lower) & (pts <= self.box.upper)).all():  # one pass
            raise ValueError("all trap points must lie inside the box")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "nu": self.nu,
                "box": {"lower": self.box.lower.tolist(), "upper": self.box.upper.tolist()},
                "points": self.points.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PoissonEnvironment":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("environment JSON must be an object")

        def member(key, convert):
            try:
                return convert(obj[key])
            except KeyError as exc:
                raise ValueError(f"environment JSON lacks the key {exc}") from None
            except TypeError:
                raise ValueError(f"environment JSON member {key!r} has the wrong type") from None

        box = member("box", lambda b: Box(np.asarray(b["lower"], float), np.asarray(b["upper"], float)))
        return cls(member("points", lambda v: np.asarray(v, float)), box, member("nu", float))


def sample_environment(box: Box, nu: float, rng: np.random.Generator) -> PoissonEnvironment:
    """Poisson(nu * vol) many i.i.d. uniform traps inside the box."""
    if nu < 0:
        raise ValueError("intensity must be >= 0")
    try:  # a mean past numpy's limit raises its "lam value too large" ValueError
        n = int(rng.poisson(nu * box.volume))
        points = box.sample_uniform(n, rng) if n else np.empty((0, box.d))
    except (ValueError, MemoryError):
        raise ValueError(f"the traps (nu={nu!r} over a box of volume {box.volume:.4g}) "
                         "do not fit in memory") from None
    return PoissonEnvironment(points, box, nu)


def _reach(lo: np.ndarray, hi: np.ndarray, env: PoissonEnvironment, a: float) -> np.ndarray:
    """The traps (k, d), in field order, that some point of a cloud with
    per-axis bounds lo and hi can reach, culled in one pass over the
    (traps, d) array.  A trap x is culled when, in some coordinate j, its gap
    to the points' box, fl(lo_j - x_j) below it or fl(x_j - hi_j) above it,
    is positive and gap * gap > a * a.  Rounding is monotone, so every
    point's squared distance is at least that squared gap and the cull drops
    no contact."""
    if len(lo) != env.box.d:
        raise ValueError(f"points have dimension {len(lo)}, the traps d={env.box.d}")
    gap = np.maximum(lo - env.points, env.points - hi)
    return env.points[((gap <= 0) | (gap * gap <= a * a)).all(axis=1)]


def any_contact(cloud, env: PoissonEnvironment, a: float) -> bool:
    """True iff some point of the `geometry.PointCloud` lies within distance a of
    some trap: the traps its `bounds` leave in reach are tested against its coordinate
    rows one at a time, up to the first in contact, as Python floats (2x faster than numpy's)."""
    cols, a2 = cloud.points.T, a * a  # the cloud's contiguous coordinate rows
    return any((squared_distances(cols, x) <= a2).any() for x in _reach(*cloud.bounds, env, a).tolist())


def path_functional(
    trajectory, env: PoissonEnvironment, a: float, height: float, dt: float, dx: float
) -> float:
    """Composite quadrature of int_0^T int V(u(s,x)) dx ds for the soft
    potential V = height * (number of traps within closed distance a): height
    dt dx times the number of (trap, sample point) pairs in contact.

    `trajectory` is a sequence of snapshots on uniform (dt, dx) grids, each
    with `.values` of shape (M, d); all snapshots are queried at once, about
    BATCH_VALUES pairs at a time.  Exact: only traps no point can reach are
    culled (`_reach`), and the rest are tested against every point.
    """
    cols = np.concatenate([samples.values.T for samples in trajectory], axis=1)  # coordinate rows (d, N)
    if not np.isfinite(cols).all():
        raise ValueError("non-finite field values in trajectory")
    reach = _reach(cols.min(axis=1), cols.max(axis=1), env, a).T[:, :, None]
    block, a2 = max(1, BATCH_VALUES // max(cols.shape[1], 1)), a * a
    pairs = sum(np.count_nonzero(squared_distances(cols, reach[:, k : k + block]) <= a2)
                for k in range(0, reach.shape[1], block))
    return height * dt * dx * pairs
