"""Poisson trap field, obstacle potentials, and contact queries.

The infinite-intensity Poisson process is realised only inside a bounding
box covering the string trajectory padded by the interaction radius plus a
safety margin; traps outside that box cannot touch the string, so the
restriction is exact in law for every survival functional.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, float))
        hi = np.atleast_1d(np.asarray(self.upper, float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("box must have positive extent in every coordinate")

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def sample_uniform(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.d))


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
        if pts.size and not np.all(self.box.contains(pts)):
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
        try:
            box = Box(np.asarray(obj["box"]["lower"]), np.asarray(obj["box"]["upper"]))
            return cls(np.asarray(obj["points"], float), box, float(obj["nu"]))
        except KeyError as exc:
            raise ValueError(f"environment JSON lacks the key {exc}") from None


def sample_environment(box: Box, nu: float, rng: np.random.Generator) -> PoissonEnvironment:
    """Poisson(nu * vol) many i.i.d. uniform traps inside the box."""
    if nu < 0:
        raise ValueError("intensity must be >= 0")
    n = int(rng.poisson(nu * box.volume))
    points = box.sample_uniform(n, rng) if n else np.empty((0, box.d))
    return PoissonEnvironment(points, box, nu)


def contact_counts(points: np.ndarray, env: PoissonEnvironment, a: float) -> np.ndarray:
    """Number of traps within (closed) distance a of each query point.

    Computed trap-by-trap against the full query array; exact, and fast at
    the trap counts a padded trajectory box produces.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    counts = np.zeros(pts.shape[0], dtype=np.int64)
    for xi in env.points:
        dist2 = ((pts - xi[None, :]) ** 2).sum(axis=1)
        counts += dist2 <= a * a
    return counts


def any_contact(points: np.ndarray, env: PoissonEnvironment, a: float) -> bool:
    """True iff some query point lies within distance a of some trap."""
    pts = np.atleast_2d(np.asarray(points, float))
    for xi in env.points:
        dist2 = ((pts - xi[None, :]) ** 2).sum(axis=1)
        if np.any(dist2 <= a * a):
            return True
    return False


def path_functional(
    trajectory, env: PoissonEnvironment, a: float, height: float, dt: float, dx: float
) -> float:
    """Composite quadrature of int_0^T int V(u(s,x)) dx ds for the soft
    potential V = height * (number of traps within distance a).

    `trajectory` is a sequence of snapshots on uniform (dt, dx) grids, each
    with `.values` of shape (M, d); all snapshots are queried at once.
    """
    values = np.concatenate([samples.values for samples in trajectory])
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite field values in trajectory")
    return height * dt * dx * int(contact_counts(values, env, a).sum())
