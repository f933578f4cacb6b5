"""Annealed and quenched survival estimation among Poisson traps.

Hard obstacles kill on contact with the closed ball B(xi, a); survival can
equivalently be estimated through the Poisson identity
S_T = E exp(-nu |sausage|).  Soft indicator obstacles weight each path by
exp(-int int V), where V is `height` times the number of traps within the
same radius a.  Contact is tested at the sampled (s, x) points only, so
finite resolution overestimates survival.

`_estimate` is the one estimator body: `annealed_hard`, `annealed_soft`
and `quenched` check their arguments and hand it a per-replica weight,
`_hard`, `_hard_volume` or `_soft`.  The hard and soft weights draw traps
from (ENV, r) around the replica's cloud when no environment is given and
otherwise use the frozen one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as streams
from .geometry import PointCloud, bounding_box, sausage_volume_hit_or_miss
from .simulate import Trace, simulate
from .spectral import ModelParams
from .traps import PoissonEnvironment, any_contact, path_functional, sample_environment

ENV_PAD_MARGIN = 0.5
# methods whose replica weight is a survival indicator
INDICATOR_METHODS = ("hard_direct", "quenched_hard")


@dataclass(frozen=True)
class SurvivalEstimate:
    p_hat: float
    stderr: float
    n_replicas: int
    method: str
    params: ModelParams

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0 + 1e-12:
            raise ValueError("p_hat must lie in [0, 1]")

    def ci95(self) -> tuple[float, float]:
        """95% interval: the point itself at T=0, where survival is exactly 1;
        Wilson score for the indicator means, open even where p_hat is 0 or 1
        and `stderr` is 0; p_hat +- 1.96 stderr otherwise."""
        if self.params.T == 0:
            return (self.p_hat, self.p_hat)
        z = 1.96
        if self.method not in INDICATOR_METHODS:
            return (self.p_hat - z * self.stderr, self.p_hat + z * self.stderr)
        n, p = self.n_replicas, self.p_hat
        w = z * z / n
        centre = (p + w / 2.0) / (1.0 + w)
        half = z * math.sqrt(p * (1.0 - p) / n + w / (4.0 * n)) / (1.0 + w)
        return (0.0 if p == 0.0 else centre - half, 1.0 if p == 1.0 else centre + half)


def scaled_unit_params(params: ModelParams) -> ModelParams:
    """Unit-J parameter set whose discretized survival law matches `params`.

    The J -> 1 diffusive scaling map sends (T, nu, a) to
    (T J^-2, nu J^{d/2}, a J^{-1/2}); potentials gain height J^3.  The
    sampling grid is mapped along with the model (dt -> dt J^-2, same M
    and K), so the two discretizations are images of each other under the
    exact scaling map.
    """
    J = params.J
    return replace(
        params,
        J=1.0,
        nu=params.nu * J ** (params.d / 2.0),
        a=params.a / math.sqrt(J),
        dt=params.dt / J ** 2,
        T=params.T / J ** 2,
    )


def environment_for_cloud(
    cloud: PointCloud, nu: float, a: float, rng: np.random.Generator
) -> PoissonEnvironment:
    """Sample traps in the cloud's bounding box padded by a + safety margin.

    Traps farther than `a` from every string point cannot interact, so the
    padded-box restriction of the infinite process is exact in law.
    """
    return sample_environment(bounding_box(cloud, a + ENV_PAD_MARGIN), nu, rng)


def _hard(trace: Trace, seed: int, r: int, env: PoissonEnvironment | None) -> float:
    """Survival indicator against `env`, or, when `env` is None, against traps
    drawn from (ENV, r) in the cloud's box padded by a + ENV_PAD_MARGIN,
    which covers every trap that can touch the cloud."""
    cloud, p = trace.cloud(), trace.params
    if env is None:
        env = environment_for_cloud(cloud, p.nu, p.a, streams.substream(seed, streams.ENV, r))
    return float(not any_contact(cloud.points, env, p.a))


def _hard_volume(trace: Trace, seed: int, r: int, n_mc: int) -> float:
    p = trace.params
    est = sausage_volume_hit_or_miss(
        trace.cloud(), p.a, n_mc, streams.substream(seed, streams.MC, r)
    )
    return math.exp(-p.nu * est.volume)


def _soft(
    trace: Trace, seed: int, r: int, env: PoissonEnvironment | None, height: float
) -> float:
    """exp(-path functional) against `env`, or, when `env` is None, against
    traps drawn from (ENV, r) around the cloud."""
    p = trace.params
    if env is None:
        env = environment_for_cloud(
            trace.cloud(), p.nu, p.a, streams.substream(seed, streams.ENV, r)
        )
    samples = [trace.samples(j) for j in range(trace.n_snapshots)]
    return math.exp(-path_functional(samples, env, p.a, height, dt=p.dt, dx=p.J / p.M))


def _replica_batch(args) -> np.ndarray:
    """Per-replica weights `weight(trace, seed, r, *extra)` for one chunk."""
    weight, params, seed, replicas, extra = args
    out = np.empty(len(replicas))
    for i, r in enumerate(replicas):
        out[i] = weight(simulate(params, seed, replica=r), seed, r, *extra)
    return out


def n_workers(requested: int | None = None) -> int:
    """Worker count: `requested`, else STRING_SAUSAGE_THREADS, else every core."""
    if requested is None:
        env_val = os.environ.get("STRING_SAUSAGE_THREADS")
        if not env_val:
            return os.cpu_count() or 1
        try:
            requested = int(env_val)
        except ValueError:
            raise ValueError(f"STRING_SAUSAGE_THREADS={env_val!r} is not an integer") from None
    if isinstance(requested, bool) or not isinstance(requested, int) or requested < 1:
        raise ValueError(f"worker count must be an integer >= 1, got {requested!r}")
    return requested


def _run_batches(
    weight, params: ModelParams, seed: int, extra: tuple, n_rep: int, workers: int
) -> np.ndarray:
    """Replica-parallel execution with an order-independent merge.

    Replicas are split into contiguous chunks; each chunk's output is keyed
    by replica index, so the concatenated result never depends on worker
    scheduling.
    """
    replicas = list(range(n_rep))
    if workers <= 1:
        return _replica_batch((weight, params, seed, replicas, extra))
    chunk = max(1, math.ceil(n_rep / (workers * 4)))
    chunks = [replicas[i : i + chunk] for i in range(0, n_rep, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_replica_batch, [(weight, params, seed, c, extra) for c in chunks]))
    return np.concatenate(parts)


def _estimate(
    weight, extra: tuple, method: str, params: ModelParams, n_rep: int, seed: int,
    workers: int | None,
) -> SurvivalEstimate:
    """The one estimator body: the mean of the replica weights
    `weight(trace, seed, r, *extra)` over r = 0..n_rep-1, with the binomial
    stderr for the indicator methods and the sample stderr otherwise."""
    if n_rep < 100:
        raise ValueError("need n_rep >= 100")
    w = n_workers(workers)
    if params.T == 0:
        # empty time integral: the survival weight is exp(-0) for every path
        return SurvivalEstimate(1.0, 0.0, n_rep, method, params)
    weights = _run_batches(weight, params, seed, extra, n_rep, w)
    p = float(np.mean(weights))
    if method in INDICATOR_METHODS:
        stderr = math.sqrt(p * (1.0 - p) / n_rep)
    else:
        stderr = float(np.std(weights, ddof=1) / math.sqrt(n_rep))
    return SurvivalEstimate(min(p, 1.0), stderr, n_rep, method, params)


def annealed_hard(
    params: ModelParams,
    n_rep: int,
    seed: int,
    method: str = "hard_direct",
    n_mc: int = 2000,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Annealed hard-obstacle survival S_T.

    method='hard_direct' averages the contact indicator over independent
    (noise, environment) pairs; method='hard_via_volume' averages
    exp(-nu * sausage volume) over noise replicas via the Poisson identity.
    Both estimate the same quantity.
    """
    if method not in ("hard_direct", "hard_via_volume"):
        raise ValueError(f"unknown method {method!r}")
    weight, extra = (_hard, (None,)) if method == "hard_direct" else (_hard_volume, (n_mc,))
    return _estimate(weight, extra, method, params, n_rep, seed, workers)


def annealed_soft(
    params: ModelParams,
    height: float,
    n_rep: int,
    seed: int,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Annealed soft-obstacle survival: mean of exp(-path functional) for the
    indicator potential of height `height` on the balls B(xi, params.a)."""
    if height < 0:
        raise ValueError("soft indicator height must be >= 0")
    return _estimate(_soft, (None, height), "soft_weight", params, n_rep, seed, workers)


def quenched(
    params: ModelParams,
    env: PoissonEnvironment,
    n_rep: int,
    seed: int,
    height: float | None = None,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Survival over noise with the trap configuration held fixed: hard traps
    when `height` is None, else the soft indicator of that height.

    The supplied environment is taken as the whole trap field (no traps
    outside its box), so trajectory coverage is not enforced.
    """
    if env is None:
        raise ValueError("quenched estimation requires an explicit environment")
    if env.box.d != params.d:
        raise ValueError(f"environment has dimension {env.box.d}, the string d={params.d}")
    if height is not None and height < 0:
        raise ValueError("soft indicator height must be >= 0")
    if height is None:
        return _estimate(_hard, (env,), "quenched_hard", params, n_rep, seed, workers)
    return _estimate(_soft, (env, height), "quenched_soft", params, n_rep, seed, workers)


@dataclass(frozen=True)
class ScalingReport:
    original: SurvivalEstimate
    scaled: SurvivalEstimate

    @property
    def overlap(self) -> bool:
        lo1, hi1 = self.original.ci95()
        lo2, hi2 = self.scaled.ci95()
        return max(lo1, lo2) <= min(hi1, hi2)


def scaling_check(
    params: ModelParams,
    n_rep: int,
    seed: int,
    method: str = "hard_direct",
    workers: int | None = None,
) -> ScalingReport:
    """Estimate S_T at J and at the scaled unit-J parameters with independent seeds."""
    original = annealed_hard(params, n_rep, seed, method=method, workers=workers)
    scaled = annealed_hard(
        scaled_unit_params(params), n_rep, seed + 1, method=method, workers=workers
    )
    return ScalingReport(original, scaled)
